"""Every top-level function and class of ``src/lbi`` pays for itself: some
module of the package references it outside its own body, or ``lbi``
exports it.  A name whose only caller lives outside the package goes on
``OUTSIDE_CALLERS`` with that caller."""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "lbi")

# "module.name": the file outside src/lbi that calls it.
OUTSIDE_CALLERS = {
    "engine.ensure_arrays": "perfbench/run.py",
}


def parse_package() -> dict[str, ast.Module]:
    trees = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name)) as fh:
                trees[name[:-3]] = ast.parse(fh.read(), name)
    return trees


def defined(tree: ast.Module) -> dict[str, ast.AST]:
    return {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))}


def references(trees: dict[str, ast.Module]) -> set[str]:
    """"module.name" for each top-level name some module refers to outside
    that name's own definition: a bare name in its module, ``module.name``
    anywhere, or ``from .module import name`` (an export of ``lbi``
    included)."""
    seen = set()
    for module, tree in trees.items():
        own = defined(tree)

        def visit(node, inside):
            if isinstance(node, ast.Name) and node.id in own \
                    and node.id != inside:
                seen.add(f"{module}.{node.id}")
            elif isinstance(node, ast.Attribute) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id in trees:
                seen.add(f"{node.value.id}.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module:
                source = node.module.split(".")[-1]
                seen.update(f"{source}.{a.name}" for a in node.names)
            for child in ast.iter_child_nodes(node):
                visit(child, inside)

        for node in tree.body:
            visit(node, getattr(node, "name", None))
    return seen


def test_every_top_level_name_is_referenced():
    trees = parse_package()
    seen = references(trees)
    unreferenced = sorted(f"{module}.{name}"
                          for module, tree in trees.items()
                          for name in defined(tree)
                          if f"{module}.{name}" not in seen)
    assert unreferenced == sorted(OUTSIDE_CALLERS)


def test_outside_callers_call_their_names():
    for qualified, caller in OUTSIDE_CALLERS.items():
        with open(os.path.join(ROOT, caller)) as fh:
            assert qualified in fh.read(), (qualified, caller)


def test_an_unreferenced_function_is_flagged():
    trees = {"engine": ast.parse("def used():\n    return used()\n\n"
                                 "def caller():\n    return used()\n\n"
                                 "def lonely():\n    return lonely()\n")}
    trees["cli"] = ast.parse("from . import engine\n\nengine.caller()\n")
    assert references(trees) >= {"engine.used", "engine.caller"}
    assert "engine.lonely" not in references(trees)
