"""Byte-identity gate: a fixed list of commands, each output file compared
by sha256 with the hashes recorded in ``tests/golden/<env key>.json``.

Reruns of a deterministic command give the same bytes, and a refactor must
keep them.  The env key names what the bytes rest on: the numpy version,
the BLAS that numpy was built against (name and version), the CPU kernels
that OpenBLAS and numpy picked (``cli.cpu_kernels``) and the machine.
``manifest.json`` is left out, as it holds a timestamp and timings.  The
record keeps a short hash of each line too, so a mismatch names the first
line that differs.

With no record for the running environment the test fails rather than
skips, so the gate cannot go missing unnoticed.  To record one (on a new
platform), run from the repository root::

    PYTHONPATH=src python tests/test_golden.py

After a deliberate numeric change, whose deviation is then written up,
re-record only the files it changes by naming them::

    PYTHONPATH=src python tests/test_golden.py run-mini/trace.csv

That writes nothing, and exits 1, unless every other recorded file keeps
its hash.
"""

import hashlib
import json
import os
import platform
import sys
import tempfile

import numpy as np
import pytest
import reference

from lbi import cli, engine

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
RECORD = "PYTHONPATH=src python tests/test_golden.py"

ITERATIONS = ["--set", "iterations=60"]
# (output directory, arguments), run in this order in one directory: eval
# scores run-full's state on gen-data's CSV, so the CSV reader is covered.
COMMANDS = [
    ("run-full", ["run", *ITERATIONS]),
    ("run-mini", ["run", *ITERATIONS, "--set", "batch_size=32",
                  "--set", "hidden=8"]),
    # 400 rows x 64 hidden = 25,600 activations: the stage overlap, on two
    # usable CPUs.
    ("run-overlap", ["run", "--set", "iterations=5", "--set", "hidden=64",
                     "--set", "data.n_pretrain=400"]),
    ("ablate", ["ablate", *ITERATIONS]),
    ("sweep", ["sweep", *ITERATIONS, "--param", "lambda",
               "--grid", "1e-3,3e-3,1e-2"]),
    ("verify", ["verify"]),
    ("gen-data", ["gen-data"]),
    ("eval", ["eval", "--state", "run-full/state.json",
              "--set", "data.path=gen-data/data.csv"]),
]


def env_key() -> str:
    """numpy version, BLAS name and version, OpenBLAS core, numpy's dispatch
    target and machine, as a file name."""
    kernels = cli.cpu_kernels()
    return "_".join(["numpy-" + np.__version__, cli.blas_name(),
                     f"core-{kernels['blas_core']}",
                     f"simd-{kernels['numpy_simd']}", platform.machine()])


def _line_hash(line: bytes) -> str:
    return hashlib.sha256(line).hexdigest()[:12]


def fingerprint(root: str) -> dict:
    """{command dir/file: {sha256, lines}} of every output file but the
    manifests, for the COMMANDS run in ``root``."""
    out = {}
    for name, args in COMMANDS:
        assert cli.main([*args, "--out", name]) == 0, name
        for file in sorted(os.listdir(os.path.join(root, name))):
            if file == "manifest.json":
                continue
            with open(os.path.join(root, name, file), "rb") as fh:
                data = fh.read()
            out[f"{name}/{file}"] = {
                "sha256": hashlib.sha256(data).hexdigest(),
                "lines": [_line_hash(line)
                          for line in data.splitlines(keepends=True)]}
    return out


def mismatches(got: dict, want: dict) -> list[str]:
    """One line per file that is missing, new or differs, naming the first
    differing line."""
    problems = [f"{f}: not written" for f in want if f not in got]
    problems += [f"{f}: written, but not recorded" for f in got
                 if f not in want]
    for f in sorted(set(got) & set(want)):
        if got[f]["sha256"] == want[f]["sha256"]:
            continue
        a, b = got[f]["lines"], want[f]["lines"]
        line = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y),
                    min(len(a), len(b)))
        problems.append(f"{f}: line {line + 1} differs first ({len(a)} "
                        f"lines, {len(b)} recorded)")
    return problems


def test_outputs_are_byte_identical(tmp_path, monkeypatch):
    """The recorded bytes, as they come out on two usable CPUs: the
    ``ablate`` matrix (45 cells x 60 iterations x 200 rows) trained as two
    halves in two processes, and ``run-overlap`` with its stage overlap,
    the only command whose plan overlaps, as the manifests record."""
    path = os.path.join(GOLDEN_DIR, env_key() + ".json")
    assert os.path.exists(path), (
        f"no golden hashes for this environment ({env_key()}); record them "
        f"with: {RECORD}")
    with open(path) as fh:
        want = json.load(fh)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
    problems = mismatches(fingerprint(str(tmp_path)), want)
    assert not problems, "\n".join(problems)
    plans = {}
    for name in ("run-full", "run-mini", "run-overlap", "ablate", "sweep"):
        with open(os.path.join(name, "manifest.json")) as fh:
            plans[name] = json.load(fh)["plan"]
    one = {"processes": 1, "overlap": False}
    assert plans == {"run-full": one, "run-mini": one, "ablate": {
        "processes": 2, "overlap": False}, "sweep": one,
        "run-overlap": {"processes": 1, "overlap": True}}


def test_outputs_are_strict_json(tmp_path, monkeypatch):
    """Every JSON file the commands write, manifests included, parses as
    strict JSON, without the NaN and Infinity tokens JSON does not have."""
    monkeypatch.chdir(tmp_path)
    for name, args in COMMANDS:
        assert cli.main([*args, "--out", name]) == 0, name
    paths = sorted(tmp_path.glob("*/*.json"))
    assert {p.parent.name for p in paths} == {name for name, _ in COMMANDS}
    for path in paths:
        reference.read_json(path)


def test_mismatch_names_file_and_first_differing_line():
    want = {"a/x.csv": {"sha256": "0", "lines": ["h1", "h2", "h3"]},
            "a/gone.json": {"sha256": "1", "lines": []}}
    got = {"a/x.csv": {"sha256": "2", "lines": ["h1", "h9", "h3", "h4"]},
           "a/new.json": {"sha256": "3", "lines": []}}
    assert mismatches(got, want) == [
        "a/gone.json: not written", "a/new.json: written, but not recorded",
        "a/x.csv: line 2 differs first (4 lines, 3 recorded)"]


def rerecorded(got: dict, want: dict, names: list[str]) -> dict:
    """The record ``want`` with the entries ``names`` taken from ``got``;
    ValueError, naming each problem, for a name that is not a file of
    ``got`` or when any other file is missing, new or differs."""
    problems = [f"{f}: not a golden file" for f in names if f not in got]
    problems += mismatches(
        {f: h for f, h in got.items() if f not in names},
        {f: h for f, h in want.items() if f not in names})
    if problems:
        raise ValueError("\n".join(problems))
    return {**want, **{f: got[f] for f in names}}


def test_rerecord_takes_only_the_named_files():
    want = {"a/x.csv": {"sha256": "0", "lines": ["h1"]},
            "a/y.json": {"sha256": "1", "lines": ["h2"]}}
    got = {"a/x.csv": {"sha256": "2", "lines": ["h3"]},
           "a/y.json": {"sha256": "1", "lines": ["h2"]}}
    assert rerecorded(got, want, ["a/x.csv"]) == got
    assert rerecorded(want, want, []) == want
    with pytest.raises(ValueError, match="^a/x.csv: line 1 differs first"):
        rerecorded(got, want, ["a/y.json"])
    with pytest.raises(ValueError, match="^a/z.csv: not a golden file$"):
        rerecorded(got, want, ["a/x.csv", "a/z.csv"])


def record(names: list[str]):
    """Write the record of this environment: every file, or with ``names``
    only those, refused (exit 1) unless every other file keeps its
    recorded hash."""
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    path = os.path.join(GOLDEN_DIR, env_key() + ".json")
    with tempfile.TemporaryDirectory() as tmp:
        here = os.getcwd()
        os.chdir(tmp)
        try:
            hashes = fingerprint(tmp)
        finally:
            os.chdir(here)
    if names:
        with open(path) as fh:
            recorded = json.load(fh)
        try:
            hashes = rerecorded(hashes, recorded, names)
        except ValueError as e:
            return f"nothing recorded:\n{e}"
    with open(path, "w") as fh:
        json.dump(hashes, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(names) or len(hashes)} files in {path}")


if __name__ == "__main__":
    sys.exit(record(sys.argv[1:]))
