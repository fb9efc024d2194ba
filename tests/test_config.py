"""The config field tables: every key of every section is typed and checked
in ``lbi.config``, so a value of the wrong type or out of range, or a key
outside the table, is a configuration error (exit 2) naming ``section.key``,
never exit 1 or a traceback.  The README's configuration reference lists
every key of the tables."""

import contextlib
import dataclasses
import io
import math
import os

import pytest
import yaml
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from lbi import cli, config, datasets, engine
from lbi.errors import ConfigError

KEYS = [(section, key) for section, table in config.SECTIONS.items()
        for key in table]
KEYS += [(section, alias) for alias, name in config.ALIASES.items()
         for section, table in config.SECTIONS.items() if name in table]

WORDS = st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1,
                max_size=8).filter(lambda t: t != "none")
MAPPINGS = st.dictionaries(WORDS, st.integers(), min_size=1, max_size=2)


def field(section, key):
    return config.SECTIONS[section][config.ALIASES.get(key, key)]


def bad_values(f):
    """Values that field ``f`` must refuse: the wrong type, or a number
    outside its bounds."""
    kind = f.item if f.kind == "list" else f.kind
    bad = [MAPPINGS, st.lists(MAPPINGS, min_size=1, max_size=2)]
    if f.kind == "list":
        bad.append(st.just([]))
    if not f.null:
        bad.append(st.none())
    if kind in ("int", "float"):
        bad += [WORDS, st.booleans()]
        if kind == "int":
            bad.append(st.floats().filter(lambda x: not float(x).is_integer()))
            if f.low is not None:
                bad.append(st.integers(max_value=f.low - 1))
        elif f.low is not None:
            bad.append(st.floats(max_value=f.low, exclude_max=not f.above,
                                 allow_nan=False))
        if f.high is not None:
            bad.append(st.floats(min_value=f.high, exclude_min=True))
    elif kind == "bool":
        bad += [st.integers(), WORDS]
    elif kind == "choice":
        bad += [st.integers(), WORDS.filter(lambda t: t not in f.choices)]
    elif kind == "path":
        bad += [st.integers(), st.floats(), st.booleans(), st.just("")]
    else:
        assert kind == "table", kind
        bad += [WORDS, st.integers(),
                st.lists(st.floats(allow_nan=False), min_size=1, max_size=3),
                st.just([[1.0, math.inf]])]
    return st.one_of(bad)


def run_cli(*argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["verify", *argv])
    return code, err.getvalue()


@pytest.mark.parametrize("section, key", KEYS)
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(data=st.data())
def test_bad_value_exits_2_naming_key(section, key, data):
    value = data.draw(bad_values(field(section, key)))
    text = yaml.safe_dump(value, default_flow_style=True).strip()
    if text.endswith("\n..."):
        text = text[:-4].strip()
    got = yaml.safe_load(text)
    assert got == value or got != got, (value, text)
    code, err = run_cli("--set", f"{section}.{key}={text}")
    assert code == 2, err
    assert f"{section}.{key}" in err


@settings(max_examples=40, deadline=None)
@given(section=st.sampled_from(sorted(config.SECTIONS)),
       key=st.from_regex(r"[a-z_]{1,12}", fullmatch=True),
       value=st.integers())
@example(section="verify", key="stepp", value=1)
@example(section="run", key="outt", value=1)
@example(section="ablate", key="idz", value=1)
@example(section="sweep", key="seed", value=1)
def test_unknown_key_exits_2_naming_it(section, key, value):
    assume(config.ALIASES.get(key, key) not in config.SECTIONS[section])
    code, err = run_cli("--set", f"{section}.{key}={value}")
    assert code == 2, err
    assert f"unknown config key {section}.{key}" in err


# The configs built in code, each with a valid instance of it: every field
# is a key of its table.
BUILT = {"lbi": (engine.LbiConfig, engine.LbiConfig()),
         "data": (datasets.SynthSpec, datasets.SynthSpec(
             dim=2, classes=2, n_pretrain=4, n_train=2, n_val=2, n_test=2))}
BUILT_FIELDS = [(section, f.name) for section, (cls, _) in BUILT.items()
                for f in dataclasses.fields(cls)]


def typed_only_values(f):
    """Values that a config file or flag may give for field ``f`` but that
    code must not: number text, and integral floats for an integer."""
    if f.kind == "int":
        return st.one_of(st.integers(0, 9).map(str),
                         st.integers(0, 9).map(float))
    if f.kind == "float":
        return st.floats(0, 9).map(repr)
    return st.nothing()


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_objects_built_in_code_take_typed_values_only(data):
    """A config built in code checks every field when it is made, by its
    constructor and by dataclasses.replace, and holds typed values only:
    text and integral floats are read only from config files and flags."""
    for section, key in BUILT_FIELDS:
        f = field(section, key)
        value = data.draw(st.one_of(bad_values(f), typed_only_values(f)),
                          label=f"{section}.{key}")
        cls, valid = BUILT[section]
        with pytest.raises(ConfigError, match=rf"^{section}\.{key} "):
            cls(**{**vars(valid), key: value})
        with pytest.raises(ConfigError, match=rf"^{section}\.{key} "):
            dataclasses.replace(valid, **{key: value})


@pytest.mark.parametrize("section", BUILT)
def test_a_config_cannot_be_changed_in_place(section):
    _, valid = BUILT[section]
    with pytest.raises(dataclasses.FrozenInstanceError):
        valid.seed = 1


def test_typed_values_from_text():
    """A table reads config text and integral floats into the typed values
    that the objects take."""
    assert engine.LbiConfig(**config.read_section(
        "lbi", {"lam": "1e-3", "iterations": 4.0})) \
        == engine.LbiConfig(lam=1e-3, iterations=4)


def test_reference_lists_every_key():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        text = fh.read()
    reference = text.split("\n## Configuration reference", 1)[1]
    reference = reference.split("\n## ", 1)[0]
    for section, table in config.SECTIONS.items():
        assert f"\n### `{section}`" in reference, section
        part = reference.split(f"\n### `{section}`", 1)[1].split("\n### ", 1)[0]
        for key in table:
            assert f"`{key}`" in part, f"{section}.{key}"
