"""Configuration: one field table per config section.

Every key a section takes is one row of its table: the field's name, kind,
default and check.  Kinds: ``int`` (integral values only, no bools; integer
text allowed), ``float`` (finite; numeric text allowed, since YAML leaves
7e-3 as text), ``bool``, ``choice``, ``path`` (a non-empty string),
``table`` (rows of finite numbers) and ``list`` (a list of ``item`` values,
one value, or a comma-separated string of them).  An unknown key or a value
of the wrong kind is a ConfigError naming ``section.key``.

The configs built in code, ``engine.LbiConfig`` (the ``lbi`` table) and
``datasets.SynthSpec`` (``data``), are frozen dataclasses that check every
field against their table when they are made (``read_section`` with
``loose=False``).  So a config that exists is valid, a changed copy from
``dataclasses.replace`` is checked as it is made, and no code that takes
one checks it again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

MODES = ("basic", "extended")
IGNORE_MODES = ("clamp", "sigmoid")
CORRUPT_KINDS = ("label_flip", "feature_shift")
ABLATION_IDS = ("A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8", "FULL")
SWEEP_PARAMS = ("lambda", "gamma")

# Alternative spellings of a key, in any section that has the field.
ALIASES = {"lambda": "lam"}


@dataclass(frozen=True)
class Field:
    name: str
    kind: str
    default: object = None
    low: float | None = None    # numbers are >= low,
    above: bool = False         # or > low when set,
    high: float | None = None   # and <= high
    choices: tuple = ()
    item: str | None = None     # the kind of a list's values
    null: bool = False          # None (or the text "none") is a value too


SECTIONS: dict[str, dict[str, Field]] = {
    section: {f.name: f for f in rows} for section, rows in {
        "lbi": (
            Field("lam", "float", 3e-3, low=0),
            Field("gamma", "float", 1.0, low=0),
            Field("lr_pretrain_encoder", "float", 1e-3, low=0),
            Field("lr_pretrain_head", "float", 1e-2, low=0),
            Field("lr_finetune_encoder", "float", 1e-3, low=0),
            Field("lr_finetune_head", "float", 1e-2, low=0),
            Field("lr_ignore_pretrain", "float", 0.05, low=0),
            Field("lr_ignore_finetune", "float", 0.05, low=0),
            Field("iterations", "int", 300, low=0),
            Field("mode", "choice", "extended", choices=MODES),
            Field("ignore_mode", "choice", "clamp", choices=IGNORE_MODES),
            Field("hidden", "int", 0, low=0),
            Field("seed", "int", 0, low=0),
            Field("weight_decay", "float", 0.0, low=0),
            Field("step_decay", "bool", False),
            Field("batch_size", "int", None, low=1, null=True),
            Field("freeze_ignore_pretrain", "bool", False),
            Field("freeze_ignore_finetune", "bool", False),
        ),
        # kind defaults to csv when path is set, else synth.  A CSV's dim
        # and classes are read from the file unless given.
        "data": (
            Field("kind", "choice", choices=("synth", "csv")),
            Field("path", "path"),
            Field("dim", "int", 5, low=1),
            Field("classes", "int", 2, low=2),
            Field("n_pretrain", "int", 200, low=1),
            Field("n_train", "int", 60, low=1),
            Field("n_val", "int", 40, low=1),
            Field("n_test", "int", 400, low=1),
            Field("shift", "float", 0.0, low=0),
            Field("noise_sigma", "float", 1.0, low=0, above=True),
            Field("corrupt_frac", "float", 0.0, low=0, high=1),
            Field("corrupt_kind", "choice", "label_flip", choices=CORRUPT_KINDS),
            Field("seed", "int", 0, low=0),
            Field("source_means", "table", null=True),
        ),
        "run": (Field("out", "path"), Field("resume", "path")),
        # The instance keys (dim .. gamma) default to a random draw per seed.
        "verify": (
            Field("step", "float", 1e-4, low=0, above=True),
            Field("threshold", "float", 1e-4, low=0, above=True),
            Field("seeds", "list", (0,), item="int", low=0),
            Field("dim", "int", low=1),
            Field("classes", "int", low=2),
            Field("n_pretrain", "int", low=1),
            Field("n_train", "int", low=1),
            Field("n_val", "int", low=1),
            Field("lam", "float", low=0),
            Field("gamma", "float", low=0),
        ),
        "ablate": (
            Field("ids", "list", ABLATION_IDS, item="choice",
                  choices=ABLATION_IDS),
            Field("seeds", "list", (0, 1, 2, 3, 4), item="int", low=0),
        ),
        "sweep": (
            Field("param", "choice", choices=SWEEP_PARAMS),
            Field("grid", "list", item="float", low=0),
            Field("seeds", "list", (0, 1, 2, 3, 4), item="int", low=0),
        ),
        "eval": (Field("state", "path"),),
    }.items()
}

_NOUNS = {"int": ("an integer", "integers"),
          "float": ("a finite number", "finite numbers"),
          "bool": ("true or false", None), "path": ("a path string", None),
          "table": ("a table of finite numbers (a list of rows)", None)}
_TYPES = {"int": (int, np.integer),
          "float": (int, float, np.integer, np.floating)}


def _describe(f: Field) -> str:
    """What a field takes, as its error messages say it."""
    many = f.kind == "list"
    kind = f.item if many else f.kind
    if kind == "choice":
        text = ("one or more of " if many else "one of ") + ", ".join(f.choices)
    else:
        text = "one or more " + _NOUNS[kind][1] if many else _NOUNS[kind][0]
    if f.high is not None:
        text += f" in [{f.low}, {f.high}]"
    elif f.low is not None:
        text += f" {'>' if f.above else '>='} {f.low}"
    return text + (", or none" if f.null else "")


def _scalar(f: Field, kind: str, v, loose: bool):
    if kind in _TYPES:
        if isinstance(v, bool) or not (loose or isinstance(v, _TYPES[kind])):
            raise TypeError(v)
        out = float(v) if kind == "float" else int(v)
        if ((kind == "int" and not isinstance(v, str) and out != v)
                or kind == "float" and not math.isfinite(out)
                or f.low is not None and (out < f.low or f.above and out == f.low)
                or f.high is not None and out > f.high):
            raise ValueError(v)
        return out
    if kind == "table":
        m = np.asarray(v, dtype=np.float64)
        if (not isinstance(v, (list, tuple)) or m.ndim != 2 or not m.size
                or not np.isfinite(m).all()):
            raise ValueError(v)
        return m
    if not (kind == "bool" and isinstance(v, bool)
            or kind == "choice" and v in f.choices
            or kind == "path" and isinstance(v, str) and v):
        raise ValueError(v)
    return v


def _value(f: Field, v, label: str, loose: bool = True):
    """``v`` as field ``f`` takes it, or ConfigError naming ``label``.
    ``loose`` also takes number text and integral floats, as YAML and flags
    give them; else the value must already have the field's type."""
    if f.null and (v is None or loose and v in ("none", "None")):
        return None
    try:
        if f.kind != "list":
            return _scalar(f, f.kind, v, loose)
        items = (v.split(",") if isinstance(v, str)
                 else v if isinstance(v, (list, tuple, np.ndarray)) else [v])
        if len(items) == 0:
            raise ValueError(v)
        return [_scalar(f, f.item, x, loose) for x in items]
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{label} must be {_describe(f)}, got {v!r}") from None


def read_section(section: str, raw, loose: bool = True) -> dict:
    """Typed values of the keys a config section gives, by field name (an
    alias becomes its field).  ConfigError for a section that is not a
    mapping, and for a key outside the table.  With ``loose=False`` (objects
    built in code) values must have their field's type already: no number
    text and no integral floats for integers."""
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ConfigError(
            f"config section {section!r} must be a mapping, got {raw!r}")
    table, out = SECTIONS[section], {}
    for key, v in raw.items():
        name = ALIASES.get(key, key)
        if name not in table:
            raise ConfigError(f"unknown config key {section}.{key} "
                              f"(known: {', '.join(table)})")
        out[name] = _value(table[name], v, f"{section}.{key}", loose)
    return out


def read_config(raw: dict) -> dict[str, dict]:
    """Every section of a parsed config as typed values (absent sections
    empty), or ConfigError naming the first bad section or key."""
    for section in raw:
        if section not in SECTIONS:
            raise ConfigError(f"unknown config section {section!r} "
                              f"(known: {', '.join(SECTIONS)})")
    return {s: read_section(s, raw.get(s)) for s in SECTIONS}


def read_flag(section: str, key: str, v, label: str):
    """A command-line flag's value for ``section.key``; errors name ``label``."""
    return _value(SECTIONS[section][key], v, label)


def defaults(section: str) -> dict:
    return {key: f.default for key, f in SECTIONS[section].items()}
