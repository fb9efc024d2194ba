"""Synthetic two-domain classification data with controllable corruption.

A bundle holds four splits: ``pretrain`` drawn from the source domain and
``train``/``val``/``test`` drawn from the target domain.  Classes are
Gaussian blobs; the target domain is the source domain translated by
``shift`` along the unit diagonal, so domain gap is a single dial.
Corruption (label flips or feature displacement) applies to a chosen
fraction of pretraining examples only, and each corrupted example is
flagged, which is what lets the experiment layer score how well the learned
ignoring weights recover the corrupted subset.

A bundle is arrays, the one form every stage reads: each split is a
``Split`` of features ``X`` (float64, n x dim) and labels ``y`` (int64, n),
and ``corrupted`` is a bool vector over the pretrain rows.  The domain of a
row follows from its split.

Generation is pure: the same spec always yields the same bundle, with
independent child seeds per split so changing one split size does not
perturb the others.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import warnings
from dataclasses import dataclass, fields
from typing import NoReturn

import numpy as np

from . import config
from .errors import ConfigError, ParseError

SPLITS = ("pretrain", "train", "val", "test")

# How far feature_shift displaces an example, in units of noise_sigma.
FEATURE_SHIFT_SIGMAS = 4.0


@dataclass(eq=False)
class Split:
    """One split: features ``X`` (float64, n x dim) and labels ``y`` (int64, n)."""

    X: np.ndarray
    y: np.ndarray

    @property
    def n(self) -> int:
        return self.X.shape[0]


@dataclass(eq=False)
class DatasetBundle:
    pretrain: Split
    train: Split
    val: Split
    test: Split
    dim: int
    classes: int
    corrupted: np.ndarray  # bool flags over the pretrain rows

    def splits(self) -> dict[str, Split]:
        return {name: getattr(self, name) for name in SPLITS}

    def validate(self):
        """Check structural invariants; raises ValueError naming the split
        and its first bad row."""
        for name, split in self.splits().items():
            X, y = split.X, split.y
            if (X.dtype != np.float64 or X.ndim != 2 or y.dtype != np.int64
                    or y.shape != X.shape[:1]):
                raise ValueError(f"{name} needs float64 X (n, dim) and int64 "
                                 f"y (n,), got {X.dtype} {X.shape} and "
                                 f"{y.dtype} {y.shape}")
            if X.shape[1] != self.dim:
                raise ValueError(
                    f"{name}[0] has {X.shape[1]} features, expected {self.dim}"
                )
            finite = np.isfinite(X)
            if not finite.all():
                # The first bad entry, row-major, lies in the first bad row.
                i = np.flatnonzero(~finite)[0] // self.dim
                raise ValueError(f"{name}[{i}] has non-finite features")
            bad = np.flatnonzero((y < 0) | (y >= self.classes))
            if bad.size:
                i = bad[0]
                raise ValueError(
                    f"{name}[{i}] label {y[i]} outside 0..{self.classes - 1}"
                )
        flags, n = self.corrupted, self.pretrain.n
        if flags.dtype != np.bool_ or flags.ndim != 1:
            raise ValueError("corrupted must be a 1-D bool array")
        if flags[n:].any():
            i = n + int(flags[n:].argmax())
            raise ValueError(
                f"corrupted example outside pretrain: flag {i} is set, "
                f"pretrain has {n} rows"
            )
        k = flags.shape[0]
        if k != n:
            raise ValueError(f"corrupted has {k} flags, pretrain has {n} rows: "
                             + (f"pretrain[{k}] has no flag" if k < n
                                else f"flag {n} has no pretrain row"))

    def __eq__(self, other):
        if not isinstance(other, DatasetBundle):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.classes == other.classes
            and _same(self.corrupted, other.corrupted)
            and all(
                _same(a.X, b.X) and _same(a.y, b.y)
                for a, b in zip(self.splits().values(),
                                other.splits().values())
            )
        )


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


def _default_class_means(dim: int, classes: int) -> np.ndarray:
    """One mean per class: 2.0 along axis c % dim, scaled up on reuse."""
    means = np.zeros((classes, dim))
    for c in range(classes):
        means[c, c % dim] = 2.0 * (1.0 + c // dim)
    return means


def _shift_axis(dim: int) -> np.ndarray:
    return np.ones(dim) / math.sqrt(dim)


_DEFAULTS = config.defaults("data")


@dataclass
class SynthSpec:
    """Recipe for one synthetic bundle."""

    dim: int
    classes: int
    n_pretrain: int
    n_train: int
    n_val: int
    n_test: int
    shift: float = _DEFAULTS["shift"]
    noise_sigma: float = _DEFAULTS["noise_sigma"]
    corrupt_frac: float = _DEFAULTS["corrupt_frac"]
    corrupt_kind: str = _DEFAULTS["corrupt_kind"]
    seed: int = _DEFAULTS["seed"]
    source_means: tuple | None = _DEFAULTS["source_means"]

    def __post_init__(self):
        # Canonical nested-tuple form so specs compare by value.
        if self.source_means is not None:
            m = np.asarray(self.source_means, dtype=np.float64)
            self.source_means = tuple(
                tuple(float(v) for v in row) for row in np.atleast_2d(m)
            )

    def validate(self):
        """ConfigError unless every field has its type and passes its check
        in the ``data`` table of ``config``, and the means fit the sizes."""
        config.read_section("data", vars(self), loose=False)
        if (self.source_means is not None
                and np.shape(self.source_means) != (self.classes, self.dim)):
            raise ConfigError(
                f"data.source_means has shape {np.shape(self.source_means)}, "
                f"expected ({self.classes}, {self.dim})"
            )

    def resolved_source_means(self) -> np.ndarray:
        if self.source_means is not None:
            return np.asarray(self.source_means, dtype=np.float64)
        return _default_class_means(self.dim, self.classes)

    def target_means(self) -> np.ndarray:
        return self.resolved_source_means() + self.shift * _shift_axis(self.dim)

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        if self.source_means is None:
            del d["source_means"]
        else:
            d["source_means"] = np.asarray(self.source_means).tolist()
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "SynthSpec":
        """Build from a plain mapping, read by the ``data`` table of
        ``config``; keys that only CSV data takes are unknown here."""
        names = {f.name for f in fields(cls)}
        spec = cls(**config.read_section("data", d, keys=names))
        spec.validate()
        return spec


def _draw_split(rng: np.random.Generator, means: np.ndarray, n: int,
                sigma: float) -> Split:
    classes, dim = means.shape
    # Balanced labels: cycle through classes, then shuffle the assignment.
    labels = rng.permutation(np.arange(n, dtype=np.int64) % classes)
    X = means[labels] + sigma * rng.standard_normal((n, dim))
    return Split(X, labels)


def generate(spec: SynthSpec) -> DatasetBundle:
    """Sample the bundle a SynthSpec describes.  Pure: same inputs, same bundle."""
    spec.validate()
    root = np.random.SeedSequence(spec.seed)
    seeds = root.spawn(5)
    src = spec.resolved_source_means()
    tgt = spec.target_means()
    pretrain = _draw_split(np.random.default_rng(seeds[0]), src,
                           spec.n_pretrain, spec.noise_sigma)
    train, val, test = (
        _draw_split(np.random.default_rng(seed), tgt, n, spec.noise_sigma)
        for seed, n in zip(seeds[1:4], (spec.n_train, spec.n_val, spec.n_test))
    )

    corrupted = np.zeros(spec.n_pretrain, dtype=bool)
    n_corrupt = int(round(spec.corrupt_frac * spec.n_pretrain))
    if n_corrupt > 0:
        crng = np.random.default_rng(seeds[4])
        picked = np.sort(crng.choice(spec.n_pretrain, size=n_corrupt, replace=False))
        corrupted[picked] = True
        if spec.corrupt_kind == "label_flip":
            # Uniform over the other classes; for two classes this is
            # deterministic given the pick.
            offset = 1 + crng.integers(spec.classes - 1, size=n_corrupt)
            pretrain.y[picked] = (pretrain.y[picked] + offset) % spec.classes
        else:
            axis = _shift_axis(spec.dim)
            pretrain.X[picked] -= FEATURE_SHIFT_SIGMAS * spec.noise_sigma * axis

    bundle = DatasetBundle(pretrain, train, val, test, spec.dim, spec.classes,
                           corrupted)
    bundle.validate()
    return bundle


def split_ratio(X: np.ndarray, y: np.ndarray, is_source: np.ndarray,
                ratios: tuple[float, float, float], seed: int) -> DatasetBundle:
    """Split a mixed pool of rows ``X``/``y``: rows flagged ``is_source``
    become pretrain (in pool order), the others are shuffled and divided into
    train/val/test by the three ratios.

    Ratios must sum to 1 (tolerance 1e-9).  Counts use floor plus
    largest-remainder so they add up exactly.  An empty train, val, or test
    split is a configuration error; an empty pretrain is allowed.
    """
    if len(ratios) != 3:
        raise ConfigError(f"need 3 ratios, got {len(ratios)}")
    if any(r < 0 for r in ratios):
        raise ConfigError(f"ratios must be nonnegative, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ConfigError(f"ratios must sum to 1, got sum={sum(ratios)!r}")
    X = np.asarray(X, dtype=np.float64)
    y, is_source = np.asarray(y), np.asarray(is_source)
    if X.ndim != 2 or y.shape != (X.shape[0],) or is_source.shape != y.shape:
        raise ConfigError(
            f"pool needs X (n, dim) with n labels and n source flags, got "
            f"{X.shape}, {y.shape} and {is_source.shape}"
        )
    if X.shape[0] == 0:
        raise ConfigError("empty example pool")
    with np.errstate(invalid="ignore"):  # casts read 1.5 as 1, 0.5 as True
        labels, flags = y.astype(np.int64), is_source.astype(bool)
    for name, values, bad, what in (
            ("label", y, (labels != y) | (labels < 0), "a nonnegative integer"),
            ("is_source", is_source, flags != is_source, "true or false")):
        if bad.any():
            i = int(bad.argmax())
            raise ConfigError(f"pool row {i}: {name} {values[i]} is not {what}")
    y, is_source = labels, flags
    classes = int(y.max()) + 1
    if classes < 2:
        raise ConfigError("pool must contain at least two classes")

    target = ~is_source
    n = int(target.sum())
    exact = [r * n for r in ratios]
    counts = [int(math.floor(e)) for e in exact]
    remainder = n - sum(counts)
    by_frac = sorted(range(3), key=lambda i: (-(exact[i] - counts[i]), i))
    for i in by_frac[:remainder]:
        counts[i] += 1
    if any(c == 0 for c in counts):
        raise ConfigError(
            f"ratios {ratios} leave an empty target split for {n} target examples"
        )

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    order = rng.permutation(n)
    Xt, yt = X[target][order], y[target][order]
    cuts = np.cumsum(counts)[:2]
    train, val, test = (Split(Xs, ys) for Xs, ys in
                        zip(np.split(Xt, cuts), np.split(yt, cuts)))

    pretrain = Split(X[is_source], y[is_source])
    bundle = DatasetBundle(pretrain, train, val, test, X.shape[1], classes,
                           np.zeros(pretrain.n, dtype=bool))
    bundle.validate()
    return bundle


@contextlib.contextmanager
def atomic_open(path, newline=None):
    """A text file for writing that replaces ``path`` only once the block
    ends without an exception: it is written as ``<path>.tmp.<pid>`` and
    renamed.  On an exception the temp file is removed and ``path`` keeps
    its old content."""
    tmp = f"{os.fspath(path)}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def sidecar_path(path) -> str:
    return os.fspath(path) + ".manifest.json"


def save_csv(bundle: DatasetBundle, path: str, spec: SynthSpec | None = None):
    """Write the bundle as CSV plus a sidecar JSON manifest.

    CSV columns are ``split,label,f_0..f_{dim-1}`` with floats at 17
    significant digits so a load reproduces values bit-for-bit.  The sidecar
    records split sizes and the indices of corrupted pretraining examples
    (the CSV itself carries no corruption column), plus the generating spec
    when one is supplied.
    """
    header = ["split", "label"] + [f"f_{j}" for j in range(bundle.dim)]
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for name, split in bundle.splits().items():
            # Row by row, so no list holds every value as a Python float.
            for label, row in zip(split.y.tolist(), split.X):
                writer.writerow([name, label,
                                 *(format(v, ".17g") for v in row.tolist())])

    manifest = {
        "format_version": 1,
        "dim": bundle.dim,
        "classes": bundle.classes,
        "split_sizes": {name: split.n for name, split in bundle.splits().items()},
        "corrupted_pretrain_indices": np.flatnonzero(bundle.corrupted).tolist(),
    }
    if spec is not None:
        manifest["spec"] = spec.to_dict()
    with atomic_open(sidecar_path(path)) as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass
class CsvSchema:
    """Optional expectations for load_csv; None means infer."""

    dim: int | None = None
    classes: int | None = None


# Sidecar keys that hold JSON integers: one, or an object or list of them.
_SIDECAR_INTS = {"dim": (int, "an integer"), "classes": (int, "an integer"),
                 "split_sizes": (dict, "an object of integers"),
                 "corrupted_pretrain_indices": (list, "a list of integers")}


def _read_sidecar(side: str) -> dict:
    try:
        with open(side) as fh:
            manifest = json.load(fh)
    except OSError as e:
        raise ParseError(f"{side}: cannot read: {e.strerror}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise ParseError(f"{side}: not valid JSON: {e}") from None
    if not isinstance(manifest, dict):
        raise ParseError(f"{side}: expected a JSON object")
    for key, (kind, what) in _SIDECAR_INTS.items():
        value = manifest.get(key, kind())
        items = ([value] if kind is int else [None] if type(value) is not kind
                 else value.values() if kind is dict else value)
        # bool is an int subclass, and numpy reads [true] as a mask.
        if not all(type(i) is int for i in items):
            raise ParseError(f"{side}: {key} must be {what}")
    return manifest


def _undecodable_line(path: str) -> int:
    """The line of ``path`` holding its first byte that is not UTF-8 (the
    text reader decodes in blocks, so its position does not tell).  Lines
    end as the text reader splits them: at "\r\n", "\r" or "\n"."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as e:
        before = data[:e.start]
        return (before.count(b"\n") + before.count(b"\r")
                - before.count(b"\r\n") + 1)
    return 1


def _loadtxt(lines, dtype, **kwargs) -> np.ndarray:
    """np.loadtxt in save_csv's dialect: comma-separated, '"' quotes, no
    comments.  Any warning is an error (numpy versions that only warn would
    cast the label 1.5 to 1), except notes that input or a line is empty
    (no rows; a blank line does not count towards ``max_rows``)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.filterwarnings("ignore", ".*contained no data")
        return np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None,
                          quotechar='"', ndmin=1, **kwargs)


def _read_header(fh, path: str, dim: int | None) -> int:
    """The feature count of save_csv's header, the first line of ``fh``."""
    line = fh.readline()
    if not line:
        raise ParseError(f"{path}: empty file")
    header = _loadtxt([line], object).tolist()
    file_dim = len(header) - 2
    expected = ["split", "label"] + [f"f_{j}" for j in range(file_dim)]
    if len(header) < 3 or header != expected:
        raise ParseError(f"{path} line 1: bad header {header!r}")
    if dim is not None and file_dim != dim:
        raise ParseError(f"{path} line 1: header has {file_dim} features, "
                         f"schema expects {dim}")
    return file_dim


def _no_nul(lines):
    """The lines, failing at a NUL (numpy drops NULs that end a string)."""
    for line in lines:
        if "\0" in line:
            raise ValueError("NUL byte")
        yield line


def _row_dtype(dim: int) -> list:
    """numpy's record of a data row; "U9" holds every split's name whole."""
    return [("split", "U9"), ("label", np.int64), ("X", np.float64, (dim,))]


def _read_table(path: str, dim: int | None):
    """``(dim, [(X, y) per split])`` by one pass of numpy's C parser, the
    one reader of a bundle.  A file it refuses, or with an unknown split, a
    non-finite feature or a NUL byte, raises ``_diagnose``'s ParseError."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            dim = _read_header(fh, path, dim)
            table = _loadtxt(_no_nul(fh), _row_dtype(dim))
    except OSError as e:
        raise ParseError(f"{path}: cannot read: {e.strerror}") from None
    except ParseError:
        raise
    except (ValueError, Warning) as e:  # UnicodeDecodeError too
        _diagnose(path, dim, e)
    names = table["split"]
    bad = ~(np.isin(names, SPLITS) & np.isfinite(table["X"]).all(axis=1))
    if bad.any():
        _diagnose(path, dim, "unknown split or non-finite feature", bad.argmax())
    masks = (names == name for name in SPLITS)
    return dim, [(table["X"][m], table["label"][m]) for m in masks]


# The most characters of a field that a ParseError quotes.
QUOTE_CHARS = 40


def _quoted(field: str) -> str:
    """The field's repr, or for a long one that of its first QUOTE_CHARS
    characters and its length."""
    if len(field) <= QUOTE_CHARS:
        return repr(field)
    return f"{field[:QUOTE_CHARS]!r}... ({len(field)} characters)"


def _fault(record: list[str], fields: np.ndarray, dim: int) -> str | None:
    """Why the lines ``record``, which numpy splits into ``fields``, are no
    save_csv row by numpy's reading, or None when they are one."""
    if len(fields) != dim + 2:
        return f"expected {dim + 2} fields, got {len(fields)}"
    if fields[0] not in SPLITS:
        return f"unknown split {_quoted(fields[0])}"
    label = f"bad label {_quoted(fields[1])}"
    for dtype, cols, fault in ((np.int64, 1, label),
                               (np.float64, range(2, dim + 2),
                                "bad feature value")):
        try:
            values = _loadtxt(record, dtype, usecols=cols)
        except (ValueError, Warning):
            return fault
    if not np.isfinite(values).all():
        return "non-finite feature value"
    return None


def _diagnose(path: str, dim: int, refusal, start: int = 0) -> NoReturn:
    """Name what ``_read_table`` refused: raise the ParseError of the first
    row at fault (``_fault``) by the line it starts on (numpy splits the
    rows one at a time, as a quoted field may span lines) or, when no row
    is, of ``refusal``, numpy's objection to the whole file.  The first
    ``start`` rows, which numpy read and the checks passed, are skipped.
    Each row is read once as ``_read_table`` reads it, and only a row that
    does not pass is read again, by ``_fault``, to word its fault."""
    record = []  # (line number, line) of each line of the row numpy reads

    def numbered(fh):
        for item in enumerate(fh, start=2):
            record.append(item)
            yield item[1]

    try:
        with open(path, newline="", encoding="utf-8") as fh:
            fh.readline()  # the header, which _read_table has read
            lines = numbered(fh)
            _loadtxt(lines, object, max_rows=start, usecols=0)
            dtype = _row_dtype(dim)
            while True:
                record.clear()
                try:
                    row = _loadtxt(lines, dtype, max_rows=1)
                except UnicodeDecodeError:
                    raise
                except (ValueError, Warning):
                    passes = False
                else:
                    if not row.size:
                        break
                    passes = (row["split"][0] in SPLITS
                              and np.isfinite(row["X"]).all())
                # The record drops the NULs that end a split name.
                if passes and not any("\0" in line for _, line in record):
                    continue
                text = [line for _, line in record]
                fault = _fault(text, _loadtxt(text, object), dim)
                if fault is not None:
                    # numpy skips the blank lines before a row.
                    first = next(n for n, line in record if line.strip("\r\n"))
                    raise ParseError(f"{path} line {first}: {fault}")
    except UnicodeDecodeError:
        raise ParseError(f"{path} line {_undecodable_line(path)}: not "
                         "UTF-8 text") from None
    raise ParseError(f"{path}: {refusal}")


def load_csv(path: str, schema: CsvSchema | None = None) -> DatasetBundle:
    """Read a bundle written by save_csv.

    The sidecar manifest, when present next to the CSV, restores the
    corruption flags and the class count; without it all flags are False
    and the class count is one past the largest label.  A sidecar whose
    feature count, split sizes or class count disagrees with the CSV, or
    that holds other than integers there, raises ParseError, because its
    corruption indices would then point at the wrong examples; so does an
    empty train, val or test split (the pretrain split may be empty).  numpy's
    parser reads the rows and defines the dialect.  A row it refuses, and
    feature text that parses to nan or inf, raises ParseError naming the
    line, as do bytes that are not UTF-8 text and NUL bytes.
    """
    schema = schema or CsvSchema()
    dim, parts = _read_table(path, schema.dim)
    labels = np.concatenate([y for _, y in parts])
    if not labels.size:
        raise ParseError(f"{path}: no data rows")
    sizes = {name: len(y) for name, (_, y) in zip(SPLITS, parts)}
    for name in SPLITS[1:]:
        if not sizes[name]:
            raise ParseError(f"{path}: empty {name} split")
    classes = schema.classes

    side = sidecar_path(path)
    manifest = _read_sidecar(side) if os.path.exists(side) else {}
    if "dim" in manifest and manifest["dim"] != dim:
        raise ParseError(f"{side}: sidecar has {manifest['dim']} features, "
                         f"the CSV has {dim}")
    for name, size in manifest.get("split_sizes", {}).items():
        if name not in sizes or size != sizes[name]:
            raise ParseError(f"{side}: sidecar has {size} {name} rows, the "
                             f"CSV has {sizes.get(name, 0)}")
    if "classes" in manifest:
        if classes is not None and manifest["classes"] != classes:
            raise ParseError(f"{side}: sidecar has {manifest['classes']} "
                             f"classes, schema expects {classes}")
        classes = manifest["classes"]
    lo, hi = labels.min(), labels.max()
    classes = int(hi) + 1 if classes is None else classes
    if hi >= classes or lo < 0:
        raise ParseError(f"{path}: label outside 0..{classes - 1} "
                         f"(found {lo}..{hi})")
    corrupted = np.zeros(sizes["pretrain"], dtype=bool)
    for i in manifest.get("corrupted_pretrain_indices", []):
        if not 0 <= i < sizes["pretrain"]:
            raise ParseError(f"{side}: corrupted index {i} outside pretrain "
                             "split")
        corrupted[i] = True

    return DatasetBundle(*(Split(X, y) for X, y in parts), dim, classes,
                         corrupted)
