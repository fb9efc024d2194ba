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
from array import array
from dataclasses import dataclass, fields

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
                                 f"y (n,), got {X.shape} and {y.shape}")
            if X.shape[1] != self.dim:
                raise ValueError(
                    f"{name}[0] has {X.shape[1]} features, expected {self.dim}"
                )
            bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
            if bad.size:
                raise ValueError(f"{name}[{bad[0]}] has non-finite features")
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
    y = np.asarray(y, dtype=np.int64)
    is_source = np.asarray(is_source, dtype=bool)
    if X.ndim != 2 or y.shape != (X.shape[0],) or is_source.shape != y.shape:
        raise ConfigError(
            f"pool needs X (n, dim) with n labels and n source flags, got "
            f"{X.shape}, {y.shape} and {is_source.shape}"
        )
    if X.shape[0] == 0:
        raise ConfigError("empty example pool")
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


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


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
                writer.writerow([name, label, *map(_fmt, row.tolist())])

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
    text reader decodes in blocks, so its position does not tell)."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as e:
        return data.count(b"\n", 0, e.start) + 1
    return 1


def _read_header(reader, path: str, dim: int | None) -> int:
    """The feature count of save_csv's header, which ``reader`` yields first."""
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError(f"{path}: empty file") from None
    file_dim = len(header) - 2
    expected = ["split", "label"] + [f"f_{j}" for j in range(file_dim)]
    if len(header) < 3 or header != expected:
        raise ParseError(f"{path} line 1: bad header {header!r}")
    if dim is not None and file_dim != dim:
        raise ParseError(
            f"{path} line 1: header has {file_dim} features, schema expects {dim}"
        )
    return file_dim


def _read_table(path: str, dim: int | None):
    """``(dim, [(X, y) per split])`` from numpy's C parser, or None where it
    might read the file otherwise than ``_read_rows``, which then decides:
    on what numpy refuses or warns of (no data, or a number it casts), an
    unknown split, a NUL (numpy drops trailing NULs), a line with an odd
    count of quotes, and a field over the csv field limit (any long line
    once a quote is seen, as a quoted field may span lines).  Each number
    numpy reads, float() reads alike, so nan and inf lines are named alike."""
    limit = csv.field_size_limit()

    def checked(lines):
        quoted = 0
        for line in lines:
            quoted += (quotes := line.count('"'))
            if quotes % 2 or "\0" in line or len(line) > limit and (
                    quoted or max(map(len, line.rstrip("\r\n").split(","))) > limit):
                raise ValueError("left to the row reader")
            yield line

    try:
        with open(path, newline="", encoding="utf-8") as fh, \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            dim = _read_header(csv.reader(fh), path, dim)
            table = np.loadtxt(checked(fh), delimiter=",", comments=None,
                               quotechar='"', ndmin=1,
                               dtype=[("split", "U9"), ("label", np.int64),
                                      ("X", np.float64, (dim,))])
    except (OSError, ValueError, csv.Error, Warning):
        return None
    names = table["split"]
    if not np.isin(names, SPLITS).all():
        return None
    masks = (names == name for name in SPLITS)
    return dim, [(table["X"][m], table["label"][m]) for m in masks]


def _read_rows(path: str, dim: int | None):
    """``(dim, [(X, y) per split])`` by the csv module, row by row: this
    defines the dialect and each line-numbered ParseError.  Labels stay
    Python ints (object arrays), as load_csv checks them before int64."""
    # Per split: features packed as doubles (Python floats would take four
    # times the memory) and labels, made arrays after the loop.
    rows = {name: (array("d"), []) for name in SPLITS}
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as e:
        raise ParseError(f"{path}: cannot read: {e.strerror}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            dim = _read_header(reader, path, dim)
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != dim + 2:
                    raise ParseError(
                        f"{path} line {lineno}: expected {dim + 2} fields, got {len(row)}"
                    )
                split = rows.get(row[0])
                if split is None:
                    raise ParseError(f"{path} line {lineno}: unknown split {row[0]!r}")
                try:
                    label = int(row[1])
                except ValueError:
                    raise ParseError(
                        f"{path} line {lineno}: bad label {row[1]!r}"
                    ) from None
                try:
                    split[0].extend(map(float, row[2:]))
                except ValueError:
                    raise ParseError(f"{path} line {lineno}: bad feature value") from None
                split[1].append(label)
        except UnicodeDecodeError:
            raise ParseError(f"{path} line {_undecodable_line(path)}: not "
                             "UTF-8 text") from None
        except csv.Error as e:
            raise ParseError(f"{path} line {reader.line_num}: {e}") from None
    return dim, [(np.frombuffer(xs, dtype=np.float64).reshape(len(ys), dim),
                  np.array(ys, dtype=object)) for xs, ys in rows.values()]


def load_csv(path: str, schema: CsvSchema | None = None) -> DatasetBundle:
    """Read a bundle written by save_csv.

    The sidecar manifest, when present next to the CSV, restores the
    corruption flags and the class count; without it all flags are False
    and the class count is one past the largest label.  A sidecar whose
    feature count, split sizes or class count disagrees with the CSV, or
    that holds other than integers there, raises ParseError, because its
    corruption indices would then point at the wrong examples.  Malformed
    rows, including feature text that parses to nan or inf, raise
    ParseError naming the line, as do bytes that are not UTF-8 text and NUL
    bytes.  numpy parses the rows; where it might differ, the csv module.
    """
    schema = schema or CsvSchema()
    dim, parts = _read_table(path, schema.dim) or _read_rows(path, schema.dim)
    labels = np.concatenate([y for _, y in parts])
    if not labels.size:
        raise ParseError(f"{path}: no data rows")
    sizes = {name: len(y) for name, (_, y) in zip(SPLITS, parts)}
    classes = schema.classes

    side = sidecar_path(path)
    manifest = _read_sidecar(side) if os.path.exists(side) else {}
    if "dim" in manifest and manifest["dim"] != dim:
        raise ParseError(
            f"{side}: sidecar has {manifest['dim']} features, the CSV has {dim}"
        )
    for name, size in manifest.get("split_sizes", {}).items():
        if name not in sizes or size != sizes[name]:
            raise ParseError(
                f"{side}: sidecar has {size} {name} rows, the CSV has "
                f"{sizes.get(name, 0)}"
            )
    if "classes" in manifest:
        if classes is not None and manifest["classes"] != classes:
            raise ParseError(
                f"{side}: sidecar has {manifest['classes']} classes, schema "
                f"expects {classes}"
            )
        classes = manifest["classes"]
    lo, hi = labels.min(), labels.max()
    if classes is None:  # the row reader's labels may pass int64
        classes = min(int(hi), np.iinfo(np.int64).max) + 1
    if hi >= classes or lo < 0:
        raise ParseError(
            f"{path}: label outside 0..{classes - 1} (found {lo}..{hi})"
        )
    corrupted = np.zeros(sizes["pretrain"], dtype=bool)
    for i in manifest.get("corrupted_pretrain_indices", []):
        if not 0 <= i < sizes["pretrain"]:
            raise ParseError(
                f"{side}: corrupted index {i} outside pretrain split"
            )
        corrupted[i] = True

    splits = [Split(X, np.asarray(y, dtype=np.int64)) for X, y in parts]
    bundle = DatasetBundle(*splits, dim, classes, corrupted)
    try:
        bundle.validate()
    except ValueError:
        # float() reads "nan" and "inf"; name the first such line.
        lineno = _first_non_finite_line(path)
        if lineno is None:
            raise
        raise ParseError(f"{path} line {lineno}: non-finite feature value") from None
    return bundle


def _first_non_finite_line(path: str) -> int | None:
    """Line number of the first data row of a parsed CSV with a non-finite
    feature, or None."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for lineno, row in enumerate(reader, start=2):
            if row and not all(math.isfinite(float(v)) for v in row[2:]):
                return lineno
    return None
