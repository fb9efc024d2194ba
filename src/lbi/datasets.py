"""Synthetic two-domain classification data with controllable corruption.

A bundle holds four splits: ``pretrain`` drawn from the source domain and
``train``/``val``/``test`` drawn from the target domain.  Classes are
Gaussian blobs; the target domain is the source domain translated by
``shift`` along the unit diagonal, so domain gap is a single dial.
Corruption (label flips or feature displacement) applies to a chosen
fraction of pretraining examples only, and each corrupted example is
flagged, which is what lets the experiment layer score how well the learned
ignoring weights recover the corrupted subset.

Generation is pure: the same spec always yields the same bundle, with
independent child seeds per split so changing one split size does not
perturb the others.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, ParseError

DOMAINS = ("source", "target")
SPLITS = ("pretrain", "train", "val", "test")
CORRUPT_KINDS = ("label_flip", "feature_shift")

# How far feature_shift displaces an example, in units of noise_sigma.
FEATURE_SHIFT_SIGMAS = 4.0


@dataclass
class Example:
    features: np.ndarray
    label: int
    domain: str
    corrupted: bool = False

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 1:
            raise ValueError("features must be a 1-D vector")
        if self.domain not in DOMAINS:
            raise ValueError(f"unknown domain {self.domain!r}")

    def __eq__(self, other):
        if not isinstance(other, Example):
            return NotImplemented
        return (
            self.label == other.label
            and self.domain == other.domain
            and self.corrupted == other.corrupted
            and np.array_equal(self.features, other.features)
        )


@dataclass
class DatasetBundle:
    pretrain: list[Example]
    train: list[Example]
    val: list[Example]
    test: list[Example]
    dim: int
    classes: int

    def splits(self) -> dict[str, list[Example]]:
        return {
            "pretrain": self.pretrain,
            "train": self.train,
            "val": self.val,
            "test": self.test,
        }

    def validate(self):
        """Check structural invariants; raises ValueError on violation."""
        for name, examples in self.splits().items():
            for i, ex in enumerate(examples):
                if ex.features.shape != (self.dim,):
                    raise ValueError(
                        f"{name}[{i}] has {ex.features.shape[0]} features, "
                        f"expected {self.dim}"
                    )
                if not np.isfinite(ex.features).all():
                    raise ValueError(f"{name}[{i}] has non-finite features")
                if not 0 <= ex.label < self.classes:
                    raise ValueError(
                        f"{name}[{i}] label {ex.label} outside 0..{self.classes - 1}"
                    )
                if name != "pretrain" and ex.corrupted:
                    raise ValueError(f"corrupted example outside pretrain: {name}[{i}]")

    def __eq__(self, other):
        if not isinstance(other, DatasetBundle):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.classes == other.classes
            and all(
                self.splits()[name] == other.splits()[name] for name in SPLITS
            )
        )


def _default_class_means(dim: int, classes: int) -> np.ndarray:
    """One mean per class: 2.0 along axis c % dim, scaled up on reuse."""
    means = np.zeros((classes, dim))
    for c in range(classes):
        means[c, c % dim] = 2.0 * (1.0 + c // dim)
    return means


def _shift_axis(dim: int) -> np.ndarray:
    return np.ones(dim) / math.sqrt(dim)


@dataclass
class SynthSpec:
    """Recipe for one synthetic bundle."""

    dim: int
    classes: int
    n_pretrain: int
    n_train: int
    n_val: int
    n_test: int
    shift: float = 0.0
    noise_sigma: float = 1.0
    corrupt_frac: float = 0.0
    corrupt_kind: str = "label_flip"
    seed: int = 0
    source_means: tuple | None = field(default=None)

    def __post_init__(self):
        # Canonical nested-tuple form so specs compare by value.
        if self.source_means is not None:
            m = np.asarray(self.source_means, dtype=np.float64)
            self.source_means = tuple(
                tuple(float(v) for v in row) for row in np.atleast_2d(m)
            )

    def validate(self):
        if self.dim < 1:
            raise ConfigError(f"dim must be >= 1, got {self.dim}")
        if self.classes < 2:
            raise ConfigError(f"classes must be >= 2, got {self.classes}")
        for name in ("n_pretrain", "n_train", "n_val", "n_test"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.noise_sigma <= 0:
            raise ConfigError(f"noise_sigma must be > 0, got {self.noise_sigma}")
        if self.shift < 0:
            raise ConfigError(f"shift must be >= 0, got {self.shift}")
        if not 0.0 <= self.corrupt_frac <= 1.0:
            raise ConfigError(
                f"corrupt_frac must be in [0, 1], got {self.corrupt_frac}"
            )
        if self.corrupt_kind not in CORRUPT_KINDS:
            raise ConfigError(f"unknown corrupt_kind {self.corrupt_kind!r}")
        if self.source_means is not None:
            m = np.asarray(self.source_means, dtype=np.float64)
            if m.shape != (self.classes, self.dim):
                raise ConfigError(
                    f"source_means has shape {m.shape}, expected "
                    f"({self.classes}, {self.dim})"
                )

    def resolved_source_means(self) -> np.ndarray:
        if self.source_means is not None:
            return np.asarray(self.source_means, dtype=np.float64)
        return _default_class_means(self.dim, self.classes)

    def target_means(self) -> np.ndarray:
        return self.resolved_source_means() + self.shift * _shift_axis(self.dim)

    def to_dict(self) -> dict:
        d = {
            "dim": self.dim,
            "classes": self.classes,
            "n_pretrain": self.n_pretrain,
            "n_train": self.n_train,
            "n_val": self.n_val,
            "n_test": self.n_test,
            "shift": self.shift,
            "noise_sigma": self.noise_sigma,
            "corrupt_frac": self.corrupt_frac,
            "corrupt_kind": self.corrupt_kind,
            "seed": self.seed,
        }
        if self.source_means is not None:
            d["source_means"] = np.asarray(self.source_means).tolist()
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "SynthSpec":
        known = {
            "dim", "classes", "n_pretrain", "n_train", "n_val", "n_test",
            "shift", "noise_sigma", "corrupt_frac", "corrupt_kind", "seed",
            "source_means",
        }
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown data keys: {sorted(unknown)}")
        kwargs = dict(d)
        if "source_means" in kwargs and kwargs["source_means"] is not None:
            kwargs["source_means"] = np.asarray(kwargs["source_means"], dtype=np.float64)
        spec = cls(**kwargs)
        spec.validate()
        return spec


def _draw_split(rng: np.random.Generator, means: np.ndarray, n: int,
                sigma: float, domain: str) -> list[Example]:
    classes, dim = means.shape
    # Balanced labels: cycle through classes, then shuffle the assignment.
    labels = rng.permutation(np.arange(n) % classes)
    X = means[labels] + sigma * rng.standard_normal((n, dim))
    return [Example(X[i], int(labels[i]), domain) for i in range(n)]


def generate(spec: SynthSpec) -> DatasetBundle:
    """Sample the bundle a SynthSpec describes.  Pure: same inputs, same bundle."""
    spec.validate()
    root = np.random.SeedSequence(spec.seed)
    seeds = root.spawn(5)
    src = spec.resolved_source_means()
    tgt = spec.target_means()
    pretrain = _draw_split(np.random.default_rng(seeds[0]), src,
                           spec.n_pretrain, spec.noise_sigma, "source")
    train = _draw_split(np.random.default_rng(seeds[1]), tgt,
                        spec.n_train, spec.noise_sigma, "target")
    val = _draw_split(np.random.default_rng(seeds[2]), tgt,
                      spec.n_val, spec.noise_sigma, "target")
    test = _draw_split(np.random.default_rng(seeds[3]), tgt,
                       spec.n_test, spec.noise_sigma, "target")

    n_corrupt = int(round(spec.corrupt_frac * spec.n_pretrain))
    if n_corrupt > 0:
        crng = np.random.default_rng(seeds[4])
        picked = np.sort(crng.choice(spec.n_pretrain, size=n_corrupt, replace=False))
        axis = _shift_axis(spec.dim)
        for i in picked:
            ex = pretrain[i]
            if spec.corrupt_kind == "label_flip":
                # Uniform over the other classes; for two classes this is
                # deterministic given the pick.
                offset = 1 + int(crng.integers(spec.classes - 1))
                ex.label = (ex.label + offset) % spec.classes
            else:
                ex.features = ex.features - FEATURE_SHIFT_SIGMAS * spec.noise_sigma * axis
            ex.corrupted = True

    bundle = DatasetBundle(pretrain, train, val, test, spec.dim, spec.classes)
    bundle.validate()
    return bundle


def split_ratio(pool: list[Example], ratios: tuple[float, float, float],
                seed: int) -> DatasetBundle:
    """Split a mixed pool: source examples become pretrain, target examples
    are shuffled and divided into train/val/test by the three ratios.

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
    if not pool:
        raise ConfigError("empty example pool")

    dims = {ex.features.shape[0] for ex in pool}
    if len(dims) != 1:
        raise ConfigError(f"pool mixes feature dims: {sorted(dims)}")
    dim = dims.pop()
    classes = max(ex.label for ex in pool) + 1
    if classes < 2:
        raise ConfigError("pool must contain at least two classes")

    pretrain = [ex for ex in pool if ex.domain == "source"]
    target = [ex for ex in pool if ex.domain == "target"]
    n = len(target)

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
    shuffled = [target[i] for i in order]
    train = shuffled[: counts[0]]
    val = shuffled[counts[0] : counts[0] + counts[1]]
    test = shuffled[counts[0] + counts[1] :]

    bundle = DatasetBundle(pretrain, train, val, test, dim, classes)
    bundle.validate()
    return bundle


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


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
    path = os.fspath(path)
    header = ["split", "label"] + [f"f_{j}" for j in range(bundle.dim)]
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for name in SPLITS:
            for ex in bundle.splits()[name]:
                writer.writerow([name, ex.label] + [_fmt(v) for v in ex.features])
    os.replace(tmp, path)

    manifest = {
        "format_version": 1,
        "dim": bundle.dim,
        "classes": bundle.classes,
        "split_sizes": {name: len(bundle.splits()[name]) for name in SPLITS},
        "corrupted_pretrain_indices": [
            i for i, ex in enumerate(bundle.pretrain) if ex.corrupted
        ],
    }
    if spec is not None:
        manifest["spec"] = spec.to_dict()
    side = sidecar_path(path)
    tmp = f"{side}.tmp.{os.getpid()}"
    with open(tmp, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, side)


@dataclass
class CsvSchema:
    """Optional expectations for load_csv; None means infer."""

    dim: int | None = None
    classes: int | None = None


def _read_sidecar(side: str) -> dict:
    try:
        with open(side) as fh:
            manifest = json.load(fh)
    except json.JSONDecodeError as e:
        raise ParseError(f"{side}: not valid JSON: {e}") from None
    if not isinstance(manifest, dict):
        raise ParseError(f"{side}: expected a JSON object")
    return manifest


def load_csv(path: str, schema: CsvSchema | None = None) -> DatasetBundle:
    """Read a bundle written by save_csv.

    The sidecar manifest, when present next to the CSV, restores the
    corruption flags and the class count; without it all flags are False
    and the class count is one past the largest label.  A sidecar whose
    feature count, split sizes or class count disagrees with the CSV raises
    ParseError, because its corruption indices would then point at the
    wrong examples.  Malformed rows raise ParseError naming the line.
    """
    schema = schema or CsvSchema()
    splits: dict[str, list[Example]] = {name: [] for name in SPLITS}
    dim = schema.dim
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
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
        dim = file_dim
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != dim + 2:
                raise ParseError(
                    f"{path} line {lineno}: expected {dim + 2} fields, got {len(row)}"
                )
            split = row[0]
            if split not in SPLITS:
                raise ParseError(f"{path} line {lineno}: unknown split {split!r}")
            try:
                label = int(row[1])
            except ValueError:
                raise ParseError(
                    f"{path} line {lineno}: bad label {row[1]!r}"
                ) from None
            try:
                feats = np.array([float(v) for v in row[2:]], dtype=np.float64)
            except ValueError:
                raise ParseError(f"{path} line {lineno}: bad feature value") from None
            domain = "source" if split == "pretrain" else "target"
            splits[split].append(Example(feats, label, domain))

    labels = [ex.label for exs in splits.values() for ex in exs]
    if not labels:
        raise ParseError(f"{path}: no data rows")
    classes = schema.classes

    side = sidecar_path(path)
    manifest = _read_sidecar(side) if os.path.exists(side) else {}
    if "dim" in manifest and manifest["dim"] != dim:
        raise ParseError(
            f"{side}: sidecar has {manifest['dim']} features, the CSV has {dim}"
        )
    for name, size in manifest.get("split_sizes", {}).items():
        if name not in splits or size != len(splits[name]):
            raise ParseError(
                f"{side}: sidecar has {size} {name} rows, the CSV has "
                f"{len(splits.get(name, []))}"
            )
    if "classes" in manifest:
        if classes is not None and manifest["classes"] != classes:
            raise ParseError(
                f"{side}: sidecar has {manifest['classes']} classes, schema "
                f"expects {classes}"
            )
        classes = manifest["classes"]
    if classes is None:
        classes = max(labels) + 1
    if max(labels) >= classes or min(labels) < 0:
        raise ParseError(
            f"{path}: label outside 0..{classes - 1} "
            f"(found {min(labels)}..{max(labels)})"
        )
    for i in manifest.get("corrupted_pretrain_indices", []):
        if not 0 <= i < len(splits["pretrain"]):
            raise ParseError(
                f"{side}: corrupted index {i} outside pretrain split"
            )
        splits["pretrain"][i].corrupted = True

    bundle = DatasetBundle(
        splits["pretrain"], splits["train"], splits["val"], splits["test"],
        dim, classes,
    )
    bundle.validate()
    return bundle


def with_seed(spec: SynthSpec, seed: int) -> SynthSpec:
    """Same recipe, different randomness."""
    return replace(spec, seed=seed)
