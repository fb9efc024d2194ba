"""Three-stage training engine with learned per-example ignoring weights.

Each iteration performs one step of three coupled optimizations:

1. Pretraining: the pretraining model (encoder V, head J) takes a gradient
   step on the ignoring-weighted loss sum over pretraining examples.  The
   weight a_i of example i is learned, not fixed.
2. Finetuning: the finetuned model (encoder W, head H) takes a gradient step
   on the target training loss plus a proximity penalty lam * ||W - V'||^2
   that ties its encoder to the freshly pretrained one.  In extended mode the
   objective also includes gamma times a second ignoring-weighted loss over
   the pretraining examples, with its own learned weights b_i, evaluated
   under the finetuned model.
3. Ignoring update: each raw ignoring score moves along the exact gradient of
   the validation loss evaluated at the looked-ahead finetuned model
   (W', H'), differentiated through the two steps above.

The hypergradients are closed-form because one step of SGD is a
differentiable map.  For the pretraining weights the only path to the
validation loss runs through V' and the proximity term, giving

    dL_val/da_i = -2 xi_V xi_W lam < g_i(V), g_val(W') >   (encoder blocks)

where g_i(V) is example i's loss gradient at the current pretraining encoder
and g_val(W') is the validation loss gradient at the looked-ahead finetuned
encoder.  The head J' never feeds the validation loss, so heads contribute
nothing.  For the finetuning weights both blocks contribute:

    dL_val/db_i = -gamma ( xi_W < g_i(W)|enc, g_val(W')|enc >
                         + xi_H < g_i(W)|head, g_val(H')|head > ).

Neither hypergradient forms the per-example gradients g_i: each inner
product is contracted straight from the softmax residual of the forward
pass that the gradient step already made (see ``model.encoder_dots``).  An
iteration runs one forward pass per (model, split) pair and shares it among
the gradient step, the hypergradient and the trace loss.

Raw scores map to effective weights in one of two modes.  ``clamp`` uses
identity with clipping into [0, 1] (updates are projected steps, and the
hypergradient is used as-is).  ``sigmoid`` squashes raw scores through the
logistic function, whose derivative multiplies the hypergradient.

Everything is deterministic given the config seed; two runs with the same
bundle and config produce bit-identical trajectories.

Stacks.  ``run_stack`` steps K cells (say, the ablation matrix) as one: the
state's blocks and scores gain a leading K axis and each kernel call serves
every cell, which saves numpy's per-call cost K - 1 times over.  Cells share
every config field except seed, lam, gamma and the two freeze flags, so the
rates stay scalars while lam and gamma become (K, 1) columns, the freeze
flags length-K masks and the minibatches per-cell index arrays.  The zero
skips of a single run become masks: a cell with lam = 0 or gamma = 0 takes
the step without that term, and frozen scores, or scores with an all-zero
hypergradient, keep their bits.  Each cell's trajectory is bit for bit its
one-cell run; ``run`` and ``lbi_iteration`` are the one-cell case of the
same code, in which the state keeps no cell axis.  A cell that fails a
finite check leaves the stack with its own run's error while the others go
on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace

import numpy as np

from . import config, model
from .config import IGNORE_MODES, MODES  # noqa: F401
from .datasets import DatasetBundle, Split, atomic_open
from .errors import ConfigError, NumericError
from .model import Arch, GradBlock, ModelParams

# Raw score that stands for "fully kept" at initialization.  Clamp mode uses
# exactly 1; sigmoid mode cannot reach 1, so it starts at logit 4
# (sigmoid(4) ~ 0.982).
SIGMOID_ON_RAW = 4.0

# Fraction of the iteration budget after which step decay, when enabled,
# multiplies the four model learning rates by 0.1.
STEP_DECAY_AT = 0.8
STEP_DECAY_FACTOR = 0.1

# Seed-stream domains, so parameter init and minibatch draws never share a
# generator: SeedSequence(seed, spawn_key=(domain,)) or (domain, iteration).
_SEED_DOMAIN_INIT = 0
_SEED_DOMAIN_BATCH = 1

STATE_FORMAT = "lbi-state"
STATE_VERSION = 1


@dataclass
class IgnoreSet:
    """Learned per-example ignoring scores for one split."""

    raw: np.ndarray
    mode: str

    def __post_init__(self):
        self.raw = np.asarray(self.raw, dtype=np.float64)
        if self.raw.ndim != 1:
            raise ValueError("raw scores must be 1-D")
        if self.mode not in IGNORE_MODES:
            raise ValueError(f"unknown ignore mode {self.mode!r}")

    @classmethod
    def _of(cls, raw: np.ndarray, mode: str) -> "IgnoreSet":
        """Wrap a float64 vector without checking it again (the engine's own
        results)."""
        scores = object.__new__(cls)
        scores.raw, scores.mode = raw, mode
        return scores

    @classmethod
    def all_on(cls, n: int, mode: str) -> "IgnoreSet":
        if mode == "clamp":
            return cls(np.ones(n), mode)
        return cls(np.full(n, SIGMOID_ON_RAW), mode)

    def effective(self, idx: np.ndarray | None = None) -> np.ndarray:
        """Weights actually applied to losses; always within [0, 1].  With
        ``idx``, only the entries at those flat positions (elementwise, so
        the values are those of ``effective().reshape(-1)[idx]``)."""
        raw = self.raw if idx is None else self.raw.reshape(-1)[idx]
        if self.mode == "clamp":
            return raw.clip(0.0, 1.0)
        # The logistic; exp overflows to inf (weight 0) for raw below -709.
        with np.errstate(over="ignore"):
            return 1.0 / (1.0 + np.exp(-raw))

    def copy(self) -> "IgnoreSet":
        return IgnoreSet._of(self.raw.copy(), self.mode)


def _chain_factor(mode: str, effective: np.ndarray) -> np.ndarray | None:
    """d(effective)/d(raw) from the effective weights, or None for clamp
    mode's factor of 1, which the hypergradients then skip multiplying by.

    Clamp mode treats the score update as a projected step, so its factor is
    1 everywhere; sigmoid mode contributes the logistic derivative."""
    if mode == "clamp":
        return None
    return effective * (1.0 - effective)


@dataclass(frozen=True)
class Rates:
    """Learning rates in effect for one iteration."""

    pretrain_encoder: float
    pretrain_head: float
    finetune_encoder: float
    finetune_head: float
    ignore_pretrain: float
    ignore_finetune: float


_DEFAULTS = config.defaults("lbi")


@dataclass
class LbiConfig:
    """Everything that controls one run except the data itself.

    ``lam`` weights the encoder proximity penalty and ``gamma`` weights the
    ignoring-weighted pretraining loss inside the finetuning objective
    (extended mode only).  Learning-rate names follow the role of each block.
    """

    lam: float = _DEFAULTS["lam"]
    gamma: float = _DEFAULTS["gamma"]
    lr_pretrain_encoder: float = _DEFAULTS["lr_pretrain_encoder"]
    lr_pretrain_head: float = _DEFAULTS["lr_pretrain_head"]
    lr_finetune_encoder: float = _DEFAULTS["lr_finetune_encoder"]
    lr_finetune_head: float = _DEFAULTS["lr_finetune_head"]
    lr_ignore_pretrain: float = _DEFAULTS["lr_ignore_pretrain"]
    lr_ignore_finetune: float = _DEFAULTS["lr_ignore_finetune"]
    iterations: int = _DEFAULTS["iterations"]
    mode: str = _DEFAULTS["mode"]
    ignore_mode: str = _DEFAULTS["ignore_mode"]
    hidden: int = _DEFAULTS["hidden"]
    seed: int = _DEFAULTS["seed"]
    weight_decay: float = _DEFAULTS["weight_decay"]
    step_decay: bool = _DEFAULTS["step_decay"]
    batch_size: int | None = _DEFAULTS["batch_size"]
    freeze_ignore_pretrain: bool = _DEFAULTS["freeze_ignore_pretrain"]
    freeze_ignore_finetune: bool = _DEFAULTS["freeze_ignore_finetune"]

    def validate(self):
        """ConfigError unless every field has its type and passes its check
        in the ``lbi`` table of ``config``."""
        config.read_section("lbi", vars(self), loose=False)
        if self.mode == "basic" and self.gamma != 0.0 and self.gamma != 1.0:
            # gamma is silently unused in basic mode; flag likely mistakes.
            raise ConfigError("gamma has no effect in basic mode; set mode=extended")

    def decay_start(self) -> int | None:
        """First iteration of the decayed rates, or None without step decay."""
        if self.step_decay and self.iterations > 0:
            return int(STEP_DECAY_AT * self.iterations)
        return None

    def rates_at(self, iteration: int) -> Rates:
        """Effective rates at a given iteration (applies step decay)."""
        start = self.decay_start()
        f = 1.0
        if start is not None and iteration >= start:
            f = STEP_DECAY_FACTOR
        return Rates(
            self.lr_pretrain_encoder * f,
            self.lr_pretrain_head * f,
            self.lr_finetune_encoder * f,
            self.lr_finetune_head * f,
            self.lr_ignore_pretrain,
            self.lr_ignore_finetune,
        )

    def to_dict(self) -> dict:
        d = {}
        for f_ in fields(self):
            d["lambda" if f_.name == "lam" else f_.name] = getattr(self, f_.name)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "LbiConfig":
        """Build from a plain mapping, e.g. a parsed config file, read by
        the ``lbi`` table of ``config`` ("lambda" for lam, numeric text)."""
        return config_with(cls(), **config.read_section("lbi", d))


@dataclass
class TraceRow:
    """Per-iteration diagnostics, recorded before the iteration commits.

    Losses are the objective values the step actually used: the weighted
    pretraining loss and the training loss at the incoming models, and the
    validation loss at the looked-ahead finetuned model.  The two norms are
    Euclidean norms of the raw-score hypergradients (the finetune norm is 0
    in basic mode).
    """

    iteration: int
    pretrain_loss: float
    train_loss: float
    val_loss: float
    ignore_grad_pretrain_norm: float
    ignore_grad_finetune_norm: float


@dataclass
class LbiState:
    """Mutable snapshot of one run."""

    pretrain_model: ModelParams
    finetune_model: ModelParams
    ignore_pretrain: IgnoreSet
    ignore_finetune: IgnoreSet | None
    iteration: int = 0

    def copy(self) -> "LbiState":
        return LbiState(
            self.pretrain_model.copy(),
            self.finetune_model.copy(),
            self.ignore_pretrain.copy(),
            self.ignore_finetune.copy() if self.ignore_finetune is not None else None,
            self.iteration,
        )


def ensure_arrays(bundle) -> DatasetBundle:
    """The bundle itself, checked to be one.  The package passes bundles
    around directly; this stays only for external callers."""
    if not isinstance(bundle, DatasetBundle):
        raise ConfigError(f"expected a DatasetBundle, got {type(bundle).__name__}")
    return bundle


def init_state(bundle: DatasetBundle, cfg: LbiConfig) -> LbiState:
    """Fresh state: both models drawn from the config seed, all weights on.

    Draw order from one seeded generator: pretraining encoder, pretraining
    head, finetuned encoder, finetuned head.
    """
    cfg.validate()
    if bundle.train.n == 0 or bundle.val.n == 0:
        raise ConfigError("train and val splits must be nonempty")
    arch = Arch(bundle.dim, cfg.hidden, bundle.classes)
    rng = np.random.default_rng(
        np.random.SeedSequence(cfg.seed, spawn_key=(_SEED_DOMAIN_INIT,))
    )
    pretrain_model = model.init_params(arch, rng)
    finetune_model = model.init_params(arch, rng)
    ignore_finetune = None
    if cfg.mode == "extended":
        ignore_finetune = IgnoreSet.all_on(bundle.pretrain.n, cfg.ignore_mode)
    return LbiState(
        pretrain_model,
        finetune_model,
        IgnoreSet.all_on(bundle.pretrain.n, cfg.ignore_mode),
        ignore_finetune,
    )


def _nonfinite(block: np.ndarray) -> np.ndarray:
    """Whether any entry of each model's block is not finite: one flag per
    cell of a stack, a 0-d array for one model."""
    # np.logical_and.reduce is ndarray.all without its Python layer.
    return ~np.logical_and.reduce(np.isfinite(block), axis=-1)


def _sgd_update(params: ModelParams, g: GradBlock, lr_encoder: float,
                lr_head: float, weight_decay: float) -> ModelParams:
    d_enc = g.d_encoder
    d_head = g.d_head
    if weight_decay != 0.0:
        d_enc = d_enc + weight_decay * params.encoder
        d_head = d_head + weight_decay * params.head
    return ModelParams._of(
        params.arch,
        params.encoder - lr_encoder * d_enc,
        params.head - lr_head * d_head,
    )


def _pretrain_update(params: ModelParams, fwd: model.Forward | None, weights,
                     rates: Rates, weight_decay: float) -> ModelParams:
    """Step from ``fwd``, the pretraining model's forward on its batch (None
    for an empty batch, which leaves the parameters unchanged)."""
    if fwd is None:
        return params.copy()
    return _sgd_update(params, model.weighted_grad(fwd, weights),
                       rates.pretrain_encoder, rates.pretrain_head,
                       weight_decay)


def _forward_or_none(params: ModelParams, X: np.ndarray, y: np.ndarray):
    if X.shape[-2] == 0:
        return None
    return model._softmax_residual(params, X, y)


def _check_scores(scores: IgnoreSet, n: int, what: str):
    if scores.raw.shape != (n,):
        raise ConfigError(
            f"state has {scores.raw.shape[0]} {what} ignore scores, data has "
            f"{n} pretraining examples"
        )


def _mixes_source(cfg: LbiConfig) -> bool:
    """Whether the finetuning objective includes the b-weighted pretraining
    loss (and so whether the finetuning ignore scores have a hypergradient)."""
    return cfg.mode == "extended" and cfg.gamma != 0.0


def _all(flags) -> bool:
    """Whether every flag holds: a bool for one model, an array of them for
    a stack.  The ufunc reduce is np.all without its Python layer."""
    return flags is True or bool(np.logical_and.reduce(flags, axis=None))


def _any(flags) -> bool:
    return flags is True or bool(np.logical_or.reduce(flags, axis=None))


def _select(keep, new: np.ndarray, old) -> np.ndarray:
    """``new`` in the cells where ``keep`` holds and ``old`` elsewhere;
    ``new`` itself where ``keep`` holds everywhere (always for one model)."""
    return new if _all(keep) else np.where(keep, new, old)


def _finetune_update(params: ModelParams, pretrained_next: ModelParams,
                     train_grad: GradBlock, source_fwd: model.Forward | None,
                     source_w, lam, gamma, rates: Rates,
                     weight_decay: float) -> ModelParams:
    """Step from ``train_grad``, the finetuned model's gradient on the train
    batch, and, when the objective mixes it in, its forward on the
    pretraining batch (else None).

    ``lam`` and ``gamma`` are floats for one model and (K, 1) columns for a
    stack.  A cell whose lam (gamma) is zero takes the step without that
    term, not with an added zero, so its bits are those of the plain step.
    """
    d_enc = train_grad.d_encoder
    d_head = train_grad.d_head
    if source_fwd is not None:
        gs = model.weighted_grad(source_fwd, source_w)
        mixes = gamma != 0.0
        d_enc = _select(mixes, d_enc + gamma * gs.d_encoder, d_enc)
        d_head = _select(mixes, d_head + gamma * gs.d_head, d_head)
    near = lam != 0.0
    if _any(near):
        d_enc = _select(near, d_enc + model.proximity_grad(
            params.encoder, pretrained_next.encoder, lam), d_enc)
    return _sgd_update(
        params, GradBlock(d_enc, d_head),
        rates.finetune_encoder, rates.finetune_head, weight_decay,
    )


def _hypergrad_pretrain(fwd: model.Forward, val_grad: GradBlock, chain, lam,
                        rates: Rates, projection: np.ndarray) -> np.ndarray:
    """dL_val/d(raw a_i) for the examples of ``fwd``, the pretraining model's
    forward on its batch: a_i scales g_i(V) in the pretraining step, so
    dV'/da_i = -xi_V g_i(V)|enc, and the finetuning step sees V' only through
    the proximity gradient, so dW'/dV' = 2 xi_W lam I.  Against the
    validation gradient at W' that is -2 xi_V xi_W lam <g_i(V)|enc,
    g_val|enc>, times the score chain factor (None: 1).  ``projection`` is
    ``model.encoder_projection`` of the batch and ``val_grad``; ``lam`` is a
    float, or a (K, 1) column for a stack."""
    scale = -2.0 * rates.pretrain_encoder * rates.finetune_encoder * lam
    hg = scale * model.encoder_dots(fwd, val_grad, projection)
    return hg if chain is None else hg * chain


def _hypergrad_finetune(fwd: model.Forward, val_grad: GradBlock, chain,
                        gamma, rates: Rates,
                        projection: np.ndarray) -> np.ndarray:
    """dL_val/d(raw b_i) for the examples of ``fwd``, the finetuned model's
    forward on the pretraining batch: b_i scales g_i(W) in the finetuning
    step, so dW'/db_i = -gamma xi_W g_i(W)|enc and dH'/db_i = -gamma xi_H
    g_i(W)|head, which gives -gamma (xi_W <g_i(W)|enc, g_val|enc> + xi_H
    <g_i(W)|head, g_val|head>), times the score chain factor (None: 1).
    ``projection`` is as for ``_hypergrad_pretrain``; ``gamma`` is a float,
    or a (K, 1) column for a stack."""
    comp = rates.finetune_encoder * model.encoder_dots(fwd, val_grad,
                                                       projection)
    comp += rates.finetune_head * model.head_dots(fwd, val_grad)
    hg = -gamma * comp
    return hg if chain is None else hg * chain


def apply_ignore_update(ignore: IgnoreSet, g: np.ndarray, rate: float,
                        idx: np.ndarray | None = None) -> IgnoreSet:
    """Step raw scores along -g.  Clamp mode projects back into [0, 1].

    With ``idx``, g holds the gradient of the entries at the flat positions
    ``idx`` only (``raw[idx]`` for one score vector; in a stack's (K, n)
    scores, cell k's example i sits at k * n + i), and every other entry
    keeps its value.  That is the full step with a zero gradient outside
    ``idx`` for scores in the range the engine keeps them in (clamp mode
    projects out-of-range entries only when stepping them).
    """
    g = np.asarray(g, dtype=np.float64)
    want = ignore.raw.shape if idx is None else np.shape(idx)
    if g.shape != want:
        raise ValueError(f"gradient shape {g.shape} != scores {want}")
    if not np.logical_and.reduce(np.isfinite(g), axis=None):
        raise NumericError("non-finite ignoring-score gradient")
    if idx is None:
        raw = ignore.raw - rate * g
        if ignore.mode == "clamp":
            raw.clip(0.0, 1.0, out=raw)
        return IgnoreSet._of(raw, ignore.mode)
    raw = ignore.raw.copy()
    flat = raw.reshape(-1)
    step = flat[idx] - rate * g
    if ignore.mode == "clamp":
        step.clip(0.0, 1.0, out=step)
    flat[idx] = step
    return IgnoreSet._of(raw, ignore.mode)


def _draw_batches(seed: int, batch_size: int, iteration: int,
                  sizes: tuple[int, int, int]):
    """One cell's minibatch indices for (pretrain, train, val), None for an
    empty split.  Derived from (seed, iteration) alone so iterations stay
    independent of each other and of parameter init."""
    rng = np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(_SEED_DOMAIN_BATCH, iteration))
    )
    out = []
    for n in sizes:
        k = min(batch_size, n)
        out.append(np.sort(rng.choice(n, size=k, replace=False)) if n else None)
    return tuple(out)


def _cell_batch_indices(cells: "_Cells", batch_size: int | None,
                        iteration: int, sizes: tuple[int, int, int]):
    """Each cell's ``_draw_batches`` (from its own seed), stacked into one
    (K, batch) array per split for a stack, or Nones."""
    if batch_size is None:
        return None, None, None
    per_cell = [_draw_batches(seed, batch_size, iteration, sizes)
                for seed in cells.seeds]
    if not cells.stacked:
        return per_cell[0]
    return tuple(None if split[0] is None else np.array(split)
                 for split in zip(*per_cell))


def _rows(split: Split, idx: np.ndarray | None):
    """(X, y) of the batch ``idx`` of a split; None is the whole split (also
    in minibatch mode, where it stands for an empty split)."""
    if idx is None:
        return split.X, split.y
    return split.X[idx], split.y[idx]


def _grad_norms(hg: np.ndarray | None, has: np.ndarray, at: np.ndarray | None,
                n: int) -> np.ndarray:
    """Each cell's Euclidean norm of its raw-score hypergradient over all n
    scores, given the batch entries ``hg`` at flat positions ``at`` (None:
    all n); 0 where ``has`` is false (an all-zero hypergradient)."""
    if hg is None:
        return np.zeros(np.shape(has))
    if at is not None:
        # Zero-padded to n as the trace has always measured it: the dot of
        # the batch entries alone may round differently.
        full = np.zeros(hg.shape[:-1] + (n,))
        full.reshape(-1)[at] = hg
        hg = full
    return _select(has, np.sqrt(model._vecdot(hg, hg)), 0.0)


def _step_cells(scores: IgnoreSet | None, hg: np.ndarray | None, rate: float,
                at: np.ndarray | None, cells: np.ndarray) -> IgnoreSet | None:
    """The scores stepped along ``hg`` in the selected cells only."""
    if hg is None or not _any(cells):
        return scores
    if not _all(cells):
        # A zero step leaves every score the engine keeps exactly as it is.
        hg = np.where(cells[:, None], hg, 0.0)
    if at is None:
        return apply_ignore_update(scores, hg, rate)
    return apply_ignore_update(scores, hg, rate, at)


# The config fields in which the cells of one stack may differ.
_PER_CELL_FIELDS = ("seed", "lam", "gamma", "freeze_ignore_pretrain",
                    "freeze_ignore_finetune")


@dataclass(frozen=True)
class _Cells:
    """The per-cell switches of the cells of a state: lam and gamma, whether
    each cell has the proximity term, whether its finetuning objective mixes
    in the source term (extended mode, gamma not zero) and whether it learns
    (does not freeze) each score set.

    For a stack of K cells, in stack order: lam and gamma as (K, 1) columns
    that broadcast against (K, ·) blocks and the flags as length-K masks.
    One cell's state keeps no cell axis (its blocks are the plain one-model
    arrays, on numpy's faster 2-D paths), and its switches are a float and
    bools.
    """

    seeds: tuple
    lam: np.ndarray | float
    gamma: np.ndarray | float
    prox: np.ndarray | bool
    mixes: np.ndarray | bool
    learn_a: np.ndarray | bool
    learn_b: np.ndarray | bool

    @property
    def stacked(self) -> bool:
        return isinstance(self.prox, np.ndarray)

    @classmethod
    def of(cls, cfgs: list[LbiConfig]) -> "_Cells":
        if len(cfgs) == 1:
            (c,) = cfgs
            return cls((c.seed,), c.lam, c.gamma, c.lam != 0.0,
                       _mixes_source(c), not c.freeze_ignore_pretrain,
                       not c.freeze_ignore_finetune)
        lam = np.array([[c.lam] for c in cfgs], dtype=np.float64)
        gamma = np.array([[c.gamma] for c in cfgs], dtype=np.float64)
        return cls(
            tuple(c.seed for c in cfgs), lam, gamma, lam[:, 0] != 0.0,
            (gamma[:, 0] != 0.0) & (cfgs[0].mode == "extended"),
            np.array([not c.freeze_ignore_pretrain for c in cfgs]),
            np.array([not c.freeze_ignore_finetune for c in cfgs]),
        )

    def take(self, keep: np.ndarray) -> "_Cells":
        return _Cells(tuple(s for s, k in zip(self.seeds, keep) if k),
                      *(getattr(self, f.name)[keep]
                        for f in fields(self) if f.name != "seeds"))


def _blocks(state: LbiState) -> list[np.ndarray]:
    """The state's arrays: both models' blocks, then its score sets."""
    blocks = [state.pretrain_model.encoder, state.pretrain_model.head,
              state.finetune_model.encoder, state.finetune_model.head,
              state.ignore_pretrain.raw]
    if state.ignore_finetune is not None:
        blocks.append(state.ignore_finetune.raw)
    return blocks


def _with_blocks(like: LbiState, blocks: list[np.ndarray]) -> LbiState:
    """A state with ``like``'s architecture, score mode and iteration that
    holds ``blocks`` (in ``_blocks`` order)."""
    arch, mode = like.pretrain_model.arch, like.ignore_pretrain.mode
    return LbiState(
        ModelParams._of(arch, blocks[0], blocks[1]),
        ModelParams._of(arch, blocks[2], blocks[3]),
        IgnoreSet._of(blocks[4], mode),
        IgnoreSet._of(blocks[5], mode) if len(blocks) > 5 else None,
        like.iteration,
    )


def _stack(states: list[LbiState]) -> LbiState:
    """One state whose arrays stack the cells' arrays on a leading axis."""
    return _with_blocks(states[0], [np.stack(cell_blocks) for cell_blocks
                                    in zip(*map(_blocks, states))])


def _cell(stacked: LbiState, k) -> LbiState:
    """Cell ``k`` of a stacked state (an index: that cell's state; a mask:
    a smaller stack)."""
    return _with_blocks(stacked, [b[k] for b in _blocks(stacked)])


def _first_failures(checks, iteration: int) -> dict[int, NumericError]:
    """{cell: the NumericError of its first failed check}, given (what,
    block, mask of the cells it is checked in or None for all) in the order
    a one-cell run makes the checks."""
    # Usually everything is finite: one test over all blocks at once.
    joined = np.concatenate([block for _, block, _ in checks], axis=-1)
    if np.logical_and.reduce(np.isfinite(joined), axis=None):
        return {}
    failed = {}
    for what, block, cells in checks:
        bad = _nonfinite(block) if cells is None else _nonfinite(block) & cells
        for k in np.flatnonzero(bad):
            failed.setdefault(int(k), NumericError(f"non-finite {what}",
                                                   iteration))
    return failed


def _iterate(state: LbiState, bundle: DatasetBundle, cfg: LbiConfig,
             cells: _Cells, rates: Rates):
    """Advance every cell of a state, one cell or a stack, by one iteration.

    ``cfg`` supplies the fields the cells share and ``cells`` the rest.
    Returns the next state, the five trace values of ``TraceRow`` after its
    iteration (one length-K vector each for a stack), {cell position:
    NumericError} for the cells that failed a finite check (their entries in
    the next state are not meaningful), and the raw-score hypergradients
    (hg_a, hg_b) of the batch's scores, each None when it is identically
    zero in every cell.  A frozen score set still gets its hypergradient.

    Each cell's values are the bits of a one-cell iteration: the kernels
    keep every model's sums in the same order (see ``model``), and a cell
    whose lam or gamma is zero, or whose scores are frozen, gets its plain
    values through ``_select``, never an added zero.
    """
    it = state.iteration
    K = len(cells.seeds)
    n_pre = bundle.pretrain.n
    mode = state.ignore_pretrain.mode
    idx_pre, idx_tr, idx_val = _cell_batch_indices(
        cells, cfg.batch_size, it, (n_pre, bundle.train.n, bundle.val.n)
    )
    # Positions of the pretraining batch in the flat (K * n) score array.
    at = idx_pre
    if idx_pre is not None and cells.stacked:
        at = idx_pre + n_pre * np.arange(K)[:, None]
    X_pre, y_pre = _rows(bundle.pretrain, idx_pre)

    # Stage 1: pretraining step on the (sub)batch.
    pre_fwd = _forward_or_none(state.pretrain_model, X_pre, y_pre)
    a = state.ignore_pretrain.effective(at)
    pretrained_next = _pretrain_update(state.pretrain_model, pre_fwd, a,
                                       rates, cfg.weight_decay)

    # Stage 2: finetuning step.
    train_fwd = model._softmax_residual(state.finetune_model,
                                        *_rows(bundle.train, idx_tr))
    source_fwd, b = None, None
    if _any(cells.mixes):
        source_fwd = _forward_or_none(state.finetune_model, X_pre, y_pre)
        b = state.ignore_finetune.effective(at)
    finetuned_next = _finetune_update(
        state.finetune_model, pretrained_next, model.weighted_grad(train_fwd),
        source_fwd, b, cells.lam, cells.gamma, rates, cfg.weight_decay,
    )

    # Stage 3: hypergradients over the batch's scores, for the cells whose
    # hypergradient is not identically zero (has_a, has_b).
    val_fwd = _forward_or_none(finetuned_next, *_rows(bundle.val, idx_val))
    learns = pre_fwd is not None and val_fwd is not None
    has_a, has_b = cells.prox & learns, cells.mixes & learns
    any_a, any_b = _any(has_a), _any(has_b)
    hg_a = hg_b = None
    if any_a or any_b:
        gv = model.weighted_grad(val_fwd)
        proj = model.encoder_projection(pretrained_next.arch, X_pre, gv)
        if any_a:
            hg_a = _hypergrad_pretrain(pre_fwd, gv, _chain_factor(mode, a),
                                       cells.lam, rates, proj)
        if any_b:
            hg_b = _hypergrad_finetune(source_fwd, gv, _chain_factor(mode, b),
                                       cells.gamma, rates, proj)

    # Finite checks, per cell, in the order a one-cell iteration makes them;
    # a score gradient counts only where it is applied.
    step_a = has_a & cells.learn_a
    step_b = has_b & cells.learn_b
    checks = []
    if pre_fwd is not None:
        checks += [("pretraining encoder update", pretrained_next.encoder, None),
                   ("pretraining head update", pretrained_next.head, None)]
    checks += [("finetuned encoder update", finetuned_next.encoder, None),
               ("finetuned head update", finetuned_next.head, None)]
    for hg, step in ((hg_a, step_a), (hg_b, step_b)):
        if hg is not None:
            checks.append(("ignoring-score gradient", hg, step))
    failed = _first_failures(checks, it)
    if failed:
        ok = np.array([k not in failed for k in range(K)])
        step_a &= ok if cells.stacked else False
        step_b &= ok if cells.stacked else False

    nxt = LbiState(
        pretrained_next, finetuned_next,
        _step_cells(state.ignore_pretrain, hg_a, rates.ignore_pretrain, at,
                    step_a),
        _step_cells(state.ignore_finetune, hg_b, rates.ignore_finetune, at,
                    step_b),
        it + 1,
    )
    zeros = np.zeros(K) if cells.stacked else 0.0
    trace = (
        model.weighted_losses(pre_fwd, a) if pre_fwd is not None else zeros,
        model.weighted_losses(train_fwd),
        model.weighted_losses(val_fwd) if val_fwd is not None else zeros,
        _grad_norms(hg_a, has_a, at, n_pre),
        _grad_norms(hg_b, has_b, at, n_pre),
    )
    return nxt, trace, failed, (hg_a, hg_b)


def lbi_iteration(state: LbiState, bundle: DatasetBundle, cfg: LbiConfig,
                  rates: Rates | None = None) -> tuple[LbiState, TraceRow]:
    """Advance one full iteration; returns the updated state and its trace row.

    Order inside the iteration: pretraining step, finetuning step against
    the stepped pretraining encoder, both hypergradients at the incoming
    models, then the ignoring-score updates.  Hypergradients are always
    computed (they feed the trace) but frozen score sets skip their update,
    keeping raw scores bit-identical.

    Each (model, split) pair gets one forward pass, shared by its gradient
    step, its hypergradient and its trace loss: the pretraining model on the
    pretraining batch, the finetuned model on the pretraining batch (only
    when gamma mixes that loss in), the finetuned model on the train batch,
    and the looked-ahead model on the val batch.  The two hypergradients
    share the projection of the pretraining batch on the validation
    gradient.  Minibatch score bookkeeping touches only the batch's entries.

    This is the stacks' iteration ``_iterate`` on one cell.  The state is
    trusted to fit the data and the config (``run`` checks that, including
    clamp-mode scores within [0, 1]).  ``rates`` defaults to
    ``cfg.rates_at(state.iteration)``.
    """
    rates = rates or cfg.rates_at(state.iteration)
    nxt, trace, failed, _ = _iterate(state, bundle, cfg, _Cells.of([cfg]),
                                     rates)
    if failed:
        raise failed[0]
    return nxt, TraceRow(state.iteration, *map(float, trace))


def check_fit(state: LbiState, bundle: DatasetBundle):
    """ConfigError unless a state fits the data: its dims and classes, and
    one ignore score per pretraining row in each set."""
    arch = state.pretrain_model.arch
    if arch.dim != bundle.dim or arch.classes != bundle.classes:
        raise ConfigError(
            f"state architecture ({arch.dim} dims, {arch.classes} classes) does "
            f"not match data ({bundle.dim} dims, {bundle.classes} classes)"
        )
    for scores, what in ((state.ignore_pretrain, "pretraining"),
                         (state.ignore_finetune, "finetuning")):
        if scores is not None:
            _check_scores(scores, bundle.pretrain.n, what)


def _check_state(state: LbiState, bundle: DatasetBundle, cfg: LbiConfig):
    """ConfigError unless a (resumed) state fits the data (``check_fit``)
    and the config."""
    check_fit(state, bundle)
    state_mode = "basic" if state.ignore_finetune is None else "extended"
    for name, have, want in (("hidden", state.pretrain_model.arch.hidden,
                              cfg.hidden),
                             ("ignore_mode", state.ignore_pretrain.mode,
                              cfg.ignore_mode),
                             ("mode", state_mode, cfg.mode)):
        if have != want:
            raise ConfigError(
                f"state has {name}={have!r} but the config has {name}={want!r}"
            )
    for scores, what in ((state.ignore_pretrain, "pretraining"),
                         (state.ignore_finetune, "finetuning")):
        if (scores is not None and scores.mode == "clamp"
                and not ((scores.raw >= 0.0) & (scores.raw <= 1.0)).all()):
            raise ConfigError(
                f"state has clamp-mode {what} ignore scores outside [0, 1]"
            )


def run_stack(bundle: DatasetBundle, cfgs: list[LbiConfig],
              initial_states: list[LbiState] | None = None,
              on_row=None) -> list[LbiState | NumericError]:
    """Run several cells on one bundle as one stack: each iteration steps
    every cell at once, along a leading cell axis of the state.

    The cells' configs may differ only in seed, lam, gamma and the two
    freeze flags (else ConfigError); fresh cells start from their own
    ``init_state``, resumed ones (``initial_states``, checked as ``run``
    checks them) at one shared iteration.  Each cell's final state and trace
    rows are bit for bit those of its own ``run``.  A cell that fails a
    finite check leaves the stack with the NumericError, message and
    iteration included, that its own run raises; the others go on.
    ``on_row(k, row)``, when given, receives cell k's trace rows as they are
    made.  Returns each cell's final state or NumericError, in order.
    """
    if not cfgs:
        raise ConfigError("need at least one cell")
    for c in cfgs:
        c.validate()
    cfg = cfgs[0]
    same = {name: getattr(cfg, name) for name in _PER_CELL_FIELDS}
    if any(replace(c, **same) != cfg for c in cfgs):
        raise ConfigError(
            "stacked cells may differ only in " + ", ".join(_PER_CELL_FIELDS))
    if initial_states is None:
        initial_states = [init_state(bundle, c) for c in cfgs]
    for s in initial_states:
        _check_state(s, bundle, cfg)
    if len({s.iteration for s in initial_states}) > 1:
        raise ConfigError("stacked cells must start at the same iteration")
    cells = _Cells.of(cfgs)
    state = _stack(initial_states) if cells.stacked else initial_states[0]
    alive = list(range(len(cfgs)))  # stack position -> cell
    out: list = [None] * len(cfgs)
    decay_start = cfg.decay_start()
    rates = cfg.rates_at(state.iteration)
    while state.iteration < cfg.iterations:
        it = state.iteration
        if it == decay_start:
            rates = cfg.rates_at(it)
        state, trace, failed, _ = _iterate(state, bundle, cfg, cells, rates)
        rows = np.array(trace).T.reshape(-1, 5)  # trace values, a row per cell
        if failed:
            for pos, err in failed.items():
                out[alive[pos]] = err
            keep = np.array([pos not in failed for pos in range(len(alive))])
            alive = [k for k, kept in zip(alive, keep) if kept]
            if not alive:
                break
            state, cells, rows = _cell(state, keep), cells.take(keep), rows[keep]
        if on_row is not None:
            for k, values in zip(alive, rows.tolist()):
                on_row(k, TraceRow(it, *values))
    for pos, k in enumerate(alive):
        out[k] = _cell(state, pos) if cells.stacked else state
    return out


def run(bundle: DatasetBundle, cfg: LbiConfig,
        initial_state: LbiState | None = None, trace_hook=None) -> tuple[LbiState, list[TraceRow]]:
    """Run cfg.iterations iterations (resuming from initial_state if given).

    Returns the final state and the trace rows of the iterations run here.
    ``trace_hook``, when given, is called with each TraceRow as it is
    produced, which lets callers stream the trace to disk.  On numeric
    failure the raised error carries the iteration index and the partial
    trace.  A resumed state must match the config's architecture and
    modes, have one score per pretraining example in each score set, and
    (clamp mode) keep its scores within [0, 1]; a mismatch raises
    ConfigError instead of silently training the state's setup.  This is
    ``run_stack`` with one cell.
    """
    trace: list[TraceRow] = []

    def keep(_k, row):
        trace.append(row)
        if trace_hook is not None:
            trace_hook(row)

    (out,) = run_stack(bundle, [cfg],
                       None if initial_state is None else [initial_state],
                       keep)
    if isinstance(out, NumericError):
        out.partial_trace = trace
        raise out
    return out, trace


def to_state_dict(state: LbiState) -> dict:
    """JSON-ready snapshot (trace excluded; it streams to CSV separately)."""
    arch = state.pretrain_model.arch
    return {
        "format": STATE_FORMAT,
        "version": STATE_VERSION,
        "arch": {"dim": arch.dim, "hidden": arch.hidden, "classes": arch.classes},
        "iteration": state.iteration,
        "ignore_mode": state.ignore_pretrain.mode,
        "pretrain_encoder": state.pretrain_model.encoder.tolist(),
        "pretrain_head": state.pretrain_model.head.tolist(),
        "finetune_encoder": state.finetune_model.encoder.tolist(),
        "finetune_head": state.finetune_model.head.tolist(),
        "ignore_pretrain_raw": state.ignore_pretrain.raw.tolist(),
        "ignore_finetune_raw": (
            state.ignore_finetune.raw.tolist()
            if state.ignore_finetune is not None else None
        ),
    }


def from_state_dict(d: dict) -> LbiState:
    """The state that a ``to_state_dict`` snapshot holds.  ConfigError when
    ``d`` is not one: not a JSON object, another format or version, a
    missing key, or values that do not make a state."""
    if not isinstance(d, dict):
        raise ConfigError(f"state must be a JSON object, got {type(d).__name__}")
    if d.get("format") != STATE_FORMAT:
        raise ConfigError(f"not a state file (format={d.get('format')!r})")
    if d.get("version") != STATE_VERSION:
        raise ConfigError(
            f"unsupported state version {d.get('version')!r}, "
            f"expected {STATE_VERSION}"
        )
    try:
        arch = Arch(**d["arch"])
        mode = d["ignore_mode"]
        fin_raw = d["ignore_finetune_raw"]
        return LbiState(
            ModelParams(arch, np.array(d["pretrain_encoder"]),
                        np.array(d["pretrain_head"])),
            ModelParams(arch, np.array(d["finetune_encoder"]),
                        np.array(d["finetune_head"])),
            IgnoreSet(np.array(d["ignore_pretrain_raw"]), mode),
            IgnoreSet(np.array(fin_raw), mode) if fin_raw is not None else None,
            int(d["iteration"]),
        )
    except KeyError as e:
        raise ConfigError(f"state has no {e.args[0]} key") from None
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad state: {e}") from None


def save_state(state: LbiState, path: str):
    with atomic_open(path) as fh:
        json.dump(to_state_dict(state), fh)
        fh.write("\n")


def load_state(path: str) -> LbiState:
    try:
        with open(path) as fh:
            return from_state_dict(json.load(fh))
    except FileNotFoundError:
        raise ConfigError(f"state file not found: {path}") from None
    except OSError as e:
        raise ConfigError(f"cannot read state file {path}: {e.strerror}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise ConfigError(f"state file {path} is not valid JSON: {e}") from None


def config_with(cfg: LbiConfig, **kwargs) -> LbiConfig:
    """replace() with validation."""
    out = replace(cfg, **kwargs)
    out.validate()
    return out
