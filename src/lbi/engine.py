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
one-cell run; ``run`` is the one-cell case of the same code, in which the
state keeps no cell axis.  A cell that fails a finite check leaves the
stack with its own run's error while the others go on.

Overlap.  Stage 1 and the finetuned model's gradients read disjoint inputs
and meet only at the proximity term.  So a large one-cell run runs stage 1
on a worker thread meanwhile, and keeps the pretraining batch's n x hidden
arrays in fixed buffers.  ``run_stack`` decides this once per run and then
makes both (``_Workspace``); a stack never does.  Every numpy call keeps
its operands, so every value keeps its bits.
"""

from __future__ import annotations

import json
import os
from contextlib import closing, nullcontext
from dataclasses import dataclass, fields, replace
from typing import NamedTuple

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


def ensure_arrays(bundle) -> DatasetBundle:
    """The bundle itself, checked to be one.  The package passes bundles
    around directly; this stays only for external callers."""
    if not isinstance(bundle, DatasetBundle):
        raise ConfigError(f"expected a DatasetBundle, got {type(bundle).__name__}")
    return bundle


def init_state(bundle: DatasetBundle, cfg: LbiConfig) -> LbiState:
    """Fresh state: both models drawn from the config seed, all weights on;
    ConfigError for data it does not fit (``check_fit``).

    Draw order from one seeded generator: pretraining encoder, pretraining
    head, finetuned encoder, finetuned head.
    """
    cfg.validate()
    arch = Arch(bundle.dim, cfg.hidden, bundle.classes)
    rng = np.random.default_rng(
        np.random.SeedSequence(cfg.seed, spawn_key=(_SEED_DOMAIN_INIT,))
    )
    pretrain_model = model.init_params(arch, rng)
    finetune_model = model.init_params(arch, rng)
    ignore_finetune = None
    if cfg.mode == "extended":
        ignore_finetune = IgnoreSet.all_on(bundle.pretrain.n, cfg.ignore_mode)
    state = LbiState(
        pretrain_model,
        finetune_model,
        IgnoreSet.all_on(bundle.pretrain.n, cfg.ignore_mode),
        ignore_finetune,
    )
    check_fit(state, bundle)
    return state


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


def _pretrain_update(params: ModelParams, fwd: model.Forward, weights,
                     rates: Rates, weight_decay: float) -> ModelParams:
    """Step from ``fwd``, the pretraining model's forward on its batch.  An
    empty batch has a zero gradient, so its step is the weight decay alone,
    as for a batch whose weights are all 0."""
    return _sgd_update(params, model.weighted_grad(fwd, weights),
                       rates.pretrain_encoder, rates.pretrain_head,
                       weight_decay)


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
                     train_grad: GradBlock, source_grad: GradBlock | None,
                     lam, gamma, rates: Rates,
                     weight_decay: float) -> ModelParams:
    """Step from ``train_grad``, the finetuned model's gradient on the train
    batch, and, when the objective mixes it in, ``source_grad``, its
    b-weighted gradient on the pretraining batch (else None).

    ``lam`` and ``gamma`` are floats for one model and (K, 1) columns for a
    stack.  A cell whose lam (gamma) is zero takes the step without that
    term, not with an added zero, so its bits are those of the plain step.
    """
    d_enc = train_grad.d_encoder
    d_head = train_grad.d_head
    if source_grad is not None:
        mixes = gamma != 0.0
        d_enc = _select(mixes, d_enc + gamma * source_grad.d_encoder, d_enc)
        d_head = _select(mixes, d_head + gamma * source_grad.d_head, d_head)
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
    """One cell's minibatch indices for (pretrain, train, val).  Derived
    from (seed, iteration) alone so iterations stay independent of each
    other and of parameter init."""
    rng = np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(_SEED_DOMAIN_BATCH, iteration))
    )
    return tuple(np.sort(rng.choice(n, size=min(batch_size, n), replace=False))
                 for n in sizes)


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
    return tuple(np.array(split) for split in zip(*per_cell))


def _rows(split: Split, idx: np.ndarray | None):
    """(X, y) of the batch ``idx`` of a split; None is the whole split."""
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
    return apply_ignore_update(scores, hg, rate, at)


# The config fields in which the cells of one stack may differ.
_PER_CELL_FIELDS = ("seed", "lam", "gamma", "freeze_ignore_pretrain",
                    "freeze_ignore_finetune")


@dataclass(frozen=True)
class _Cells:
    """The per-cell switches of the cells of a state: lam and gamma, whether
    each cell has the proximity term, whether its finetuning objective mixes
    in the source term (extended mode, gamma not zero) and whether it trains
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
                       c.mode == "extended" and c.gamma != 0.0,
                       not c.freeze_ignore_pretrain,
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


def _update_checks(pretrained: ModelParams | None,
                   finetuned: ModelParams | None) -> list:
    """``_first_failures``' checks of the given model updates, in order."""
    checks = []
    for what, params in (("pretraining", pretrained),
                         ("finetuned", finetuned)):
        if params is not None:
            checks += [(f"{what} encoder update", params.encoder, None),
                       (f"{what} head update", params.head, None)]
    return checks


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


# A one-cell MLP run overlaps its stages 1 and 2 when its pretraining batch
# holds at least this many hidden activations (rows x hidden) and the
# process may run on two CPUs.  On smaller arrays numpy holds the GIL for
# too much of each call for the threads to overlap: at hidden 64 (dim 32,
# 10 classes, 500 train and val rows) 250 full-batch rows (16,000
# activations) measured a tie and 500 rows (32,000) and more a gain.
# Stacks stay serial until a rule for them is measured: with the overlap,
# paper-ablate's 45-cell matrix (200 rows) ran 12% slower at hidden 8 and
# 2.2x faster at hidden 64.
OVERLAP_MIN_ACTIVATIONS = 24_000


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return os.cpu_count() or 1


class _Workspace:
    """What an overlapping run holds: one worker thread and five rows x
    hidden buffers, by role.  The pretraining forward fills ``pre`` (T, dA,
    and T again: it spends T on its slope and weighted residual); the source
    forward fills ``src`` (T, dA, scratch), whose scratch then takes the
    projection."""

    def __init__(self, rows: int, hidden: int):
        # Imported here: it would add about 6 ms to import lbi.
        from concurrent.futures import ThreadPoolExecutor
        self._pool = ThreadPoolExecutor(1)
        pre_T, pre_dA, src_T, src_dA, self.scratch = (
            np.empty((rows, hidden)) for _ in range(5))
        self.pre = (pre_T, pre_dA, pre_T)
        self.src = (src_T, src_dA, self.scratch)

    def submit(self, fn):
        """Run ``fn`` on the worker thread under the caller's numpy error
        state (thread-local before numpy 2.0); returns its Future."""
        errors = np.geterr()

        def with_errors():
            with np.errstate(**errors):
                return fn()
        return self._pool.submit(with_errors)

    def close(self):
        """Stop the worker thread and wait for it to end."""
        self._pool.shutdown()


class _Front(NamedTuple):
    """What an iteration makes before its finetuning step (``_front``): the
    batch, stage 1 and the finetuned model's gradients.  An empty
    pretraining batch is a batch of zero rows, with forwards of zero rows."""

    at: np.ndarray | None  # the pretraining batch's flat score positions
    idx_val: np.ndarray | None  # the val batch, None for the whole split
    pre_fwd: model.Forward
    a: np.ndarray
    pretrained_next: ModelParams
    train_fwd: model.Forward
    train_grad: GradBlock
    source_fwd: model.Forward | None  # None unless some cell mixes it in
    b: np.ndarray | None
    source_grad: GradBlock | None


def _front(state: LbiState, bundle: DatasetBundle, cfg: LbiConfig,
           cells: _Cells, rates: Rates,
           workspace: _Workspace | None = None) -> _Front:
    """``_iterate`` up to its finetuning step: the batch, the pretraining
    step (stage 1) and the finetuned model's gradients, none of which a
    finetuning score reaches.  With a ``workspace``, stage 1 runs on its
    worker thread and the pretraining batch's forwards fill its buffers."""
    n_pre = bundle.pretrain.n
    idx_pre, idx_tr, idx_val = _cell_batch_indices(
        cells, cfg.batch_size, state.iteration,
        (n_pre, bundle.train.n, bundle.val.n))
    # Positions of the pretraining batch in the flat (K * n) score array.
    at = idx_pre
    if idx_pre is not None and cells.stacked:
        at = idx_pre + n_pre * np.arange(len(cells.seeds))[:, None]
    X_pre, y_pre = _rows(bundle.pretrain, idx_pre)

    def stage_1():
        """The pretraining step on the (sub)batch."""
        fwd = model._softmax_residual(state.pretrain_model, X_pre, y_pre,
                                      workspace and workspace.pre)
        a = state.ignore_pretrain.effective(at)
        return fwd, a, _pretrain_update(state.pretrain_model, fwd, a, rates,
                                        cfg.weight_decay)

    def finetune_grads():
        """The finetuned model's forward and gradient on the train batch
        and, when the objective mixes it in, its forward on the pretraining
        batch, the weights b and its b-weighted gradient there (else
        Nones)."""
        train_fwd = model._softmax_residual(state.finetune_model,
                                            *_rows(bundle.train, idx_tr))
        fwd = b = grad = None
        if _any(cells.mixes):
            fwd = model._softmax_residual(state.finetune_model, X_pre, y_pre,
                                          workspace and workspace.src)
            b = state.ignore_finetune.effective(at)
            grad = model.weighted_grad(fwd, b)
        return train_fwd, model.weighted_grad(train_fwd), fwd, b, grad

    # Stages 1 and 2 read disjoint inputs up to the proximity term, so with
    # a workspace stage 1 runs on its worker thread meanwhile.  Leaving the
    # block waits for it, and its error, the one a serial stage 1 raises
    # first, wins.
    if workspace is None:
        stage = stage_1()
        grads = finetune_grads()
    else:
        pending = workspace.submit(stage_1)
        try:
            grads = finetune_grads()
        finally:
            stage = pending.result()
    return _Front(at, idx_val, *stage, *grads)


def _finish(state: LbiState, bundle: DatasetBundle, cfg: LbiConfig,
            cells: _Cells, rates: Rates, front: _Front,
            workspace: _Workspace | None = None):
    """``_iterate`` from its finetuning step on, given its ``front``;
    returns what ``_iterate`` returns."""
    K = len(cells.seeds)
    mode = state.ignore_pretrain.mode
    f = front

    # Stage 2: finetuning step.
    finetuned_next = _finetune_update(
        state.finetune_model, f.pretrained_next, f.train_grad, f.source_grad,
        cells.lam, cells.gamma, rates, cfg.weight_decay,
    )

    # Stage 3: hypergradients over the batch's scores, for the cells whose
    # hypergradient is not identically zero (prox, mixes).
    val_fwd = model._softmax_residual(finetuned_next,
                                      *_rows(bundle.val, f.idx_val))
    any_a, any_b = _any(cells.prox), _any(cells.mixes)
    hg_a = hg_b = None
    if any_a or any_b:
        gv = model.weighted_grad(val_fwd)
        # The source forward's scratch is free again by now.
        proj = model.encoder_projection(f.pretrained_next.arch, f.pre_fwd.X,
                                        gv, workspace and workspace.scratch)
        if any_a:
            hg_a = _hypergrad_pretrain(f.pre_fwd, gv, _chain_factor(mode, f.a),
                                       cells.lam, rates, proj)
        if any_b:
            hg_b = _hypergrad_finetune(f.source_fwd, gv,
                                       _chain_factor(mode, f.b), cells.gamma,
                                       rates, proj)

    # Finite checks, per cell, in the order a one-cell iteration makes them;
    # a score gradient counts only where it is applied.
    step_a = cells.prox & cells.learn_a
    step_b = cells.mixes & cells.learn_b
    checks = _update_checks(f.pretrained_next, finetuned_next)
    for hg, step in ((hg_a, step_a), (hg_b, step_b)):
        if hg is not None:
            checks.append(("ignoring-score gradient", hg, step))
    failed = _first_failures(checks, state.iteration)
    if failed:
        ok = np.array([k not in failed for k in range(K)])
        step_a &= ok if cells.stacked else False
        step_b &= ok if cells.stacked else False

    nxt = LbiState(
        f.pretrained_next, finetuned_next,
        _step_cells(state.ignore_pretrain, hg_a, rates.ignore_pretrain, f.at,
                    step_a),
        _step_cells(state.ignore_finetune, hg_b, rates.ignore_finetune, f.at,
                    step_b),
        state.iteration + 1,
    )
    n_pre = bundle.pretrain.n
    trace = (
        model.weighted_losses(f.pre_fwd, f.a),
        model.weighted_losses(f.train_fwd),
        model.weighted_losses(val_fwd),
        _grad_norms(hg_a, cells.prox, f.at, n_pre),
        _grad_norms(hg_b, cells.mixes, f.at, n_pre),
    )
    return nxt, trace, failed, (hg_a, hg_b)


def _iterate(state: LbiState, bundle: DatasetBundle, cfg: LbiConfig,
             cells: _Cells, rates: Rates, workspace: _Workspace | None = None):
    """Advance every cell of a state, one cell or a stack, by one iteration.

    The order: pretraining step, finetuning step against the stepped
    encoder, both hypergradients through the two steps, score updates.  Each
    (model, split) pair gets one forward pass, shared by its gradient step,
    hypergradient and trace loss, and both hypergradients share the
    projection of the pretraining batch on the validation gradient.
    ``cfg`` supplies the fields the cells share and ``cells`` the rest; the
    bundle is trusted to be valid and the state to fit both (``run_stack``
    checks them).  Returns the next state, the five trace values of
    ``TraceRow`` after its iteration (one length-K vector each for a
    stack), {cell position: NumericError} for the cells that failed a
    finite check (their entries in the next state are not meaningful), and
    the raw-score hypergradients (hg_a, hg_b) of the batch's scores, each
    None when it is identically zero in every cell.  A frozen score set
    still gets its hypergradient.

    Each cell's values are the bits of a one-cell iteration: the kernels
    keep every model's sums in the same order (see ``model``), and a cell
    whose lam or gamma is zero, or whose scores are frozen, gets its plain
    values through ``_select``, never an added zero.

    With a ``workspace`` (an overlapping run's), stage 1 runs on its worker
    thread and the pretraining batch's n x hidden arrays fill its buffers;
    no returned array is a buffer, so ``_front``'s values stay inside.
    """
    front = _front(state, bundle, cfg, cells, rates, workspace)
    return _finish(state, bundle, cfg, cells, rates, front, workspace)


def check_fit(state: LbiState, bundle: DatasetBundle):
    """ConfigError unless a state fits the data: nonempty train and val
    splits, its dims and classes, and one ignore score per pretraining row
    in each set."""
    if bundle.train.n == 0 or bundle.val.n == 0:
        raise ConfigError("train and val splits must be nonempty")
    arch = state.pretrain_model.arch
    if arch.dim != bundle.dim or arch.classes != bundle.classes:
        raise ConfigError(
            f"state architecture ({arch.dim} dims, {arch.classes} classes) does "
            f"not match data ({bundle.dim} dims, {bundle.classes} classes)"
        )
    n = bundle.pretrain.n
    for scores, what in ((state.ignore_pretrain, "pretraining"),
                         (state.ignore_finetune, "finetuning")):
        if scores is not None and scores.raw.shape != (n,):
            raise ConfigError(
                f"state has {scores.raw.shape[0]} {what} ignore scores, data "
                f"has {n} pretraining examples")


def _check_state(state: LbiState, bundle: DatasetBundle, cfg: LbiConfig):
    """ConfigError unless a (resumed) state fits the data (``check_fit``)
    and the config, and has not run past its iterations."""
    check_fit(state, bundle)
    if state.iteration > cfg.iterations:
        raise ConfigError(
            f"state is at iteration {state.iteration}, past the config's "
            f"iterations={cfg.iterations}")
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


def check_stack(cfgs: list[LbiConfig]) -> LbiConfig:
    """ConfigError unless the configs make one stack: at least one, each
    valid, differing only in ``_PER_CELL_FIELDS``.  Returns the first."""
    if not cfgs:
        raise ConfigError("need at least one cell")
    for c in cfgs:
        c.validate()
    cfg = cfgs[0]
    same = {name: getattr(cfg, name) for name in _PER_CELL_FIELDS}
    if any(replace(c, **same) != cfg for c in cfgs):
        raise ConfigError(
            "stacked cells may differ only in " + ", ".join(_PER_CELL_FIELDS))
    return cfg


def run_stack(bundle: DatasetBundle, cfgs: list[LbiConfig],
              initial_states: list[LbiState] | None = None,
              on_row=None) -> list[LbiState | NumericError]:
    """Run several cells on one bundle as one stack: each iteration steps
    every cell at once, along a leading cell axis of the state.

    The bundle is checked here, once (``DatasetBundle.validate``'s
    ValueError), and its rows reach the kernels unchecked.  The cells'
    configs may differ only in seed, lam, gamma and the two freeze flags
    (else ConfigError, ``check_stack``); fresh cells start from their own
    ``init_state``, resumed ones (``initial_states``, checked as ``run``
    checks them) at one shared iteration.  Each cell's final state and trace
    rows are bit for bit those of its own ``run``.  A cell that fails a
    finite check leaves the stack with the NumericError, message and
    iteration included, that its own run raises; the others go on.
    ``on_row(k, row)``, when given, receives cell k's trace rows as they are
    made.  Returns each cell's final state or NumericError, in order.
    """
    bundle.validate()
    cfg = check_stack(cfgs)
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
    n_pre = bundle.pretrain.n
    batch = n_pre if cfg.batch_size is None else min(cfg.batch_size, n_pre)
    overlaps = (not cells.stacked and cfg.hidden > 0
                and batch * cfg.hidden >= OVERLAP_MIN_ACTIVATIONS
                and _usable_cpus() >= 2)
    with (closing(_Workspace(batch, cfg.hidden)) if overlaps
          else nullcontext()) as workspace:
        while state.iteration < cfg.iterations:
            it = state.iteration
            if it == decay_start:
                rates = cfg.rates_at(it)
            state, trace, failed, _ = _iterate(state, bundle, cfg, cells,
                                               rates, workspace)
            # The trace values, a row per cell.
            rows = np.array(trace).T.reshape(-1, len(fields(TraceRow)) - 1)
            if failed:
                for pos, err in failed.items():
                    out[alive[pos]] = err
                keep = np.array([pos not in failed
                                 for pos in range(len(alive))])
                alive = [k for k, kept in zip(alive, keep) if kept]
                if not alive:
                    break
                state, cells = _cell(state, keep), cells.take(keep)
                rows = rows[keep]
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
    modes, have one score per pretraining example in each score set,
    (clamp mode) keep its scores within [0, 1] and be at no later iteration
    than cfg.iterations; a mismatch raises
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


def _finite(d: dict, key: str) -> np.ndarray:
    """``d[key]`` as a float64 vector, ConfigError unless it is a list of
    finite JSON numbers (no bool, null, text, NaN or Infinity)."""
    values = d[key]
    if type(values) is list and all(type(v) in (int, float) for v in values):
        out = np.array(values, dtype=np.float64)
        if np.isfinite(out).all():
            return out
    raise ConfigError(f"{key} must be a list of finite numbers")


def from_state_dict(d: dict) -> LbiState:
    """The state that a ``to_state_dict`` snapshot holds.  ConfigError when
    ``d`` is not one: not a JSON object, another format or version, a
    missing key, a count that is not a JSON integer >= 0, a block that is
    not all finite numbers, or values that do not make a state."""
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
        counts = {**{f"arch.{k}": v for k, v in dict(d["arch"]).items()},
                  "iteration": d["iteration"]}
        for key, value in counts.items():
            # bool is an int subclass, and int() would read 1.5 and "2".
            if type(value) is not int or value < 0:
                raise ConfigError(f"{key} must be an integer >= 0")
        arch = Arch(**d["arch"])
        mode = d["ignore_mode"]
        return LbiState(
            ModelParams(arch, _finite(d, "pretrain_encoder"),
                        _finite(d, "pretrain_head")),
            ModelParams(arch, _finite(d, "finetune_encoder"),
                        _finite(d, "finetune_head")),
            IgnoreSet(_finite(d, "ignore_pretrain_raw"), mode),
            (None if d["ignore_finetune_raw"] is None
             else IgnoreSet(_finite(d, "ignore_finetune_raw"), mode)),
            d["iteration"],
        )
    except KeyError as e:
        raise ConfigError(f"state has no {e.args[0]} key") from None
    except (TypeError, ValueError, OverflowError) as e:
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
