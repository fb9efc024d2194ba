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
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace

import numpy as np
from scipy.special import expit

from . import model
from .datasets import DatasetBundle
from .errors import ConfigError, NumericError
from .model import Arch, GradBlock, ModelParams

MODES = ("basic", "extended")
IGNORE_MODES = ("clamp", "sigmoid")

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
        ``idx``, only those entries (elementwise, so the values are those of
        ``effective()[idx]``)."""
        raw = self.raw if idx is None else self.raw[idx]
        if self.mode == "clamp":
            return raw.clip(0.0, 1.0)
        return expit(raw)

    def grad_chain(self) -> np.ndarray:
        """d(effective)/d(raw) as used by the hypergradient.

        Clamp mode treats the update as a projected step, so the chain factor
        is 1 everywhere; sigmoid mode contributes the logistic derivative.
        """
        chain = _chain_factor(self.mode, self.effective())
        return np.ones_like(self.raw) if chain is None else chain

    def copy(self) -> "IgnoreSet":
        return IgnoreSet._of(self.raw.copy(), self.mode)


def _chain_factor(mode: str, effective: np.ndarray) -> np.ndarray | None:
    """d(effective)/d(raw) from the effective weights, or None for clamp
    mode's factor of 1, which the hypergradients then skip multiplying by."""
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


_FLOAT_CONFIG_FIELDS = frozenset({
    "lam", "gamma", "lr_pretrain_encoder", "lr_pretrain_head",
    "lr_finetune_encoder", "lr_finetune_head", "lr_ignore_pretrain",
    "lr_ignore_finetune", "weight_decay",
})
_INT_CONFIG_FIELDS = frozenset({"iterations", "hidden", "seed"})
_BOOL_CONFIG_FIELDS = frozenset({
    "step_decay", "freeze_ignore_pretrain", "freeze_ignore_finetune",
})


def _coerce_config_value(name: str, value):
    try:
        if name in _FLOAT_CONFIG_FIELDS:
            return float(value)
        if name in _INT_CONFIG_FIELDS:
            if isinstance(value, bool):
                raise ValueError("boolean")
            out = int(str(value)) if isinstance(value, str) else int(value)
            if out != float(value):
                raise ValueError("not an integer")
            return out
        if name == "batch_size":
            return None if value is None else int(value)
        if name in _BOOL_CONFIG_FIELDS:
            if not isinstance(value, bool):
                raise ValueError("expected true or false")
            return value
        return value
    except (TypeError, ValueError):
        raise ConfigError(f"bad value for {name}: {value!r}") from None


@dataclass
class LbiConfig:
    """Everything that controls one run except the data itself.

    ``lam`` weights the encoder proximity penalty and ``gamma`` weights the
    ignoring-weighted pretraining loss inside the finetuning objective
    (extended mode only).  Learning-rate names follow the role of each block.
    """

    lam: float = 3e-3
    gamma: float = 1.0
    lr_pretrain_encoder: float = 1e-3
    lr_pretrain_head: float = 1e-2
    lr_finetune_encoder: float = 1e-3
    lr_finetune_head: float = 1e-2
    lr_ignore_pretrain: float = 0.05
    lr_ignore_finetune: float = 0.05
    iterations: int = 300
    mode: str = "extended"
    ignore_mode: str = "clamp"
    hidden: int = 0
    seed: int = 0
    weight_decay: float = 0.0
    step_decay: bool = False
    batch_size: int | None = None
    freeze_ignore_pretrain: bool = False
    freeze_ignore_finetune: bool = False

    def validate(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.ignore_mode not in IGNORE_MODES:
            raise ConfigError(f"unknown ignore_mode {self.ignore_mode!r}")
        rate_names = (
            "lr_pretrain_encoder", "lr_pretrain_head", "lr_finetune_encoder",
            "lr_finetune_head", "lr_ignore_pretrain", "lr_ignore_finetune",
        )
        # Zero rates are allowed (they freeze the corresponding block), only
        # negative or non-finite values are rejected.
        for name in rate_names:
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise ConfigError(f"{name} must be finite and >= 0, got {v!r}")
        for name in ("lam", "gamma", "weight_decay"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise ConfigError(f"{name} must be finite and >= 0, got {v!r}")
        if self.iterations < 0:
            raise ConfigError(f"iterations must be >= 0, got {self.iterations}")
        if self.hidden < 0:
            raise ConfigError(f"hidden must be >= 0, got {self.hidden}")
        if self.batch_size is not None and self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
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
        """Build from a plain mapping, e.g. a parsed config file.

        Accepts "lambda" for lam and coerces numeric strings (YAML leaves
        scientific notation like 7e-3 as text); wrong types become config
        errors rather than surprises downstream.
        """
        names = {f_.name for f_ in fields(cls)}
        kwargs = {}
        for key, value in d.items():
            name = "lam" if key == "lambda" else key
            if name not in names:
                raise ConfigError(f"unknown config key {key!r}")
            kwargs[name] = _coerce_config_value(name, value)
        cfg = cls(**kwargs)
        cfg.validate()
        return cfg


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


@dataclass
class SplitArrays:
    X: np.ndarray
    y: np.ndarray

    @property
    def n(self) -> int:
        return self.X.shape[0]


@dataclass
class BundleArrays:
    """Bundle splits cached as arrays; built once per run."""

    pretrain: SplitArrays
    train: SplitArrays
    val: SplitArrays
    test: SplitArrays
    dim: int
    classes: int
    corrupted: np.ndarray  # bool flags over pretrain examples

    @classmethod
    def from_bundle(cls, bundle: DatasetBundle) -> "BundleArrays":
        def arrays(examples):
            if not examples:
                return SplitArrays(
                    np.zeros((0, bundle.dim)), np.zeros(0, dtype=np.int64)
                )
            X, y = model.examples_to_arrays(examples)
            return SplitArrays(X, y)

        return cls(
            arrays(bundle.pretrain),
            arrays(bundle.train),
            arrays(bundle.val),
            arrays(bundle.test),
            bundle.dim,
            bundle.classes,
            np.array([ex.corrupted for ex in bundle.pretrain], dtype=bool),
        )


def ensure_arrays(bundle) -> BundleArrays:
    if isinstance(bundle, BundleArrays):
        return bundle
    return BundleArrays.from_bundle(bundle)


def init_state(bundle, cfg: LbiConfig) -> LbiState:
    """Fresh state: both models drawn from the config seed, all weights on.

    Draw order from one seeded generator: pretraining encoder, pretraining
    head, finetuned encoder, finetuned head.
    """
    cfg.validate()
    arrays = ensure_arrays(bundle)
    if arrays.train.n == 0 or arrays.val.n == 0:
        raise ConfigError("train and val splits must be nonempty")
    arch = Arch(arrays.dim, cfg.hidden, arrays.classes)
    rng = np.random.default_rng(
        np.random.SeedSequence(cfg.seed, spawn_key=(_SEED_DOMAIN_INIT,))
    )
    pretrain_model = model.init_params(arch, rng)
    finetune_model = model.init_params(arch, rng)
    ignore_finetune = None
    if cfg.mode == "extended":
        ignore_finetune = IgnoreSet.all_on(arrays.pretrain.n, cfg.ignore_mode)
    return LbiState(
        pretrain_model,
        finetune_model,
        IgnoreSet.all_on(arrays.pretrain.n, cfg.ignore_mode),
        ignore_finetune,
    )


def _check_finite(block: np.ndarray, what: str, iteration: int | None):
    # np.logical_and.reduce is ndarray.all without its Python layer.
    if not np.logical_and.reduce(np.isfinite(block)):
        raise NumericError(f"non-finite {what}", iteration)


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
                     rates: Rates, weight_decay: float,
                     iteration: int | None) -> ModelParams:
    """Step from ``fwd``, the pretraining model's forward on its batch (None
    for an empty batch, which leaves the parameters unchanged)."""
    if fwd is None:
        return params.copy()
    g = model.weighted_grad(fwd, weights)
    out = _sgd_update(params, g, rates.pretrain_encoder, rates.pretrain_head,
                      weight_decay)
    _check_finite(out.encoder, "pretraining encoder update", iteration)
    _check_finite(out.head, "pretraining head update", iteration)
    return out


def _forward_or_none(params: ModelParams, X: np.ndarray, y: np.ndarray):
    if X.shape[0] == 0:
        return None
    return model._softmax_residual(params, X, y)


def _check_scores(scores: IgnoreSet, n: int, what: str):
    if scores.raw.shape != (n,):
        raise ConfigError(
            f"state has {scores.raw.shape[0]} {what} ignore scores, data has "
            f"{n} pretraining examples"
        )


def pretrain_step(state: LbiState, bundle, cfg: LbiConfig,
                  rates: Rates | None = None) -> ModelParams:
    """One weighted gradient step of the pretraining model.

    Returns the stepped model; does not touch the state.  With all weights
    zero the parameters come back unchanged.
    """
    arrays = ensure_arrays(bundle)
    _check_scores(state.ignore_pretrain, arrays.pretrain.n, "pretraining")
    rates = rates or cfg.rates_at(state.iteration)
    return _pretrain_update(
        state.pretrain_model,
        _forward_or_none(state.pretrain_model, arrays.pretrain.X,
                         arrays.pretrain.y),
        state.ignore_pretrain.effective(),
        rates, cfg.weight_decay, state.iteration,
    )


def _mixes_source(cfg: LbiConfig) -> bool:
    """Whether the finetuning objective includes the b-weighted pretraining
    loss (and so whether the finetuning ignore scores have a hypergradient)."""
    return cfg.mode == "extended" and cfg.gamma != 0.0


def _finetune_update(params: ModelParams, pretrained_next: ModelParams,
                     train_fwd: model.Forward, source_fwd: model.Forward | None,
                     source_w, cfg: LbiConfig, rates: Rates,
                     iteration: int | None) -> ModelParams:
    """Step from the finetuned model's forwards on the train batch and, when
    the objective mixes it in, on the pretraining batch (else None)."""
    g = model.weighted_grad(train_fwd)
    d_enc = g.d_encoder
    d_head = g.d_head
    if source_fwd is not None:
        gs = model.weighted_grad(source_fwd, source_w)
        d_enc = d_enc + cfg.gamma * gs.d_encoder
        d_head = d_head + cfg.gamma * gs.d_head
    if cfg.lam != 0.0:
        d_enc = d_enc + model.proximity_grad(
            params.encoder, pretrained_next.encoder, cfg.lam
        )
    out = _sgd_update(
        params, GradBlock(d_enc, d_head),
        rates.finetune_encoder, rates.finetune_head, cfg.weight_decay,
    )
    _check_finite(out.encoder, "finetuned encoder update", iteration)
    _check_finite(out.head, "finetuned head update", iteration)
    return out


def finetune_step(state: LbiState, pretrained_next: ModelParams, bundle,
                  cfg: LbiConfig, rates: Rates | None = None) -> ModelParams:
    """One gradient step of the finetuned model against the stepped
    pretraining encoder.

    Basic mode: training loss plus proximity.  Extended mode additionally
    mixes in the b-weighted pretraining loss scaled by gamma.  With lam = 0
    and (in extended mode) gamma = 0 this is exactly a plain training step;
    the zero branches are skipped outright so the reduction is bit-exact.
    """
    arrays = ensure_arrays(bundle)
    rates = rates or cfg.rates_at(state.iteration)
    params = state.finetune_model
    source_fwd, b = None, None
    if _mixes_source(cfg):
        _check_scores(state.ignore_finetune, arrays.pretrain.n, "finetuning")
        source_fwd = _forward_or_none(params, arrays.pretrain.X,
                                      arrays.pretrain.y)
        b = state.ignore_finetune.effective()
    return _finetune_update(
        params, pretrained_next,
        model._softmax_residual(params, arrays.train.X, arrays.train.y),
        source_fwd, b, cfg, rates, state.iteration,
    )


def _val_grad(finetuned_next: ModelParams, arrays: BundleArrays) -> GradBlock:
    return model.weighted_grad(
        model._softmax_residual(finetuned_next, arrays.val.X, arrays.val.y))


def _hypergrad_pretrain(fwd: model.Forward, val_grad: GradBlock, chain,
                        cfg: LbiConfig, rates: Rates,
                        projection: np.ndarray | None = None) -> np.ndarray:
    """-2 xi_V xi_W lam <g_i(V)|enc, g_val(W')|enc> times the score chain
    factor (None: 1), for the examples of ``fwd`` (the pretraining model's
    forward).  ``projection`` is ``model.encoder_projection`` of that batch
    and ``val_grad``, when the caller has it."""
    scale = -2.0 * rates.pretrain_encoder * rates.finetune_encoder * cfg.lam
    hg = scale * model.encoder_dots(fwd, val_grad, projection)
    return hg if chain is None else hg * chain


def _hypergrad_finetune(fwd: model.Forward, val_grad: GradBlock, chain,
                        cfg: LbiConfig, rates: Rates,
                        projection: np.ndarray | None = None) -> np.ndarray:
    """-gamma (xi_W <g_i(W)|enc, g_val|enc> + xi_H <g_i(W)|head, g_val|head>)
    times the score chain factor (None: 1), for the examples of ``fwd`` (the
    finetuned model's forward on the pretraining batch)."""
    comp = rates.finetune_encoder * model.encoder_dots(fwd, val_grad,
                                                       projection)
    comp += rates.finetune_head * model.head_dots(fwd, val_grad)
    hg = -cfg.gamma * comp
    return hg if chain is None else hg * chain


def hypergrad_ignore_pretrain(state: LbiState, finetuned_next: ModelParams,
                              bundle, cfg: LbiConfig,
                              rates: Rates | None = None,
                              val_grad: GradBlock | None = None) -> np.ndarray:
    """Exact gradient of the validation loss with respect to the raw
    pretraining ignoring scores.

    Derivation: a_i scales example i's gradient inside the pretraining step,
    so dV'/da_i = -xi_V g_i(V)|enc.  The finetuning step sees V' only through
    the proximity gradient 2 lam (W - V'), so dW'/dV' = 2 xi_W lam I.  Chain
    against the validation gradient at W' and the component is
    -2 xi_V xi_W lam <g_i(V)|enc, g_val(W')|enc>; the sigmoid derivative (or
    1 in clamp mode) converts from effective weight to raw score.  The
    pretrained head influences nothing downstream, so it never appears.  With
    lam = 0 all components are exactly zero.
    """
    arrays = ensure_arrays(bundle)
    rates = rates or cfg.rates_at(state.iteration)
    if cfg.lam == 0.0 or arrays.pretrain.n == 0:
        return np.zeros(arrays.pretrain.n)
    _check_scores(state.ignore_pretrain, arrays.pretrain.n, "pretraining")
    fwd = model._softmax_residual(
        state.pretrain_model, arrays.pretrain.X, arrays.pretrain.y
    )
    gv = val_grad or _val_grad(finetuned_next, arrays)
    scores = state.ignore_pretrain
    return _hypergrad_pretrain(
        fwd, gv, _chain_factor(scores.mode, scores.effective()), cfg, rates)


def hypergrad_ignore_finetune(state: LbiState, finetuned_next: ModelParams,
                              bundle, cfg: LbiConfig,
                              rates: Rates | None = None,
                              val_grad: GradBlock | None = None) -> np.ndarray:
    """Exact gradient of the validation loss with respect to the raw
    finetuning ignoring scores (extended mode only).

    b_i scales example i's gradient, taken at the current finetuned model,
    inside the finetuning step, so both blocks move: dW'/db_i =
    -gamma xi_W g_i(W)|enc and dH'/db_i = -gamma xi_H g_i(W)|head.  Chaining
    against the validation gradient at (W', H') gives the two inner products
    below.  With gamma = 0 all components are exactly zero.
    """
    if cfg.mode != "extended":
        raise ValueError("finetuning ignore weights exist only in extended mode")
    arrays = ensure_arrays(bundle)
    rates = rates or cfg.rates_at(state.iteration)
    if cfg.gamma == 0.0 or arrays.pretrain.n == 0:
        return np.zeros(arrays.pretrain.n)
    _check_scores(state.ignore_finetune, arrays.pretrain.n, "finetuning")
    fwd = model._softmax_residual(
        state.finetune_model, arrays.pretrain.X, arrays.pretrain.y
    )
    gv = val_grad or _val_grad(finetuned_next, arrays)
    scores = state.ignore_finetune
    return _hypergrad_finetune(
        fwd, gv, _chain_factor(scores.mode, scores.effective()), cfg, rates)


def apply_ignore_update(ignore: IgnoreSet, g: np.ndarray, rate: float,
                        idx: np.ndarray | None = None) -> IgnoreSet:
    """Step raw scores along -g.  Clamp mode projects back into [0, 1].

    With ``idx``, g holds the gradient of the entries ``raw[idx]`` only and
    every other entry keeps its value.  That is the full step with a zero
    gradient outside ``idx`` for scores in the range the engine keeps them
    in (clamp mode projects out-of-range entries only when stepping them).
    """
    g = np.asarray(g, dtype=np.float64)
    want = ignore.raw.shape if idx is None else np.shape(idx)
    if g.shape != want:
        raise ValueError(f"gradient shape {g.shape} != scores {want}")
    if not np.logical_and.reduce(np.isfinite(g)):
        raise NumericError("non-finite ignoring-score gradient")
    if idx is None:
        raw = ignore.raw - rate * g
        if ignore.mode == "clamp":
            raw.clip(0.0, 1.0, out=raw)
        return IgnoreSet._of(raw, ignore.mode)
    step = ignore.raw[idx] - rate * g
    if ignore.mode == "clamp":
        step.clip(0.0, 1.0, out=step)
    raw = ignore.raw.copy()
    raw[idx] = step
    return IgnoreSet._of(raw, ignore.mode)


def _batch_indices(cfg: LbiConfig, iteration: int, sizes: tuple[int, int, int]):
    """Per-iteration minibatch indices for (pretrain, train, val), or Nones.

    Derived from (seed, iteration) alone so iterations stay independent of
    each other and of parameter init.
    """
    if cfg.batch_size is None:
        return None, None, None
    rng = np.random.default_rng(
        np.random.SeedSequence(cfg.seed, spawn_key=(_SEED_DOMAIN_BATCH, iteration))
    )
    out = []
    for n in sizes:
        k = min(cfg.batch_size, n)
        out.append(np.sort(rng.choice(n, size=k, replace=False)) if n else None)
    return tuple(out)


def _rows(split: SplitArrays, idx: np.ndarray | None):
    """(X, y) of the batch ``idx`` of a split; None is the whole split (also
    in minibatch mode, where it stands for an empty split)."""
    if idx is None:
        return split.X, split.y
    return split.X[idx], split.y[idx]


def _grad_norm(hg: np.ndarray | None, idx: np.ndarray | None, n: int) -> float:
    """Euclidean norm of a raw-score hypergradient over all n scores, given
    its batch entries (None: all zero)."""
    if hg is None:
        return 0.0
    if idx is not None:
        # Zero-padded to n as the trace has always measured it: the dot of
        # the batch entries alone may round differently.
        full = np.zeros(n)
        full[idx] = hg
        hg = full
    return math.sqrt(hg @ hg)


def _step_scores(scores: IgnoreSet, hg: np.ndarray, rate: float,
                 idx: np.ndarray | None, iteration: int) -> IgnoreSet:
    try:
        if idx is None:
            return apply_ignore_update(scores, hg, rate)
        return apply_ignore_update(scores, hg, rate, idx)
    except NumericError as e:
        e.iteration = iteration
        raise


def lbi_iteration(state: LbiState, bundle, cfg: LbiConfig,
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

    The state is trusted to fit the data and the config (``run`` checks
    that, including clamp-mode scores within [0, 1]).  ``rates`` defaults to
    ``cfg.rates_at(state.iteration)``.
    """
    arrays = ensure_arrays(bundle)
    it = state.iteration
    rates = rates or cfg.rates_at(it)
    n_pre = arrays.pretrain.n
    idx_pre, idx_tr, idx_val = _batch_indices(
        cfg, it, (n_pre, arrays.train.n, arrays.val.n)
    )
    X_pre, y_pre = _rows(arrays.pretrain, idx_pre)
    mode = state.ignore_pretrain.mode

    # Stage 1: pretraining step on the (sub)batch.
    pre_fwd = _forward_or_none(state.pretrain_model, X_pre, y_pre)
    a = state.ignore_pretrain.effective(idx_pre)
    pretrained_next = _pretrain_update(
        state.pretrain_model, pre_fwd, a, rates, cfg.weight_decay, it,
    )

    # Stage 2: finetuning step.
    train_fwd = model._softmax_residual(state.finetune_model,
                                        *_rows(arrays.train, idx_tr))
    source_fwd, b = None, None
    if _mixes_source(cfg):
        source_fwd = _forward_or_none(state.finetune_model, X_pre, y_pre)
        b = state.ignore_finetune.effective(idx_pre)
    finetuned_next = _finetune_update(
        state.finetune_model, pretrained_next, train_fwd, source_fwd, b,
        cfg, rates, it,
    )

    # Stage 3: hypergradients over the batch's scores (None: all zero).
    val_fwd = _forward_or_none(finetuned_next, *_rows(arrays.val, idx_val))
    hg_a = hg_b = None
    if val_fwd is not None:
        gv = model.weighted_grad(val_fwd)
        learn_a = cfg.lam != 0.0 and pre_fwd is not None
        if learn_a or source_fwd is not None:
            proj = model.encoder_projection(pretrained_next.arch, X_pre, gv)
        if learn_a:
            hg_a = _hypergrad_pretrain(pre_fwd, gv, _chain_factor(mode, a),
                                       cfg, rates, proj)
        if source_fwd is not None:
            hg_b = _hypergrad_finetune(source_fwd, gv, _chain_factor(mode, b),
                                       cfg, rates, proj)

    # An all-zero hypergradient (None) would leave every score as it is.
    ignore_pretrain = state.ignore_pretrain
    if hg_a is not None and not cfg.freeze_ignore_pretrain:
        ignore_pretrain = _step_scores(ignore_pretrain, hg_a,
                                       rates.ignore_pretrain, idx_pre, it)
    ignore_finetune = state.ignore_finetune
    if hg_b is not None and not cfg.freeze_ignore_finetune:
        ignore_finetune = _step_scores(ignore_finetune, hg_b,
                                       rates.ignore_finetune, idx_pre, it)

    row = TraceRow(
        iteration=it,
        pretrain_loss=(model.weighted_loss(pre_fwd, a)
                       if pre_fwd is not None else 0.0),
        train_loss=model.weighted_loss(train_fwd),
        val_loss=(model.weighted_loss(val_fwd)
                  if val_fwd is not None else 0.0),
        ignore_grad_pretrain_norm=_grad_norm(hg_a, idx_pre, n_pre),
        ignore_grad_finetune_norm=_grad_norm(hg_b, idx_pre, n_pre),
    )
    nxt = LbiState(pretrained_next, finetuned_next, ignore_pretrain,
                   ignore_finetune, it + 1)
    return nxt, row


def run(bundle, cfg: LbiConfig, initial_state: LbiState | None = None,
        trace_hook=None) -> tuple[LbiState, list[TraceRow]]:
    """Run cfg.iterations iterations (resuming from initial_state if given).

    Returns the final state and the trace rows of the iterations run here.
    ``trace_hook``, when given, is called with each TraceRow as it is
    produced, which lets callers stream the trace to disk.  On numeric
    failure the raised error carries the iteration index and the partial
    trace.  A resumed state must match the config's architecture and
    modes, have one score per pretraining example in each score set, and
    (clamp mode) keep its scores within [0, 1]; a mismatch raises
    ConfigError instead of silently training the state's setup.
    """
    cfg.validate()
    arrays = ensure_arrays(bundle)
    state = initial_state if initial_state is not None else init_state(arrays, cfg)
    arch = state.pretrain_model.arch
    if arch.dim != arrays.dim or arch.classes != arrays.classes:
        raise ConfigError(
            f"state architecture ({arch.dim} dims, {arch.classes} classes) does "
            f"not match data ({arrays.dim} dims, {arrays.classes} classes)"
        )
    state_mode = "basic" if state.ignore_finetune is None else "extended"
    for name, have, want in (("hidden", arch.hidden, cfg.hidden),
                             ("ignore_mode", state.ignore_pretrain.mode,
                              cfg.ignore_mode),
                             ("mode", state_mode, cfg.mode)):
        if have != want:
            raise ConfigError(
                f"state has {name}={have!r} but the config has {name}={want!r}"
            )
    for scores, what in ((state.ignore_pretrain, "pretraining"),
                         (state.ignore_finetune, "finetuning")):
        if scores is None:
            continue
        _check_scores(scores, arrays.pretrain.n, what)
        raw = scores.raw
        if scores.mode == "clamp" and not ((raw >= 0.0) & (raw <= 1.0)).all():
            raise ConfigError(
                f"state has clamp-mode {what} ignore scores outside [0, 1]"
            )
    trace: list[TraceRow] = []
    decay_start = cfg.decay_start()
    rates = cfg.rates_at(state.iteration)
    while state.iteration < cfg.iterations:
        if state.iteration == decay_start:
            rates = cfg.rates_at(state.iteration)
        try:
            state, row = lbi_iteration(state, arrays, cfg, rates)
        except NumericError as e:
            if e.iteration is None:
                e.iteration = state.iteration
            e.partial_trace = trace
            raise
        trace.append(row)
        if trace_hook is not None:
            trace_hook(row)
    return state, trace


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
    if d.get("format") != STATE_FORMAT:
        raise ConfigError(f"not a state file (format={d.get('format')!r})")
    if d.get("version") != STATE_VERSION:
        raise ConfigError(
            f"unsupported state version {d.get('version')!r}, "
            f"expected {STATE_VERSION}"
        )
    arch = Arch(**d["arch"])
    mode = d["ignore_mode"]
    fin_raw = d["ignore_finetune_raw"]
    return LbiState(
        ModelParams(arch, np.array(d["pretrain_encoder"]), np.array(d["pretrain_head"])),
        ModelParams(arch, np.array(d["finetune_encoder"]), np.array(d["finetune_head"])),
        IgnoreSet(np.array(d["ignore_pretrain_raw"]), mode),
        IgnoreSet(np.array(fin_raw), mode) if fin_raw is not None else None,
        int(d["iteration"]),
    )


def save_state(state: LbiState, path: str):
    with open(path, "w") as fh:
        json.dump(to_state_dict(state), fh)
        fh.write("\n")


def load_state(path: str) -> LbiState:
    try:
        with open(path) as fh:
            return from_state_dict(json.load(fh))
    except FileNotFoundError:
        raise ConfigError(f"state file not found: {path}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"state file {path} is not valid JSON: {e}") from None


def config_with(cfg: LbiConfig, **kwargs) -> LbiConfig:
    """replace() with validation."""
    out = replace(cfg, **kwargs)
    out.validate()
    return out
