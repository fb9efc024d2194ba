"""Finite-difference verification of the ignoring-weight hypergradients.

The engine's hypergradients are closed-form derivatives of the composed map

    raw scores -> (pretraining step) -> (finetuning step) -> validation loss

so they can be checked against central differences on that exact map: nudge
one raw score, rerun the two updates that ``engine.lbi_iteration`` runs, and
difference the validation loss at the looked-ahead model.

The analytic side comes from the engine itself: one call of
``engine._iterate``, the iteration that ``engine.run`` and
``engine.lbi_iteration`` execute, on the full batch.  Its hypergradients are
the ones the scores step along, so a check passes only when the code that
trains is right.

The work no score reaches is done once per instance and shared by its
probes: the forwards of the pretraining model on the pretraining split and
of the finetuned model on the pretraining split (when gamma mixes it in),
the finetuned model's unweighted train gradient, and, for the probes of a
finetuning score, the unperturbed pretraining step.  All of it is taken at
the incoming models, which no score moves; a score only weights its
example's residual inside an update.  So sharing it changes no probe's
value by a bit.

The probes of one score set run as one stack: row 2i holds the raw scores
with score i moved by +step, row 2i + 1 by -step.  The engine's own update
functions step all rows at once along a leading row axis, and one val
forward scores them.  Each row's loss is bit for bit its probe's alone,
because the kernels sum every model of a stack in the order of its
one-model form (see ``model``; ``tests/test_stacked.py`` pins it on the
installed numpy and BLAS).  A stack's temporaries hold at most
``_CHUNK_FLOATS`` floats, so a large instance runs in chunks of probes, in
O(n) memory.  Every probe keeps its finite checks: a stack with a
non-finite update raises the NumericError of its first failing probe in
(index, sign) order, the error that probe raises alone.

The numeric side still differentiates nothing and never calls the
closed-form code (the ``_hypergrad_*`` functions, ``encoder_dots``,
``head_dots`` or ``encoder_projection``): the two routes share only the
forward model and the step arithmetic, so an error in either surfaces as
disagreement.

Two details matter for a trustworthy comparison.  First, clamp mode is
non-differentiable exactly at raw scores 0 and 1, so check instances draw
raw scores strictly inside (0, 1) (the engine's projected-step semantics at
the boundary are tested separately, not differenced).  Second, relative
error uses max(|analytic|, |numeric|, tiny) as the denominator so agreeing
near-zero components do not explode the ratio.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import config, datasets, engine, model
from .datasets import DatasetBundle
from .engine import LbiConfig, LbiState

REL_ERR_FLOOR = 1e-12


@dataclass
class FdEntry:
    """One compared component."""

    which: str  # "pretrain" or "finetune"
    index: int
    analytic: float
    numeric: float

    @property
    def abs_err(self) -> float:
        return abs(self.analytic - self.numeric)

    @property
    def rel_err(self) -> float:
        denom = max(abs(self.analytic), abs(self.numeric), REL_ERR_FLOOR)
        return self.abs_err / denom


@dataclass
class FdReport:
    """Full comparison over every ignoring score of an instance."""

    step: float
    threshold: float
    entries: list[FdEntry] = field(default_factory=list)

    @property
    def max_rel_err(self) -> float:
        """The largest relative error, NaN if any entry's is (a non-finite
        value on either side makes it NaN)."""
        return float(np.max([e.rel_err for e in self.entries], initial=0.0))

    def _fails(self, e: FdEntry) -> bool:
        # Not "rel_err >= threshold", which a NaN error would pass.
        return not e.rel_err < self.threshold

    def flagged(self) -> list[FdEntry]:
        return [e for e in self.entries if self._fails(e)]

    def passed(self) -> bool:
        return not self.flagged()

    def as_table(self) -> str:
        lines = [
            f"{'set':<9} {'idx':>4} {'analytic':>24} {'numeric':>24} "
            f"{'rel_err':>12} flag",
        ]
        for e in self.entries:
            mark = "FAIL" if self._fails(e) else "ok"
            lines.append(
                f"{e.which:<9} {e.index:>4} {e.analytic:>24.16e} "
                f"{e.numeric:>24.16e} {e.rel_err:>12.3e} {mark}"
            )
        lines.append(
            f"max rel err {self.max_rel_err:.3e} "
            f"(threshold {self.threshold:.1e}, step {self.step:.1e}): "
            + ("PASS" if self.passed() else "FAIL")
        )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "step": self.step,
            "threshold": self.threshold,
            "max_rel_err": self.max_rel_err,
            "passed": self.passed(),
            "entries": [
                {
                    "which": e.which,
                    "index": e.index,
                    "analytic": e.analytic,
                    "numeric": e.numeric,
                    "abs_err": e.abs_err,
                    "rel_err": e.rel_err,
                }
                for e in self.entries
            ],
        }


# The most floats a stacked probe evaluation may hold per (rows, examples,
# width) temporary.  A score set with more probes than fit runs in chunks,
# so memory stays O(n) however many pretraining examples an instance has.
_CHUNK_FLOATS = 2**20


def _repeat(params: model.ModelParams, K: int) -> model.ModelParams:
    """A stack of K copies of one model, as read-only views."""
    return model.ModelParams._of(
        params.arch,
        np.broadcast_to(params.encoder, (K,) + params.encoder.shape),
        np.broadcast_to(params.head, (K,) + params.head.shape))


class _Lookahead:
    """Validation loss after one pretraining step and one finetuning step,
    as a function of one instance's raw ignoring scores.

    Holds the work no score reaches (see the module docstring); a probe
    reads it, never writes it.  Probes run as stacks: each row of a stack
    is one probe's score vector, and the updates and the val forward run
    once for all rows.
    """

    def __init__(self, state: LbiState, bundle: DatasetBundle, cfg: LbiConfig):
        pre = bundle.pretrain
        engine._check_scores(state.ignore_pretrain, pre.n, "pretraining")
        self.state, self.bundle, self.cfg = state, bundle, cfg
        self.rates = cfg.rates_at(state.iteration)
        self.pre_fwd = engine._forward_or_none(state.pretrain_model, pre.X,
                                               pre.y)
        self.train_grad = model.weighted_grad(model._softmax_residual(
            state.finetune_model, bundle.train.X, bundle.train.y))
        self.source_fwd = None
        if engine._mixes_source(cfg):
            engine._check_scores(state.ignore_finetune, pre.n, "finetuning")
            self.source_fwd = engine._forward_or_none(state.finetune_model,
                                                      pre.X, pre.y)
        self.b = (None if state.ignore_finetune is None
                  else state.ignore_finetune.effective())
        # The engine's updates are looked up at call time, so a patched
        # engine is what gets differenced.  No finetuning score reaches the
        # pretraining step, so their probes share the unperturbed one.
        self.pretrained = engine._pretrain_update(
            state.pretrain_model, self.pre_fwd,
            state.ignore_pretrain.effective(), self.rates, cfg.weight_decay)
        if self.pre_fwd is not None:
            failed = engine._first_failures(
                [("pretraining encoder update", self.pretrained.encoder, None),
                 ("pretraining head update", self.pretrained.head, None)],
                state.iteration)
            if failed:
                raise failed[0]
        arch = state.pretrain_model.arch
        per_probe = 2 * (max(pre.n, bundle.val.n)
                         * max(arch.classes, arch.hidden)
                         + arch.encoder_size + arch.head_size)
        self.chunk = max(1, _CHUNK_FLOATS // per_probe)

    def val_losses(self, which: str, raw: np.ndarray) -> np.ndarray:
        """The loss at each row of ``raw``, a (K, n) stack of raw scores of
        the set ``which`` (the other set unmoved), each bit for bit the loss
        of that row alone.  A row whose update is not finite raises the
        NumericError that row alone raises; the first such row decides."""
        state, cfg = self.state, self.cfg
        K, it = raw.shape[0], state.iteration
        w = engine.IgnoreSet._of(raw, state.ignore_pretrain.mode).effective()
        checks = []
        if which == "pretrain":
            pretrained_next, b = engine._pretrain_update(
                state.pretrain_model, self.pre_fwd, w, self.rates,
                cfg.weight_decay), self.b
            if self.pre_fwd is not None:
                checks += [("pretraining encoder update",
                            pretrained_next.encoder, None),
                           ("pretraining head update",
                            pretrained_next.head, None)]
        else:
            pretrained_next, b = _repeat(self.pretrained, K), w
        finetuned_next = engine._finetune_update(
            _repeat(state.finetune_model, K), pretrained_next,
            self.train_grad, self.source_fwd, b, cfg.lam, cfg.gamma,
            self.rates, cfg.weight_decay)
        checks += [("finetuned encoder update", finetuned_next.encoder, None),
                   ("finetuned head update", finetuned_next.head, None)]
        failed = engine._first_failures(checks, it)
        if failed:
            raise failed[min(failed)]
        val = self.bundle.val
        return model.weighted_losses(
            model._softmax_residual(finetuned_next, val.X, val.y))

    def central_differences(self, which: str, indices,
                            step: float) -> np.ndarray:
        """The central difference of the loss in each raw score ``indices``
        of ``which``, from stacks of the probes (i + step, i - step) in
        index order, at most ``chunk`` indices per stack."""
        scores = (self.state.ignore_pretrain if which == "pretrain"
                  else self.state.ignore_finetune)
        indices = np.asarray(indices, dtype=np.intp)
        out = np.empty(len(indices))
        for start in range(0, len(indices), self.chunk):
            idx = indices[start:start + self.chunk]
            raw = np.tile(scores.raw, (2 * len(idx), 1))
            raw[np.arange(raw.shape[0]), np.repeat(idx, 2)] += np.tile(
                [step, -step], len(idx))
            losses = self.val_losses(which, raw)
            out[start:start + len(idx)] = ((losses[0::2] - losses[1::2])
                                           / (2.0 * step))
        return out


def fd_val_loss_wrt_ignore(state: LbiState, bundle: DatasetBundle,
                           cfg: LbiConfig, which: str, index: int,
                           step: float = 1e-4, *,
                           lookahead: _Lookahead | None = None) -> float:
    """Central difference of the lookahead validation loss in one raw score.

    Pure: never mutates the given state, and never calls the closed-form
    hypergradient functions.  ``lookahead`` is the instance's shared
    forwards, built here when not given.  The value is the one
    ``verify_hypergrads`` reports for this score: both run the same stacked
    probes, here a stack of two.
    """
    if which not in ("pretrain", "finetune"):
        raise ValueError(f"which must be 'pretrain' or 'finetune', got {which!r}")
    step = config.read_flag("verify", "step", step, "step")
    n = bundle.pretrain.n
    if not 0 <= index < n:
        raise IndexError(f"ignore index {index} outside 0..{n - 1}")
    if which == "finetune" and state.ignore_finetune is None:
        raise ValueError("state has no finetuning ignore scores")
    if lookahead is None:
        lookahead = _Lookahead(state, bundle, cfg)
    return float(lookahead.central_differences(which, [index], step)[0])


def _analytic_hypergrads(state: LbiState, bundle: DatasetBundle,
                         cfg: LbiConfig) -> tuple[np.ndarray, np.ndarray | None]:
    """The raw-score hypergradients of one full-batch iteration, from the
    iteration ``engine.run`` executes: (pretraining, finetuning; None in
    basic mode).  One the engine skips as identically zero comes back as
    zeros.  Raises the NumericError of a failed finite check."""
    cfg = replace(cfg, batch_size=None)
    _, _, failed, hgs = engine._iterate(state, bundle, cfg,
                                        engine._Cells.of([cfg]),
                                        cfg.rates_at(state.iteration))
    if failed:
        raise failed[0]
    hg_a, hg_b = (np.zeros(bundle.pretrain.n) if hg is None else hg
                  for hg in hgs)
    return hg_a, (hg_b if cfg.mode == "extended" else None)


def verify_hypergrads(state: LbiState, bundle: DatasetBundle, cfg: LbiConfig,
                      step: float = 1e-4, threshold: float = 1e-4) -> FdReport:
    """Compare both closed-form hypergradients against central differences,
    one component per pretraining example.  ``step`` and ``threshold`` must
    be finite and > 0 (else ValueError)."""
    step = config.read_flag("verify", "step", step, "step")
    threshold = config.read_flag("verify", "threshold", threshold, "threshold")
    lookahead = _Lookahead(state, bundle, cfg)
    hg_a, hg_b = _analytic_hypergrads(state, bundle, cfg)
    report = FdReport(step=step, threshold=threshold)
    for which, analytic in (("pretrain", hg_a), ("finetune", hg_b)):
        if analytic is None:
            continue
        numeric = lookahead.central_differences(
            which, range(bundle.pretrain.n), step)
        report.entries += [FdEntry(which, i, float(a), float(v))
                           for i, (a, v) in enumerate(zip(analytic, numeric))]
    return report


@dataclass
class CheckInstance:
    """A randomized small problem for hypergradient verification."""

    state: LbiState
    arrays: DatasetBundle
    cfg: LbiConfig


def make_check_instance(seed: int, hidden: int = 0, ignore_mode: str = "clamp",
                        mode: str = "extended", dim: int | None = None,
                        classes: int | None = None,
                        n_pretrain: int | None = None,
                        n_train: int | None = None, n_val: int | None = None,
                        lam: float | None = None,
                        gamma: float | None = None) -> CheckInstance:
    """Build a small randomized instance at a generic point.

    Sizes default to random draws within desk scale (dim <= 8, classes <= 3,
    10/8/6 examples).  Parameters are drawn wider than normal init and raw
    ignoring scores are drawn strictly inside the differentiable region, so
    the comparison happens away from special points.  Rates, lam, and gamma
    are drawn positive unless pinned by the caller.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(99,)))
    dim = dim if dim is not None else int(rng.integers(2, 9))
    classes = classes if classes is not None else int(rng.integers(2, 4))
    n_pretrain = n_pretrain if n_pretrain is not None else int(rng.integers(3, 11))
    n_train = n_train if n_train is not None else int(rng.integers(2, 9))
    n_val = n_val if n_val is not None else int(rng.integers(2, 7))

    spec = datasets.SynthSpec(
        dim=dim, classes=classes,
        n_pretrain=n_pretrain, n_train=n_train, n_val=n_val, n_test=2,
        shift=float(rng.uniform(0.0, 1.0)), noise_sigma=1.0,
        corrupt_frac=0.3, corrupt_kind="label_flip",
        seed=int(rng.integers(0, 2**31)),
    )
    arrays = datasets.generate(spec)

    cfg = LbiConfig(
        lam=float(rng.uniform(0.1, 0.8)) if lam is None else lam,
        gamma=float(rng.uniform(0.2, 1.0)) if gamma is None else gamma,
        lr_pretrain_encoder=float(rng.uniform(0.02, 0.2)),
        lr_pretrain_head=float(rng.uniform(0.02, 0.2)),
        lr_finetune_encoder=float(rng.uniform(0.02, 0.2)),
        lr_finetune_head=float(rng.uniform(0.02, 0.2)),
        iterations=1, mode=mode, ignore_mode=ignore_mode, hidden=hidden,
        seed=seed,
    )

    state = engine.init_state(arrays, cfg)
    arch = state.pretrain_model.arch
    state.pretrain_model = model.ModelParams(
        arch,
        rng.uniform(-0.6, 0.6, arch.encoder_size),
        rng.uniform(-0.6, 0.6, arch.head_size),
    )
    state.finetune_model = model.ModelParams(
        arch,
        rng.uniform(-0.6, 0.6, arch.encoder_size),
        rng.uniform(-0.6, 0.6, arch.head_size),
    )
    if ignore_mode == "clamp":
        # Strictly interior so clipping is inactive around the probe points.
        state.ignore_pretrain.raw = rng.uniform(0.2, 0.8, n_pretrain)
        if state.ignore_finetune is not None:
            state.ignore_finetune.raw = rng.uniform(0.2, 0.8, n_pretrain)
    else:
        state.ignore_pretrain.raw = rng.uniform(-1.2, 1.2, n_pretrain)
        if state.ignore_finetune is not None:
            state.ignore_finetune.raw = rng.uniform(-1.2, 1.2, n_pretrain)
    return CheckInstance(state, arrays, cfg)
