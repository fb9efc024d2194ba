"""Finite-difference verification of the ignoring-weight hypergradients.

The engine's hypergradients are closed-form derivatives of the composed map

    raw scores -> (pretraining step) -> (finetuning step) -> validation loss

so they can be checked against central differences on that exact map: nudge
one raw score, rerun the two updates that an iteration of the engine runs,
and difference the validation loss at the looked-ahead model.

Each instance runs the iteration ``engine.run`` executes once, on the full
batch, in its two halves: ``engine._front``, everything before the
finetuning step, and ``engine._finish``, the rest up to the score step.
That one pass is the analytic side: its hypergradients are the ones a run
steps the scores along, so a check passes only when the code that trains
is right.  The pass itself makes no score step (``engine._iterate`` makes
it), so it writes nothing of the instance's state.  Its front is also
the work no score reaches, which the probes share: the forwards of the
pretraining model and (when gamma mixes it in) the finetuned model on the
pretraining split, the finetuned model's unweighted train gradient, for
the probes of a pretraining score its b-weighted gradient on the
pretraining split, and, for the probes of a finetuning score, the
unperturbed pretraining step.  All of it is taken at the incoming models,
which no score moves; a score only weights its example's residual inside
an update.  So sharing it changes no probe's value by a bit.  The pass's
own finite checks raise in its order, before any probe runs.

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
front and the step arithmetic, so an error in either surfaces as
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
        return {"step": self.step, "threshold": self.threshold,
                "max_rel_err": self.max_rel_err, "passed": self.passed(),
                "entries": [{**vars(e), "abs_err": e.abs_err,
                             "rel_err": e.rel_err} for e in self.entries]}


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
    as a function of one instance's raw ignoring scores, and the analytic
    hypergradients it is checked against.

    Both come from one full-batch pass of the engine's iteration
    (``engine._front`` and ``engine._finish``, without the trace values
    that nothing here reads and without the score step, so the state
    keeps its bytes): ``hypergrads`` holds its
    raw-score hypergradients (pretraining, finetuning; None in basic mode),
    a set the engine skips as identically zero as zeros, and ``front`` the
    work no score reaches (see the module docstring).  A failed finite check
    of that pass raises its NumericError here, before any probe.  A probe
    reads the front, never writes it.  Probes run as stacks: each row of a
    stack is one probe's score vector, and the updates and the val forward
    run once for all rows.
    """

    def __init__(self, state: LbiState, bundle: DatasetBundle, cfg: LbiConfig):
        bundle.validate()
        engine.check_fit(state, bundle)
        if cfg.batch_size is not None:
            cfg = replace(cfg, batch_size=None)
        self.state, self.bundle, self.cfg = state, bundle, cfg
        self.rates = cfg.rates_at(state.iteration)
        cells = engine._Cells.of([cfg])
        self.front = engine._front(state, bundle, cfg, cells, self.rates,
                                   (None, None, None))
        _, _, failed, hgs, _ = engine._finish(state, bundle, cfg, cells,
                                              self.rates, self.front,
                                              trace=False)
        if failed:
            raise failed[0]
        hg_a, hg_b = (np.zeros(bundle.pretrain.n) if hg is None else hg
                      for hg in hgs)
        self.hypergrads = (hg_a, hg_b if cfg.mode == "extended" else None)
        arch = state.pretrain_model.arch
        pre = bundle.pretrain
        per_probe = 2 * (max(pre.n, bundle.val.n)
                         * max(arch.classes, arch.hidden)
                         + arch.encoder_size + arch.head_size)
        self.chunk = max(1, _CHUNK_FLOATS // per_probe)

    def val_losses(self, which: str, raw: np.ndarray) -> np.ndarray:
        """The loss at each row of ``raw``, a (K, n) stack of raw scores of
        the set ``which`` (the other set unmoved), each bit for bit the loss
        of that row alone.  A row whose update is not finite raises the
        NumericError that row alone raises; the first such row decides."""
        state, cfg, front = self.state, self.cfg, self.front
        K, it = raw.shape[0], state.iteration
        w = engine.IgnoreSet._of(raw, state.ignore_pretrain.mode).effective()
        if which == "pretrain":
            pretrained_next = engine._pretrain_update(
                state.pretrain_model, front.pre_fwd, w, self.rates,
                cfg.weight_decay)
            source_grad = front.source_grad
        else:
            pretrained_next = _repeat(front.pretrained_next, K)
            source_grad = (None if front.source_fwd is None
                           else model.weighted_grad(front.source_fwd, w))
        finetuned_next = engine._finetune_update(
            _repeat(state.finetune_model, K), pretrained_next,
            front.train_grad, source_grad, cfg.lam, cfg.gamma,
            self.rates, cfg.weight_decay)
        failed = engine._first_failures(engine._update_checks(
            pretrained_next if which == "pretrain" else None, finetuned_next),
            it)
        if failed:
            raise failed[min(failed)]
        val = self.bundle.val
        return model.weighted_losses(
            model._softmax_residual(finetuned_next, val.X, val.y))

    def central_differences(self, which: str, indices,
                            step: float) -> np.ndarray:
        """The central difference of the loss in each raw score ``indices``
        of ``which`` ("pretrain" or "finetune", ValueError if the state has
        no such scores), from stacks of the probes (i + step, i - step) in
        index order, at most ``chunk`` indices per stack.  Pure: the state
        is never written."""
        scores = {"pretrain": self.state.ignore_pretrain,
                  "finetune": self.state.ignore_finetune}.get(which)
        if scores is None:
            raise ValueError(f"the state has no {which!r} ignore scores")
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


def verify_hypergrads(state: LbiState, bundle: DatasetBundle, cfg: LbiConfig,
                      step: float = 1e-4, threshold: float = 1e-4) -> FdReport:
    """Compare both closed-form hypergradients against central differences,
    one component per pretraining example.  ``step`` and ``threshold`` must
    be finite and > 0 (else ValueError)."""
    step = config.read_flag("verify", "step", step, "step")
    threshold = config.read_flag("verify", "threshold", threshold, "threshold")
    lookahead = _Lookahead(state, bundle, cfg)
    report = FdReport(step=step, threshold=threshold)
    for which, analytic in zip(("pretrain", "finetune"), lookahead.hypergrads):
        if analytic is None:
            continue
        numeric = lookahead.central_differences(
            which, range(bundle.pretrain.n), step)
        report.entries += [FdEntry(which, i, a, v) for i, (a, v) in enumerate(
            zip(analytic.tolist(), numeric.tolist()))]
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
    are drawn positive unless pinned by the caller; basic mode, which has no
    gamma term, takes gamma = 0 without a draw.
    """
    if gamma is None and mode == "basic":
        gamma = 0.0
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
    state.pretrain_model, state.finetune_model = (
        model.ModelParams(arch, rng.uniform(-0.6, 0.6, arch.encoder_size),
                          rng.uniform(-0.6, 0.6, arch.head_size))
        for _ in range(2))
    # Clamp-mode scores strictly interior, so clipping is inactive around
    # the probe points.
    lo, hi = (0.2, 0.8) if ignore_mode == "clamp" else (-1.2, 1.2)
    for scores in (state.ignore_pretrain, state.ignore_finetune):
        if scores is not None:
            scores.raw = rng.uniform(lo, hi, n_pretrain)
    return CheckInstance(state, arrays, cfg)
