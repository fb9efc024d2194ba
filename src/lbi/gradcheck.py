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

All of an instance's probes run as one stack: first the probes of the
pretraining scores, then those of the finetuning scores, and within a set
row 2i holds the raw scores with score i moved by +step, row 2i + 1 by
-step.  A pretraining row takes its own pretraining step and the front's
b-weighted gradient; a finetuning row takes the front's pretraining step
and its own b-weighted gradient.  The engine's own update functions then
make one finetuning step for all rows at once along a leading row axis,
and one val forward scores them.  Each row's loss is bit for bit its
probe's alone, because the kernels sum every model of a stack in the order
of its one-model form (see ``model``; ``tests/test_stacked.py`` pins it on
the installed numpy and BLAS).  A stack's temporaries hold at most
``_CHUNK_FLOATS`` floats, so a large instance runs in chunks of probes, in
O(n) memory; a chunk may hold probes of both sets.  Every probe keeps its
finite checks: a chunk with a non-finite update raises the NumericError of
its first failing probe in (set, index, sign) order, the error that probe
raises alone.

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

import math
from dataclasses import dataclass, field, replace
from itertools import repeat
from operator import attrgetter

import numpy as np

from . import config, datasets, engine, model
from .datasets import DatasetBundle
from .engine import LbiConfig, LbiState

REL_ERR_FLOOR = 1e-12


def _rel_errs(analytic, numeric):
    """|analytic - numeric| / max(|analytic|, |numeric|, REL_ERR_FLOOR),
    elementwise; NaN where either side is not finite."""
    with np.errstate(all="ignore"):
        return np.abs(analytic - numeric) / np.maximum(
            np.maximum(np.abs(analytic), np.abs(numeric)), REL_ERR_FLOOR)


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
        return float(_rel_errs(self.analytic, self.numeric))


@dataclass
class FdReport:
    """Full comparison over every ignoring score of an instance."""

    step: float
    threshold: float
    entries: list[FdEntry] = field(default_factory=list)

    def _errors(self) -> np.ndarray:
        """Every entry's ``rel_err``, in entry order, in one array pass."""
        n = len(self.entries)
        return _rel_errs(*(np.fromiter(map(attrgetter(side), self.entries),
                                       float, n)
                           for side in ("analytic", "numeric")))

    @property
    def max_rel_err(self) -> float:
        """The largest relative error, NaN if any entry's is (a non-finite
        value on either side makes it NaN)."""
        return float(np.max(self._errors(), initial=0.0))

    def flagged(self) -> list[FdEntry]:
        # Not "rel_err >= threshold", which a NaN error would pass.
        return [e for e, err in zip(self.entries, self._errors().tolist())
                if not err < self.threshold]

    def passed(self) -> bool:
        return not self.flagged()

    def as_table(self) -> str:
        lines = [
            f"{'set':<9} {'idx':>4} {'analytic':>24} {'numeric':>24} "
            f"{'rel_err':>12} flag",
        ]
        for e, err in zip(self.entries, self._errors().tolist()):
            mark = "ok" if err < self.threshold else "FAIL"
            lines.append(
                f"{e.which:<9} {e.index:>4} {e.analytic:>24.16e} "
                f"{e.numeric:>24.16e} {err:>12.3e} {mark}"
            )
        lines.append(
            f"max rel err {self.max_rel_err:.3e} "
            f"(threshold {self.threshold:.1e}, step {self.step:.1e}): "
            + ("PASS" if self.passed() else "FAIL")
        )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """The report as JSON data.  A float that is not finite (a NaN or
        infinite value, or the error it makes) becomes None, JSON's null,
        since JSON has no token for it."""
        return {"step": self.step, "threshold": self.threshold,
                "max_rel_err": _finite(self.max_rel_err),
                "passed": self.passed(),
                "entries": [{"which": e.which, "index": e.index,
                             **{k: _finite(getattr(e, k)) for k in (
                                 "analytic", "numeric", "abs_err",
                                 "rel_err")}} for e in self.entries]}


def _finite(x: float) -> float | None:
    """``x``, or None if it is not finite."""
    return x if math.isfinite(x) else None


# The most floats a stacked probe evaluation may hold per (rows, examples,
# width) temporary.  An instance with more probes than fit runs in chunks,
# so memory stays O(n) however many pretraining examples it has.
_CHUNK_FLOATS = 2**20

SETS = ("pretrain", "finetune")


def _rows(a: np.ndarray, b: np.ndarray, ka: int, kb: int) -> np.ndarray:
    """One contiguous (ka + kb, P) stack: the rows ``a`` of the pretraining
    probes, then the rows ``b`` of the finetuning probes, each a (k, P)
    stack or one (P,) row that all k rows share.  Elementwise steps call
    numpy's inner loop once over contiguous rows, but once per row over a
    stride-0 view of one row."""
    if not kb and a.ndim == 2:
        return a
    out = np.empty((ka + kb, a.shape[-1]))
    out[:ka] = a
    out[ka:] = b
    return out


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
    reads the front, never writes it.  All of an instance's probes run as
    one stack, cut into chunks that may span both score sets: the rows of
    the pretraining score probes, then those of the finetuning score
    probes, each set in (index, sign) order.  The updates, the finite
    checks and the val forward run once per chunk, for all of its rows.
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

    def val_losses(self, raw_a: np.ndarray, raw_b: np.ndarray) -> np.ndarray:
        """The loss at each row of ``raw_a``, a (Ka, n) stack of raw
        pretraining scores (the finetuning scores unmoved), then at each
        row of ``raw_b``, a (Kb, n) stack of raw finetuning scores (the
        pretraining scores unmoved), each bit for bit the loss of that row
        alone.  A row whose update is not finite raises the NumericError
        that row alone raises; the first such row decides."""
        state, cfg, front, rates = self.state, self.cfg, self.front, self.rates
        mode = state.ignore_pretrain.mode
        ka, kb = len(raw_a), len(raw_b)
        # Pretraining rows take their own pretraining step and the front's
        # source gradient; finetuning rows take the front's pretraining
        # step and their own source gradient.
        pre = own_pre = front.pretrained_next
        src = own_src = front.source_grad
        if ka:
            own_pre = engine._pretrain_update(
                state.pretrain_model, front.pre_fwd,
                engine.IgnoreSet._of(raw_a, mode).effective(), rates,
                cfg.weight_decay)
        if kb and src is not None:
            own_src = model.weighted_grad(
                front.source_fwd, engine.IgnoreSet._of(raw_b, mode).effective())
        pretrained_next = model.ModelParams._of(
            pre.arch, _rows(own_pre.encoder, pre.encoder, ka, kb),
            _rows(own_pre.head, pre.head, ka, kb))
        source_grad = None if src is None else model.GradBlock(
            _rows(src.d_encoder, own_src.d_encoder, ka, kb),
            _rows(src.d_head, own_src.d_head, ka, kb))
        params = state.finetune_model
        finetuned_next = engine._finetune_update(
            model.ModelParams._of(
                params.arch, _rows(params.encoder, params.encoder, ka, kb),
                _rows(params.head, params.head, ka, kb)),
            pretrained_next, front.train_grad, source_grad, cfg.lam,
            cfg.gamma, rates, cfg.weight_decay)
        # A finetuning row's pretraining update is the front's, which
        # __init__ checked, so it never fails the check over every row.
        failed = engine._first_failures(
            engine._update_checks(pretrained_next, finetuned_next),
            state.iteration)
        if failed:
            raise failed[min(failed)]
        val = self.bundle.val
        return model.weighted_losses(
            model._softmax_residual(finetuned_next, val.X, val.y))

    def central_differences(self, indices: dict,
                            step: float) -> dict[str, np.ndarray]:
        """The central differences of the loss in the raw scores that
        ``indices`` names, {set: indices of its raw scores} with set
        "pretrain" or "finetune" (ValueError for a set the state has no
        scores of), as {set: differences in index order}.  They come from
        one stack of the probes (i + step, i - step), pretraining scores
        first, at most ``chunk`` probe pairs per chunk.  Pure: the state is
        never written."""
        scores = dict(zip(SETS, (self.state.ignore_pretrain,
                                 self.state.ignore_finetune)))
        for which in indices:
            if scores.get(which) is None:
                raise ValueError(f"the state has no {which!r} ignore scores")
        idx_a, idx_b = (np.asarray(indices.get(which, ()), dtype=np.intp)
                        for which in SETS)
        n_a, idx = len(idx_a), np.concatenate([idx_a, idx_b])
        out = np.empty(len(idx))
        # Each chunk's probe rows are written in place over one buffer.
        buffer = np.empty((2 * min(self.chunk, len(idx)),
                           self.bundle.pretrain.n))
        for start in range(0, len(idx), self.chunk):
            pairs = idx[start:start + self.chunk]
            k = len(pairs)
            ka = min(max(n_a - start, 0), k)
            rows = buffer[:2 * k]
            if ka:
                rows[:2 * ka] = scores["pretrain"].raw
            if ka < k:
                rows[2 * ka:] = scores["finetune"].raw
            at = np.arange(k)
            rows[0::2][at, pairs] += step
            rows[1::2][at, pairs] -= step
            losses = self.val_losses(rows[:2 * ka], rows[2 * ka:])
            out[start:start + k] = (losses[0::2] - losses[1::2]) / (2.0 * step)
        diffs = dict(zip(SETS, (out[:n_a], out[n_a:])))
        return {which: diffs[which] for which in indices}


def verify_hypergrads(state: LbiState, bundle: DatasetBundle, cfg: LbiConfig,
                      step: float = 1e-4, threshold: float = 1e-4) -> FdReport:
    """Compare both closed-form hypergradients against central differences,
    one component per pretraining example.  ``step`` and ``threshold`` must
    be finite and > 0 (else ValueError)."""
    step = config.read_flag("verify", "step", step, "step")
    threshold = config.read_flag("verify", "threshold", threshold, "threshold")
    lookahead = _Lookahead(state, bundle, cfg)
    report = FdReport(step=step, threshold=threshold)
    every = range(bundle.pretrain.n)
    checked = {which: hg for which, hg in zip(SETS, lookahead.hypergrads)
               if hg is not None}
    numeric = lookahead.central_differences(dict.fromkeys(checked, every),
                                            step)
    for which, analytic in checked.items():
        report.entries += map(FdEntry, repeat(which), every,
                              analytic.tolist(), numeric[which].tolist())
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
