"""Ablation matrix, corruption-recovery scoring, and sensitivity sweeps.

The ablation grid switches the three mechanisms of the method on and off
independently: the encoder proximity term (lam), the source-data term inside
finetuning (gamma), and whether each of the two ignoring-weight sets is
learned or frozen at fully-on.  Identifiers:

    id    proximity  source term  pretraining weights  finetuning weights
    A1    off        off          frozen               frozen
    A2    off        on           frozen               frozen
    A3    off        on           frozen               learned
    A4    on         off          frozen               frozen
    A5    on         on           frozen               frozen
    A6    on         on           frozen               learned
    A7    on         off          learned              frozen
    A8    on         on           learned              frozen
    FULL  on         on           learned              learned

"Frozen" keeps every raw score at its fully-on initialization, bit-exact,
while the matching mechanism (when on) still uses those constant weights.
Note A1 also freezes the pretraining weights because with the proximity term
off the pretraining model cannot influence the validation loss, so there is
no signal to learn them from; A2 and A3 are in the same position.  All
ablations run in extended mode so the nine cells differ only in the switches
above.

Every matrix and sweep trains its cells through ``run_cell``: as one
``engine.run_stack`` stack or, when it is large, as two halves of it in two
processes (``stack_processes``).  Each cell is bit for bit its solo run.
"""

from __future__ import annotations

import os
import pickle
import threading
from dataclasses import dataclass

import numpy as np

from . import config, engine, model
from .config import ABLATION_IDS
from .datasets import DatasetBundle, SynthSpec, generate
from .engine import LbiConfig, LbiState
from .errors import ConfigError, NumericError


@dataclass(frozen=True)
class AblationSwitches:
    proximity: bool
    source_term: bool
    learn_pretrain_weights: bool
    learn_finetune_weights: bool


_ABLATIONS: dict[str, AblationSwitches] = {
    "A1": AblationSwitches(False, False, False, False),
    "A2": AblationSwitches(False, True, False, False),
    "A3": AblationSwitches(False, True, False, True),
    "A4": AblationSwitches(True, False, False, False),
    "A5": AblationSwitches(True, True, False, False),
    "A6": AblationSwitches(True, True, False, True),
    "A7": AblationSwitches(True, False, True, False),
    "A8": AblationSwitches(True, True, True, False),
    "FULL": AblationSwitches(True, True, True, True),
}


def ablation_switches(ablation_id: str) -> AblationSwitches:
    try:
        return _ABLATIONS[ablation_id]
    except KeyError:
        raise ConfigError(
            f"unknown ablation {ablation_id!r}; known: {', '.join(ABLATION_IDS)}"
        ) from None


def ablation_config(ablation_id: str, base: LbiConfig) -> LbiConfig:
    """Base config with one ablation's switches applied.

    The base config supplies lam and gamma for the cells that keep those
    mechanisms on; switched-off mechanisms get exact zeros, which the engine
    short-circuits, so e.g. the A3 trajectory is bit-identical to FULL run
    with lam = 0.
    """
    sw = ablation_switches(ablation_id)
    if base.mode != "extended":
        raise ConfigError("ablations are defined for extended mode")
    return engine.config_with(
        base,
        lam=base.lam if sw.proximity else 0.0,
        gamma=base.gamma if sw.source_term else 0.0,
        freeze_ignore_pretrain=not sw.learn_pretrain_weights,
        freeze_ignore_finetune=not sw.learn_finetune_weights,
    )


def accuracy(params: model.ModelParams, X: np.ndarray, y: np.ndarray) -> float:
    """Fraction of correct argmax predictions."""
    if X.shape[0] == 0:
        raise ValueError("cannot score an empty split")
    return float(np.mean(model.predict(params, X) == np.asarray(y)))


def corrupted_recovery_auc(effective_weights: np.ndarray,
                           corrupted) -> float | None:
    """How well low weights pick out corrupted examples.

    Area under the ROC curve for "corrupted" scored by descending weight
    rank: 1.0 means every corrupted example got a lower weight than every
    clean one, 0.5 is chance.  Ties share rank credit.  ``corrupted`` is a
    boolean flag array over the pretraining split (a bundle's
    ``corrupted``).  Returns None when either class is empty (the statistic
    is undefined).
    """
    w = np.asarray(effective_weights, dtype=np.float64)
    flags = np.asarray(corrupted, dtype=bool)
    if w.shape != flags.shape or w.ndim != 1:
        raise ValueError("weights and corruption flags must be matching 1-D arrays")
    n_pos = int(flags.sum())
    n_neg = int((~flags).sum())
    if n_pos == 0 or n_neg == 0:
        return None
    ranks = _average_ranks(w)
    # Pairs (clean, corrupted) with clean weight above corrupted weight,
    # counting ties as half, via the rank-sum identity.
    u = ranks[~flags].sum() - n_neg * (n_neg + 1) / 2.0
    return float(u / (n_pos * n_neg))


def _average_ranks(w: np.ndarray) -> np.ndarray:
    """1-based ranks of w in ascending order, tied values sharing the mean
    of their ranks, as ``scipy.stats.rankdata(w)`` gives them, without
    importing ``scipy.stats``: a large import that nothing else needs."""
    order = np.argsort(w, kind="stable")
    ordered = w[order]
    new = np.concatenate(([True], ordered[1:] != ordered[:-1]))
    starts = np.flatnonzero(new)  # first sorted position of each tie group
    ends = np.append(starts[1:], len(w))
    ranks = np.empty(len(w))
    ranks[order] = (0.5 * (starts + ends + 1))[np.cumsum(new) - 1]
    return ranks


def _check_test_split(bundle: DatasetBundle):
    if bundle.test.n == 0:
        raise ConfigError("the test split is empty: there is nothing to score")


def score(state: LbiState, bundle: DatasetBundle) -> dict:
    """A trained state's scores on a bundle, keyed as ``RunResult``'s
    fields: test and val accuracy of the finetuned model, each set's final
    effective ignoring weights (the finetuning set's None in basic mode) and
    recovery AUC.  ConfigError unless the state fits the bundle
    (``engine.check_fit``) and its test split is nonempty."""
    engine.check_fit(state, bundle)
    _check_test_split(bundle)
    p = state.finetune_model
    a = state.ignore_pretrain.effective()
    b = (None if state.ignore_finetune is None
         else state.ignore_finetune.effective())
    return {
        "test_accuracy": accuracy(p, bundle.test.X, bundle.test.y),
        "val_accuracy": accuracy(p, bundle.val.X, bundle.val.y),
        "final_ignore_pretrain": a,
        "final_ignore_finetune": b,
        "recovery_auc_pretrain": corrupted_recovery_auc(a, bundle.corrupted),
        "recovery_auc_finetune": (None if b is None else
                                  corrupted_recovery_auc(b, bundle.corrupted)),
    }


@dataclass
class RunResult:
    """Outcome of one cell: its scores (``score``), or the error that
    stopped it.  ``ablation`` is the cell's label: an ablation id in a
    matrix, a grid value in a sweep."""

    ablation: str | float
    seed: int
    config: LbiConfig
    test_accuracy: float | None = None
    val_accuracy: float | None = None
    recovery_auc_pretrain: float | None = None
    recovery_auc_finetune: float | None = None
    final_ignore_pretrain: np.ndarray | None = None
    final_ignore_finetune: np.ndarray | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class AggregateRow:
    """One entry's block of cells (one per seed): how many finished, and
    the mean and std of their scores.  ``ablation`` is the entry's label."""

    ablation: str | float
    n_ok: int
    test_accuracy_mean: float | None
    test_accuracy_std: float | None
    val_accuracy_mean: float | None
    val_accuracy_std: float | None
    recovery_auc_mean: float | None
    recovery_auc_std: float | None


@dataclass
class MatrixResult:
    """Every cell, entry-major (each entry's seeds one block, in seed
    order), and one aggregate row per entry.  A sweep's entries are its
    grid values, and ``param`` names the swept regularizer."""

    results: list[RunResult]
    aggregates: list[AggregateRow]
    param: str | None = None

    @property
    def any_failed(self) -> bool:
        return any(not r.ok for r in self.results)

    def aggregate(self, ablation_id: str) -> AggregateRow:
        for row in self.aggregates:
            if row.ablation == ablation_id:
                return row
        raise KeyError(ablation_id)

    def blocks(self) -> list[tuple[AggregateRow, list[RunResult]]]:
        """Each aggregate row with its entry's cells."""
        n = len(self.results) // len(self.aggregates)
        return [(row, self.results[i * n:(i + 1) * n])
                for i, row in enumerate(self.aggregates)]

    @property
    def argmax_value(self):
        """Label with the best mean validation accuracy (first on ties): a
        sweep's best grid value."""
        best = None
        for row in self.aggregates:
            m = row.val_accuracy_mean
            if m is not None and (best is None or m > best.val_accuracy_mean):
                best = row
        if best is None:
            raise NumericError("every sweep point failed")
        return best.ablation

    @property
    def argmax_interior(self) -> bool:
        """True when the best value sits strictly inside the sorted grid."""
        values = sorted(row.ablation for row in self.aggregates)
        return values[0] < self.argmax_value < values[-1]


def _resolve_bundle(data) -> DatasetBundle:
    """A bundle as given, or generated from a SynthSpec."""
    return generate(data) if isinstance(data, SynthSpec) else data


# Two processes for a stack of 4 or more cells from this many cells x
# iterations x pretraining batch rows on (a fork shares no GIL).  Median
# times on 2 vCPU, BLAS on 1 thread, 200 rows (README "Performance" has
# every point measured):
#     cells x iterations       product    one -> two processes
#     sweep    4 x 300         240,000    197.9 -> 220.3 ms
#     matrix  45 x  20         180,000     54.7 ->  48.5 ms
#     sweep    8 x 300         480,000    219.9 -> 213.6 ms
#     matrix  45 x  60         540,000    118.2 ->  92.1 ms
#     sweep   15 x 200         600,000    173.2 -> 164.5 ms
#     matrix  45 x 300       2,700,000    443.5 -> 331.6 ms
SPLIT_MIN_CELL_ROW_ITERATIONS = 500_000


def stack_processes(bundle: DatasetBundle, cfg: LbiConfig, n_cells: int) -> int:
    """How many processes ``run_cell`` trains ``n_cells`` stacked cells of
    ``cfg``'s shared fields on: 2 by the rule above, on Linux with no other
    Python thread alive (a fork copies only the calling thread), else 1."""
    n_pre = bundle.pretrain.n
    rows = n_pre if cfg.batch_size is None else min(cfg.batch_size, n_pre)
    splits = (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
              and engine._usable_cpus() >= 2
              and threading.active_count() == 1 and n_cells >= 4
              and n_cells * cfg.iterations * rows
              >= SPLIT_MIN_CELL_ROW_ITERATIONS)
    return 2 if splits else 1


def run_cell(bundle: DatasetBundle,
             cells: list[tuple[object, LbiConfig]]) -> list[RunResult]:
    """Train the given (label, config) cells as one stack
    (``engine.run_stack``); one RunResult per cell, in order, scored by
    ``score``.  Numeric failures are recorded per cell, not raised.  Before
    any training, a bundle that fails ``DatasetBundle.validate`` raises its
    ValueError, and an empty test split, or cells that make no stack, a
    ConfigError.  When ``stack_processes`` says 2, a forked child (reaped
    on every path) runs the second half meanwhile.  Its exception is raised
    once the first half is done, unless that half raised; a child that dies
    or garbles its results is a RuntimeError naming its exit status."""
    bundle.validate()
    _check_test_split(bundle)
    cfg = engine.check_stack([c for _, c in cells])
    if stack_processes(bundle, cfg, len(cells)) == 1:
        return _run_cells(bundle, cells)
    half = len(cells) // 2
    cpus = _other_cpus()
    read, write = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:
        _child(bundle, cells[half:], read, write, cpus)
    os.close(write)
    with open(read, "rb") as pipe:
        try:
            first = _run_cells(bundle, cells[:half])
            data = pipe.read()
        except BaseException:
            import signal  # not imported with lbi
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    try:
        error, second = pickle.loads(data)
    except Exception:
        error, second = None, None
    if status != 0 or (error is None and second is None):
        raise RuntimeError(
            f"the process training the stack's second half ended with "
            f"status {status} and {len(data)} bytes of results")
    if error is not None:
        raise error
    return first + second


def _other_cpus() -> set:
    """The CPUs this process may run on but the one this thread runs on
    now; empty when that is not known."""
    try:
        with open("/proc/thread-self/stat") as f:
            here = int(f.read().rsplit(")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return set()
    return os.sched_getaffinity(0) - {here}


def _child(bundle: DatasetBundle, cells: list, read: int, write: int,
           cpus: set):
    """A forked child's life: train and score ``cells`` on ``cpus``, pickle
    the RunResults, or the exception that stopped them, to the pipe
    ``write`` and leave by ``os._exit`` (no atexit handler, no flush of the
    parent's stdio buffers), with status 0 once all is sent, else 1."""
    status = 1
    try:
        os.close(read)
        # A child starts on its parent's CPU, and the kernel may keep both
        # there for tens of milliseconds.
        if cpus:
            os.sched_setaffinity(0, cpus)
        try:
            out = None, _run_cells(bundle, cells)
        except Exception as e:
            out = e, None
        with open(write, "wb") as pipe:
            pipe.write(pickle.dumps(out, pickle.HIGHEST_PROTOCOL))
        status = 0
    finally:
        os._exit(status)


def _run_cells(bundle: DatasetBundle,
               cells: list[tuple[object, LbiConfig]]) -> list[RunResult]:
    """``run_cell`` in this process: the cells as one stack, scored."""
    results = []
    for (label, cfg), out in zip(
            cells, engine.run_stack(bundle, [cfg for _, cfg in cells])):
        if isinstance(out, NumericError):
            results.append(RunResult(
                label, cfg.seed, cfg,
                error=f"numeric failure at iteration {out.iteration}: {out}"))
        else:
            results.append(RunResult(label, cfg.seed, cfg, **score(out, bundle)))
    return results


def _mean_std(values: list[float]) -> tuple[float | None, float | None]:
    if not values:
        return None, None
    mean = float(np.mean(values))
    std = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
    return mean, std


def _run_blocks(data, entries: list, seeds: list, cfg_of,
                param: str | None = None) -> MatrixResult:
    """Every (entry, seed) cell with config ``cfg_of(entry, seed)``, run as
    one ``run_cell`` call (one stack, or two halves of it in two processes)
    and one aggregate row per entry over its own block of seeds (the cells
    that finished)."""
    cells = [(entry, cfg_of(entry, seed)) for entry in entries
             for seed in seeds]
    results = run_cell(_resolve_bundle(data), cells)
    aggregates = []
    for i, entry in enumerate(entries):
        ok = [r for r in results[i * len(seeds):(i + 1) * len(seeds)] if r.ok]
        aucs = [r.recovery_auc_pretrain for r in ok
                if r.recovery_auc_pretrain is not None]
        aggregates.append(AggregateRow(
            entry, len(ok), *_mean_std([r.test_accuracy for r in ok]),
            *_mean_std([r.val_accuracy for r in ok]), *_mean_std(aucs)))
    return MatrixResult(results, aggregates, param)


def run_matrix(data, ids, seeds, base_cfg: LbiConfig) -> MatrixResult:
    """Run every (ablation, seed) cell on one shared bundle, all in one
    stack (one ``run_cell`` call).

    The bundle is generated once; seeds vary only the parameter
    initialization, so comparisons across ablations are paired.  Returns one
    RunResult per cell (id-major order) plus one aggregate row per id
    computed over the cells that finished.
    """
    ids = list(ids)
    seeds = list(seeds)
    if not ids or not seeds:
        raise ConfigError("need at least one ablation id and one seed")
    return _run_blocks(data, ids, seeds, lambda ablation_id, seed: (
        ablation_config(ablation_id, engine.config_with(base_cfg, seed=seed))))


def sweep(param: str, grid, data, seeds, base_cfg: LbiConfig) -> MatrixResult:
    """Mean validation accuracy of the full method across one regularizer
    grid, holding everything else at the base config: one aggregate row per
    grid entry, labelled by its value.

    ``param`` is "lambda" or "gamma".  The grid needs at least three distinct
    values so interior-versus-endpoint is meaningful.  Every (value, seed)
    cell runs in one stack; grid order does not affect per-point results,
    since each cell depends only on (value, seed).
    """
    param = config.read_flag("sweep", "param", param, "sweep param")
    grid = config.read_flag("sweep", "grid", grid, "sweep grid")
    if len(set(grid)) < 3:
        raise ConfigError(f"sweep grid needs at least 3 distinct values, got {grid}")
    seeds = config.read_flag("sweep", "seeds", seeds, "seeds")
    field = "lam" if param == "lambda" else "gamma"
    return _run_blocks(data, grid, seeds, lambda value, seed: (
        engine.config_with(base_cfg, seed=seed, **{field: value})), param)
