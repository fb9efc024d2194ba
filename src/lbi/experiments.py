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

Every matrix and sweep trains its cells through ``run_cell``: one
``engine.run_stack`` stack (which ``engine.plan`` may split over two
processes), each cell scored here.  Each cell is bit for bit its solo run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import config, engine, model
from .config import ABLATION_IDS
from .datasets import DatasetBundle, SynthSpec, generate
from .engine import LbiConfig, LbiState
from .errors import ConfigError, NumericError


# Each id's switches, as the module docstring's table gives them: proximity,
# source term, learned pretraining weights, learned finetuning weights.
_ABLATIONS: dict[str, tuple[bool, bool, bool, bool]] = {
    "A1": (False, False, False, False),
    "A2": (False, True, False, False),
    "A3": (False, True, False, True),
    "A4": (True, False, False, False),
    "A5": (True, True, False, False),
    "A6": (True, True, False, True),
    "A7": (True, False, True, False),
    "A8": (True, True, True, False),
    "FULL": (True, True, True, True),
}


def ablation_config(ablation_id: str, base: LbiConfig) -> LbiConfig:
    """Base config with one ablation's switches applied.

    The base config supplies lam and gamma for the cells that keep those
    mechanisms on; switched-off mechanisms get exact zeros, which the engine
    short-circuits, so e.g. the A3 trajectory is bit-identical to FULL run
    with lam = 0.
    """
    if ablation_id not in _ABLATIONS:
        raise ConfigError(
            f"unknown ablation {ablation_id!r}; known: {', '.join(ABLATION_IDS)}")
    proximity, source_term, learn_pretrain, learn_finetune = (
        _ABLATIONS[ablation_id])
    if base.mode != "extended":
        raise ConfigError("ablations are defined for extended mode")
    return replace(
        base,
        lam=base.lam if proximity else 0.0,
        gamma=base.gamma if source_term else 0.0,
        freeze_ignore_pretrain=not learn_pretrain,
        freeze_ignore_finetune=not learn_finetune,
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


def run_cell(bundle: DatasetBundle,
             cells: list[tuple[object, LbiConfig]]) -> list[RunResult]:
    """Train the given (label, config) cells as one stack
    (``engine.run_stack``, which may split it over two processes); one
    RunResult per cell, in order, scored by ``score``.  Numeric failures
    are recorded per cell, not raised.  An empty test split is a
    ConfigError before any training."""
    _check_test_split(bundle)
    outs = engine.run_stack(bundle, [cfg for _, cfg in cells])
    return [RunResult(label, cfg.seed, cfg, **(
        {"error": f"numeric failure at iteration {out.iteration}: {out}"}
        if isinstance(out, NumericError) else score(out, bundle)))
        for (label, cfg), out in zip(cells, outs)]


def _mean_std(values: list[float]) -> tuple[float | None, float | None]:
    if not values:
        return None, None
    mean = float(np.mean(values))
    std = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
    return mean, std


def _run_blocks(data, entries: list, seeds: list, cfg_of,
                param: str | None = None) -> MatrixResult:
    """Every (entry, seed) cell with config ``cfg_of(entry, seed)``, run as
    one ``run_cell`` call (one stack), and one aggregate row per entry over
    the cells of its block of seeds that finished."""
    cells = [(entry, cfg_of(entry, seed)) for entry in entries
             for seed in seeds]
    results = run_cell(generate(data) if isinstance(data, SynthSpec)
                       else data, cells)
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
        ablation_config(ablation_id, replace(base_cfg, seed=seed))))


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
        replace(base_cfg, seed=seed, **{field: value})), param)
