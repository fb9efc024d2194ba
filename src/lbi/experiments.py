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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import rankdata

from . import config, engine, model
from .config import ABLATION_IDS
from .datasets import DatasetBundle, SynthSpec, generate
from .engine import LbiConfig
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
    ranks = rankdata(w)
    # Pairs (clean, corrupted) with clean weight above corrupted weight,
    # counting ties as half, via the rank-sum identity.
    u = ranks[~flags].sum() - n_neg * (n_neg + 1) / 2.0
    return float(u / (n_pos * n_neg))


@dataclass
class RunResult:
    """Outcome of one (ablation, seed) cell."""

    ablation: str
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
    ablation: str
    n_ok: int
    test_accuracy_mean: float | None
    test_accuracy_std: float | None
    val_accuracy_mean: float | None
    val_accuracy_std: float | None
    recovery_auc_mean: float | None
    recovery_auc_std: float | None


@dataclass
class MatrixResult:
    results: list[RunResult]
    aggregates: list[AggregateRow]

    @property
    def any_failed(self) -> bool:
        return any(not r.ok for r in self.results)

    def aggregate(self, ablation_id: str) -> AggregateRow:
        for row in self.aggregates:
            if row.ablation == ablation_id:
                return row
        raise KeyError(ablation_id)


def _resolve_bundle(data) -> DatasetBundle:
    """A bundle as given, or generated from a SynthSpec."""
    return generate(data) if isinstance(data, SynthSpec) else data


def run_cell(arrays: DatasetBundle, base_cfg: LbiConfig,
             cells: list[tuple[str, int]]) -> list[RunResult]:
    """Train the given (ablation id, seed) cells as one stack
    (``engine.run_stack``); one RunResult per cell, in order.  Numeric
    failures are recorded per cell, not raised."""
    cfgs = [ablation_config(ablation_id, engine.config_with(base_cfg, seed=seed))
            for ablation_id, seed in cells]
    results = []
    for (ablation_id, seed), cfg, out in zip(
            cells, cfgs, engine.run_stack(arrays, cfgs)):
        result = RunResult(ablation=ablation_id, seed=seed, config=cfg)
        results.append(result)
        if isinstance(out, NumericError):
            result.error = f"numeric failure at iteration {out.iteration}: {out}"
            continue
        result.test_accuracy = accuracy(out.finetune_model,
                                        arrays.test.X, arrays.test.y)
        result.val_accuracy = accuracy(out.finetune_model,
                                       arrays.val.X, arrays.val.y)
        a = out.ignore_pretrain.effective()
        result.final_ignore_pretrain = a
        result.recovery_auc_pretrain = corrupted_recovery_auc(a, arrays.corrupted)
        if out.ignore_finetune is not None:
            b = out.ignore_finetune.effective()
            result.final_ignore_finetune = b
            result.recovery_auc_finetune = corrupted_recovery_auc(
                b, arrays.corrupted)
    return results


def _mean_std(values: list[float]) -> tuple[float | None, float | None]:
    if not values:
        return None, None
    mean = float(np.mean(values))
    std = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
    return mean, std


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
    for ablation_id in ids:
        ablation_switches(ablation_id)
    arrays = _resolve_bundle(data)
    results = run_cell(arrays, base_cfg,
                       [(ablation_id, seed) for ablation_id in ids
                        for seed in seeds])

    aggregates = []
    for ablation_id in ids:
        ok = [r for r in results if r.ablation == ablation_id and r.ok]
        test_m, test_s = _mean_std([r.test_accuracy for r in ok])
        val_m, val_s = _mean_std([r.val_accuracy for r in ok])
        aucs = [r.recovery_auc_pretrain for r in ok
                if r.recovery_auc_pretrain is not None]
        auc_m, auc_s = _mean_std(aucs)
        aggregates.append(AggregateRow(
            ablation_id, len(ok), test_m, test_s, val_m, val_s, auc_m, auc_s,
        ))
    return MatrixResult(results, aggregates)


@dataclass
class SeedOutcome:
    """One seed's run at one sweep point: its accuracies, or the error that
    stopped it (a message naming the seed)."""

    seed: int
    val_accuracy: float | None = None
    test_accuracy: float | None = None
    error: str | None = None


@dataclass
class SweepPoint:
    value: float
    outcomes: list[SeedOutcome]  # one per seed, in seed order

    @property
    def val_accuracies(self) -> list[float]:
        return [o.val_accuracy for o in self.outcomes if o.error is None]

    @property
    def test_accuracies(self) -> list[float]:
        return [o.test_accuracy for o in self.outcomes if o.error is None]

    @property
    def errors(self) -> list[str]:
        return [o.error for o in self.outcomes if o.error is not None]

    @property
    def val_accuracy_mean(self) -> float | None:
        return _mean_std(self.val_accuracies)[0]

    @property
    def val_accuracy_std(self) -> float | None:
        return _mean_std(self.val_accuracies)[1]

    @property
    def test_accuracy_mean(self) -> float | None:
        return _mean_std(self.test_accuracies)[0]


@dataclass
class SweepResult:
    param: str
    points: list[SweepPoint]

    @property
    def any_failed(self) -> bool:
        return any(p.errors for p in self.points)

    @property
    def argmax_value(self) -> float:
        """Grid value with the best mean validation accuracy (first on ties)."""
        best = None
        for p in self.points:
            m = p.val_accuracy_mean
            if m is None:
                continue
            if best is None or m > best.val_accuracy_mean:
                best = p
        if best is None:
            raise NumericError("every sweep point failed")
        return best.value

    @property
    def argmax_interior(self) -> bool:
        """True when the best value sits strictly inside the sorted grid."""
        values = sorted(p.value for p in self.points)
        best = self.argmax_value
        return values[0] < best < values[-1]


def sweep(param: str, grid, data, seeds, base_cfg: LbiConfig) -> SweepResult:
    """Mean validation accuracy of the full method across one regularizer
    grid, holding everything else at the base config.

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
    arrays = _resolve_bundle(data)
    field = "lam" if param == "lambda" else "gamma"
    cfgs = [engine.config_with(base_cfg, seed=seed, **{field: value})
            for value in grid for seed in seeds]
    outs = iter(engine.run_stack(arrays, cfgs))
    points = []
    for value in grid:
        outcomes = []
        for seed in seeds:
            out = next(outs)
            if isinstance(out, NumericError):
                outcomes.append(SeedOutcome(
                    seed, error=f"seed {seed}: numeric failure at "
                                f"iteration {out.iteration}: {out}"))
            else:
                outcomes.append(SeedOutcome(
                    seed,
                    accuracy(out.finetune_model, arrays.val.X, arrays.val.y),
                    accuracy(out.finetune_model, arrays.test.X, arrays.test.y),
                ))
        points.append(SweepPoint(value, outcomes))
    return SweepResult(param, points)
