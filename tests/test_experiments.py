"""Ablation grid semantics, recovery AUC, and sweep behavior.

The AUC is cross-checked against an O(M^2) pairwise-comparison oracle
written here; ablation reductions are checked bit-exactly against the full
configuration with the matching regularizer forced to zero.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from lbi import datasets, engine, experiments
from lbi.datasets import SynthSpec
from lbi.engine import LbiConfig
from lbi.errors import ConfigError

BUNDLE_SPEC = SynthSpec(dim=3, classes=2, n_pretrain=12, n_train=8, n_val=6,
                        n_test=10, shift=0.6, noise_sigma=1.0,
                        corrupt_frac=0.25, corrupt_kind="label_flip", seed=11)

FAST = LbiConfig(lam=0.1, gamma=0.8, iterations=12, lr_ignore_pretrain=2.0,
                 lr_ignore_finetune=0.5)


def pairwise_auc_oracle(weights, flags):
    """Every (clean, corrupted) pair; full credit when the clean example has
    the larger weight, half on ties."""
    clean = [w for w, f in zip(weights, flags) if not f]
    bad = [w for w, f in zip(weights, flags) if f]
    if not clean or not bad:
        return None
    score = 0.0
    for c in clean:
        for b in bad:
            if c > b:
                score += 1.0
            elif c == b:
                score += 0.5
    return score / (len(clean) * len(bad))


def sweep_point(value, val_accuracy):
    """A one-seed sweep point with equal val and test accuracy."""
    return experiments.SweepPoint(value, [experiments.SeedOutcome(
        0, val_accuracy, val_accuracy)])


class TestAblationConfig:
    def test_switch_table(self):
        base = LbiConfig(lam=0.3, gamma=0.7)
        expected = {
            "A1": (0.0, 0.0, True, True),
            "A2": (0.0, 0.7, True, True),
            "A3": (0.0, 0.7, True, False),
            "A4": (0.3, 0.0, True, True),
            "A5": (0.3, 0.7, True, True),
            "A6": (0.3, 0.7, True, False),
            "A7": (0.3, 0.0, False, True),
            "A8": (0.3, 0.7, False, True),
            "FULL": (0.3, 0.7, False, False),
        }
        for ablation_id, (lam, gamma, fr_a, fr_b) in expected.items():
            cfg = experiments.ablation_config(ablation_id, base)
            assert cfg.lam == lam, ablation_id
            assert cfg.gamma == gamma, ablation_id
            assert cfg.freeze_ignore_pretrain is fr_a, ablation_id
            assert cfg.freeze_ignore_finetune is fr_b, ablation_id

    def test_unknown_id_rejected(self):
        with pytest.raises(ConfigError):
            experiments.ablation_config("A9", LbiConfig())

    def test_basic_mode_rejected(self):
        with pytest.raises(ConfigError):
            experiments.ablation_config("A1", LbiConfig(mode="basic", gamma=0.0))

    def test_base_config_not_mutated(self):
        base = LbiConfig(lam=0.3, gamma=0.7)
        experiments.ablation_config("A1", base)
        assert base.lam == 0.3 and not base.freeze_ignore_pretrain


class TestRecoveryAuc:
    def test_perfect_separation(self):
        w = np.array([0.0, 1.0, 0.0, 1.0, 1.0])
        flags = np.array([True, False, True, False, False])
        assert experiments.corrupted_recovery_auc(w, flags) == 1.0

    def test_perfectly_wrong(self):
        w = np.array([1.0, 0.0, 1.0])
        flags = np.array([True, False, True])
        assert experiments.corrupted_recovery_auc(w, flags) == 0.0

    def test_constant_weights_chance(self):
        w = np.full(6, 0.5)
        flags = np.array([True, False, True, False, False, True])
        assert experiments.corrupted_recovery_auc(w, flags) == 0.5

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, np.nextafter(0.5, 1)])
                    | st.floats(0.0, 1.0), min_size=1, max_size=30))
    def test_ranks_equal_scipy_rankdata(self, values):
        """Ranks bit for bit those of scipy's average-rank rankdata, ties
        included, so the AUC sums the same numbers in the same order."""
        w = np.array(values)
        got = experiments._average_ranks(w)
        assert got.tobytes() == rankdata(w).tobytes()

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            n = int(rng.integers(3, 20))
            w = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=n)  # force ties
            flags = rng.random(n) < 0.4
            expected = pairwise_auc_oracle(w, flags)
            got = experiments.corrupted_recovery_auc(w, flags)
            if expected is None:
                assert got is None
            else:
                np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_one_class_undefined(self):
        assert experiments.corrupted_recovery_auc(
            np.ones(3), np.zeros(3, dtype=bool)) is None
        assert experiments.corrupted_recovery_auc(
            np.ones(3), np.ones(3, dtype=bool)) is None

    def test_accepts_bundle_for_flags(self):
        bundle = datasets.generate(BUNDLE_SPEC)
        w = np.where(bundle.corrupted, 0.0, 1.0)
        assert experiments.corrupted_recovery_auc(w, bundle.corrupted) == 1.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            experiments.corrupted_recovery_auc(np.ones(3),
                                               np.zeros(4, dtype=bool))


class TestRunMatrix:
    def test_shape_contract(self):
        result = experiments.run_matrix(BUNDLE_SPEC, ["A1", "FULL"], [0, 1, 2],
                                        FAST)
        assert len(result.results) == 6
        assert len(result.aggregates) == 2
        assert [r.ablation for r in result.results] == ["A1"] * 3 + ["FULL"] * 3
        assert [r.seed for r in result.results] == [0, 1, 2, 0, 1, 2]
        assert not result.any_failed

    def test_single_cell(self):
        result = experiments.run_matrix(BUNDLE_SPEC, ["A1"], [0], FAST)
        row = result.results[0]
        assert row.ok
        assert 0.0 <= row.test_accuracy <= 1.0
        assert 0.0 <= row.val_accuracy <= 1.0
        assert row.recovery_auc_pretrain is not None
        agg = result.aggregate("A1")
        assert agg.n_ok == 1
        assert agg.test_accuracy_std == 0.0

    def test_deterministic(self):
        r1 = experiments.run_matrix(BUNDLE_SPEC, ["A5", "FULL"], [0, 1], FAST)
        r2 = experiments.run_matrix(BUNDLE_SPEC, ["A5", "FULL"], [0, 1], FAST)
        for a, b in zip(r1.results, r2.results):
            assert a.test_accuracy == b.test_accuracy
            np.testing.assert_array_equal(a.final_ignore_pretrain,
                                          b.final_ignore_pretrain)

    def test_frozen_cells_keep_scores_fully_on(self):
        result = experiments.run_matrix(BUNDLE_SPEC, ["A5"], [0], FAST)
        row = result.results[0]
        np.testing.assert_array_equal(row.final_ignore_pretrain, np.ones(12))
        np.testing.assert_array_equal(row.final_ignore_finetune, np.ones(12))

    def test_learned_cells_move_scores(self):
        result = experiments.run_matrix(BUNDLE_SPEC, ["FULL"], [0], FAST)
        row = result.results[0]
        assert not np.array_equal(row.final_ignore_pretrain, np.ones(12))

    def test_lam_zero_cells_match_full_with_lam_zero(self):
        """A3 is FULL with the proximity term cut; the engine must reach
        bit-identical scores (the frozen pretraining weights of A3 receive an
        exactly zero hypergradient once lam is zero)."""
        bundle = datasets.generate(BUNDLE_SPEC)
        (a3,) = experiments.run_cell(bundle, FAST, [("A3", 0)])
        forced = engine.config_with(FAST, lam=0.0)
        (full,) = experiments.run_cell(bundle, forced, [("FULL", 0)])
        assert a3.test_accuracy == full.test_accuracy
        np.testing.assert_array_equal(a3.final_ignore_finetune,
                                      full.final_ignore_finetune)
        np.testing.assert_array_equal(a3.final_ignore_pretrain,
                                      full.final_ignore_pretrain)

    def test_gamma_zero_cells_match_full_with_gamma_zero(self):
        """Same reduction on the other switch: A7 is FULL at gamma = 0."""
        bundle = datasets.generate(BUNDLE_SPEC)
        (a7,) = experiments.run_cell(bundle, FAST, [("A7", 0)])
        forced = engine.config_with(FAST, gamma=0.0)
        (full,) = experiments.run_cell(bundle, forced, [("FULL", 0)])
        assert a7.test_accuracy == full.test_accuracy
        np.testing.assert_array_equal(a7.final_ignore_pretrain,
                                      full.final_ignore_pretrain)

    def test_failures_recorded_not_raised(self):
        broken = engine.config_with(FAST, lr_pretrain_encoder=1e160,
                                    lr_pretrain_head=1e160,
                                    lr_finetune_encoder=1e160,
                                    lr_finetune_head=1e160, lam=1.0, gamma=1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            result = experiments.run_matrix(BUNDLE_SPEC, ["FULL"], [0], broken)
        assert result.any_failed
        row = result.results[0]
        assert not row.ok
        assert "iteration" in row.error
        assert row.test_accuracy is None
        assert result.aggregate("FULL").n_ok == 0
        assert result.aggregate("FULL").test_accuracy_mean is None

    def test_empty_ids_rejected(self):
        with pytest.raises(ConfigError):
            experiments.run_matrix(BUNDLE_SPEC, [], [0], FAST)
        with pytest.raises(ConfigError):
            experiments.run_matrix(BUNDLE_SPEC, ["A1"], [], FAST)


class TestSweep:
    def test_grid_validation(self):
        with pytest.raises(ConfigError):
            experiments.sweep("lambda", [0.1, 0.1, 0.1], BUNDLE_SPEC, [0], FAST)
        with pytest.raises(ConfigError):
            experiments.sweep("lambda", [0.1, 0.2], BUNDLE_SPEC, [0], FAST)
        with pytest.raises(ConfigError):
            experiments.sweep("lambda", [-0.1, 0.2, 0.3], BUNDLE_SPEC, [0], FAST)
        with pytest.raises(ConfigError):
            experiments.sweep("mu", [0.1, 0.2, 0.3], BUNDLE_SPEC, [0], FAST)
        for grid in ("abc", [0.1, "x", 0.3], [0.1, None, 0.3]):
            with pytest.raises(ConfigError, match="numbers"):
                experiments.sweep("lambda", grid, BUNDLE_SPEC, [0], FAST)

    def test_outcomes_per_seed_in_seed_order(self):
        """Each point records every seed in the order given: accuracies for
        a finished run, an error naming the seed for a failed one."""
        huge = engine.config_with(FAST, lr_pretrain_encoder=1e100,
                                  lr_pretrain_head=1e100,
                                  lr_finetune_encoder=1e100,
                                  lr_finetune_head=1e100)
        with np.errstate(over="ignore", invalid="ignore"):
            result = experiments.sweep("lambda", [0.0, 0.01, 1.0], BUNDLE_SPEC,
                                       [2, 0], huge)
        assert result.any_failed
        for point in result.points:
            assert [o.seed for o in point.outcomes] == [2, 0]
            for o in point.outcomes:
                if o.error is None:
                    assert 0.0 <= o.val_accuracy <= 1.0
                    assert 0.0 <= o.test_accuracy <= 1.0
                else:
                    assert o.error.startswith(f"seed {o.seed}: numeric failure")
                    assert o.val_accuracy is None and o.test_accuracy is None
            assert point.errors == [o.error for o in point.outcomes if o.error]
            assert point.val_accuracies == [o.val_accuracy for o in point.outcomes
                                            if o.error is None]
        assert not result.points[0].errors
        assert len(result.points[2].errors) == 2

    def test_point_per_grid_value_in_order(self):
        grid = [0.0, 0.05, 0.2]
        result = experiments.sweep("lambda", grid, BUNDLE_SPEC, [0, 1], FAST)
        assert [p.value for p in result.points] == grid
        for p in result.points:
            assert len(p.val_accuracies) == 2
            assert not p.errors
        assert result.argmax_value in grid

    def test_permutation_invariance(self):
        grid = [0.0, 0.05, 0.2]
        fwd = experiments.sweep("lambda", grid, BUNDLE_SPEC, [0], FAST)
        rev = experiments.sweep("lambda", grid[::-1], BUNDLE_SPEC, [0], FAST)
        by_value = {p.value: p.val_accuracies for p in rev.points}
        for p in fwd.points:
            assert by_value[p.value] == p.val_accuracies

    def test_lambda_zero_point_equals_a3_cell(self):
        """The lam = 0 grid point runs the same computation as ablation A3
        except nothing is frozen; with lam = 0 the pretraining hypergradient
        vanishes anyway, so accuracies coincide exactly."""
        bundle = datasets.generate(BUNDLE_SPEC)
        result = experiments.sweep("lambda", [0.0, 0.05, 0.2], bundle, [0],
                                   FAST)
        (a3,) = experiments.run_cell(bundle, FAST, [("A3", 0)])
        assert result.points[0].val_accuracies[0] == a3.val_accuracy
        assert result.points[0].test_accuracies[0] == a3.test_accuracy

    def test_gamma_sweep_runs(self):
        result = experiments.sweep("gamma", [0.0, 0.5, 1.0], BUNDLE_SPEC, [0],
                                   FAST)
        assert len(result.points) == 3
        assert not result.any_failed

    def test_argmax_interior_flag(self):
        result = experiments.SweepResult("lambda", [
            sweep_point(0.1, 0.5), sweep_point(0.2, 0.9), sweep_point(0.3, 0.7),
        ])
        assert result.argmax_value == 0.2
        assert result.argmax_interior
        result.points[0].outcomes[0].val_accuracy = 0.95
        assert result.argmax_value == 0.1
        assert not result.argmax_interior

    def test_argmax_first_on_ties(self):
        result = experiments.SweepResult("gamma", [
            sweep_point(0.1, 0.8), sweep_point(0.2, 0.8), sweep_point(0.3, 0.5),
        ])
        assert result.argmax_value == 0.1
