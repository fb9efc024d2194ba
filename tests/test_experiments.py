"""Ablation grid semantics, recovery AUC, sweep behavior, and the split of a
large stack over two processes (``engine.run_stack``) that matrices and
sweeps train through.

The AUC is cross-checked against an O(M^2) pairwise-comparison oracle
written here; ablation reductions are checked bit-exactly against the full
configuration with the matching regularizer forced to zero.
"""

import os
import pickle
import threading
import time
from dataclasses import fields as dataclass_fields
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from lbi import config, datasets, engine, experiments
from lbi.datasets import SynthSpec
from lbi.engine import LbiConfig
from lbi.errors import ConfigError, NumericError

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


def cell(bundle, cfg, ablation_id, seed=0):
    """The one RunResult of an (ablation id, seed) cell run alone."""
    cfg = experiments.ablation_config(ablation_id,
                                      replace(cfg, seed=seed))
    (result,) = experiments.run_cell(bundle, [(ablation_id, cfg)])
    return result


def sweep_result(param, curve):
    """A one-seed sweep result from (value, val accuracy) pairs."""
    return experiments.MatrixResult([], [
        experiments.AggregateRow(value, 1, acc, 0.0, acc, 0.0, None, None)
        for value, acc in curve], param)


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
    def test_each_config_is_checked_once_as_it_is_made(self, monkeypatch):
        """A 45-cell matrix checks each cell's config as it is made, twice
        (its seed, then its ablation's switches), and each cell's fit
        twice (its fresh state and its scores); no entry checks again."""
        bundle = datasets.generate(BUNDLE_SPEC)
        base = replace(FAST, iterations=2)
        counts = {"read_section": 0, "check_fit": 0}
        for module, name in ((config, "read_section"), (engine, "check_fit")):
            def counted(*args, _true=getattr(module, name), _name=name,
                        **kwargs):
                counts[_name] += 1
                return _true(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        monkeypatch.setattr(engine, "_usable_cpus", lambda: 1)  # one process
        result = experiments.run_matrix(bundle, experiments.ABLATION_IDS,
                                        range(5), base)
        assert len(result.results) == 45 and not result.any_failed
        assert counts == {"read_section": 90, "check_fit": 90}

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
        agg = {r.ablation: r for r in result.aggregates}["A1"]
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
        a3 = cell(bundle, FAST, "A3")
        full = cell(bundle, replace(FAST, lam=0.0), "FULL")
        assert a3.test_accuracy == full.test_accuracy
        np.testing.assert_array_equal(a3.final_ignore_finetune,
                                      full.final_ignore_finetune)
        np.testing.assert_array_equal(a3.final_ignore_pretrain,
                                      full.final_ignore_pretrain)

    def test_gamma_zero_cells_match_full_with_gamma_zero(self):
        """Same reduction on the other switch: A7 is FULL at gamma = 0."""
        bundle = datasets.generate(BUNDLE_SPEC)
        a7 = cell(bundle, FAST, "A7")
        full = cell(bundle, replace(FAST, gamma=0.0), "FULL")
        assert a7.test_accuracy == full.test_accuracy
        np.testing.assert_array_equal(a7.final_ignore_pretrain,
                                      full.final_ignore_pretrain)

    def test_failures_recorded_not_raised(self):
        broken = replace(FAST, lr_pretrain_encoder=1e160,
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
        (full,) = result.aggregates
        assert full.n_ok == 0 and full.test_accuracy_mean is None

    def test_repeated_id_aggregates_its_own_block(self):
        """Each copy of a repeated id gets the row of its own seeds, which
        is the id's row when it runs once."""
        once = experiments.run_matrix(BUNDLE_SPEC, ["A1"], [0, 1], FAST)
        twice = experiments.run_matrix(BUNDLE_SPEC, ["A1", "FULL", "A1"],
                                       [0, 1], FAST)
        assert len(twice.aggregates) == 3
        assert twice.aggregates[0] == once.aggregates[0]
        assert twice.aggregates[2] == once.aggregates[0]
        assert [len(cells) for _, cells in twice.blocks()] == [2, 2, 2]

    def test_empty_ids_rejected(self):
        with pytest.raises(ConfigError):
            experiments.run_matrix(BUNDLE_SPEC, [], [0], FAST)
        with pytest.raises(ConfigError):
            experiments.run_matrix(BUNDLE_SPEC, ["A1"], [], FAST)


class TestScore:
    def test_scores_a_run(self):
        bundle = datasets.generate(BUNDLE_SPEC)
        state, _ = engine.run(bundle, FAST)
        scores = experiments.score(state, bundle)
        assert scores["test_accuracy"] == experiments.accuracy(
            state.finetune_model, bundle.test.X, bundle.test.y)
        assert scores["val_accuracy"] == experiments.accuracy(
            state.finetune_model, bundle.val.X, bundle.val.y)
        for which in ("pretrain", "finetune"):
            w = getattr(state, f"ignore_{which}").effective()
            np.testing.assert_array_equal(scores[f"final_ignore_{which}"], w)
            assert (scores[f"recovery_auc_{which}"]
                    == experiments.corrupted_recovery_auc(w, bundle.corrupted))

    def test_basic_mode_has_no_finetune_scores(self):
        bundle = datasets.generate(BUNDLE_SPEC)
        state, _ = engine.run(bundle, LbiConfig(mode="basic", gamma=0.0,
                                                iterations=2))
        scores = experiments.score(state, bundle)
        assert scores["final_ignore_finetune"] is None
        assert scores["recovery_auc_finetune"] is None

    @pytest.mark.parametrize("change, message", [
        ({"dim": 4}, "does not match data"),
        ({"classes": 3}, "does not match data"),
        ({"n_pretrain": 9}, "data has 9 pretraining examples"),
    ])
    def test_data_that_does_not_fit_rejected(self, change, message):
        state, _ = engine.run(datasets.generate(BUNDLE_SPEC), FAST)
        other = datasets.generate(replace(BUNDLE_SPEC, **change))
        with pytest.raises(ConfigError, match=message):
            experiments.score(state, other)

    def test_empty_test_split_rejected_before_training(self, monkeypatch):
        """A matrix, a sweep and a lone score each name the empty test
        split, and no cell is trained first."""
        bundle = datasets.generate(BUNDLE_SPEC)
        state, _ = engine.run(bundle, FAST)
        empty = replace(bundle, test=datasets.Split(
            np.zeros((0, bundle.dim)), np.zeros(0, dtype=np.int64)))
        stacks = []
        true_run_stack = engine.run_stack

        def counted(*args, **kwargs):
            stacks.append(args)
            return true_run_stack(*args, **kwargs)

        monkeypatch.setattr(engine, "run_stack", counted)
        message = "the test split is empty"
        for call in (
                lambda: experiments.run_matrix(empty, ["A1", "FULL"], [0, 1],
                                               FAST),
                lambda: experiments.sweep("lambda", [0.0, 0.1, 0.2], empty,
                                          [0], FAST),
                lambda: experiments.score(state, empty)):
            with pytest.raises(ConfigError, match=message):
                call()
        assert stacks == []


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
        """Each point's block records every seed in the order given:
        accuracies for a finished run, the numeric failure for a failed
        one; the point's aggregate counts the finished runs."""
        huge = replace(FAST, lr_pretrain_encoder=1e100,
                                  lr_pretrain_head=1e100,
                                  lr_finetune_encoder=1e100,
                                  lr_finetune_head=1e100)
        with np.errstate(over="ignore", invalid="ignore"):
            result = experiments.sweep("lambda", [0.0, 0.01, 1.0], BUNDLE_SPEC,
                                       [2, 0], huge)
        assert result.any_failed
        blocks = result.blocks()
        for row, cells in blocks:
            assert [r.seed for r in cells] == [2, 0]
            assert all(r.ablation == row.ablation for r in cells)
            for r in cells:
                if r.ok:
                    assert 0.0 <= r.val_accuracy <= 1.0
                    assert 0.0 <= r.test_accuracy <= 1.0
                else:
                    assert r.error.startswith("numeric failure at iteration")
                    assert r.val_accuracy is None and r.test_accuracy is None
            ok = [r.val_accuracy for r in cells if r.ok]
            assert row.n_ok == len(ok)
            assert row.val_accuracy_mean == (np.mean(ok) if ok else None)
        assert all(r.ok for r in blocks[0][1])
        assert not any(r.ok for r in blocks[2][1])

    def test_point_per_grid_value_in_order(self):
        grid = [0.0, 0.05, 0.2]
        result = experiments.sweep("lambda", grid, BUNDLE_SPEC, [0, 1], FAST)
        assert result.param == "lambda"
        assert [row.ablation for row in result.aggregates] == grid
        assert [r.ablation for r in result.results] == [0.0, 0.0, 0.05, 0.05,
                                                        0.2, 0.2]
        assert [r.config.lam for r in result.results] == [
            r.ablation for r in result.results]
        for row in result.aggregates:
            assert row.n_ok == 2
        assert not result.any_failed
        assert result.argmax_value in grid

    def test_permutation_invariance(self):
        grid = [0.0, 0.05, 0.2]
        fwd = experiments.sweep("lambda", grid, BUNDLE_SPEC, [0], FAST)
        rev = experiments.sweep("lambda", grid[::-1], BUNDLE_SPEC, [0], FAST)
        by_value = {r.ablation: r.val_accuracy for r in rev.results}
        for r in fwd.results:
            assert by_value[r.ablation] == r.val_accuracy

    def test_lambda_zero_point_equals_a3_cell(self):
        """The lam = 0 grid point runs the same computation as ablation A3
        except nothing is frozen; with lam = 0 the pretraining hypergradient
        vanishes anyway, so accuracies coincide exactly."""
        bundle = datasets.generate(BUNDLE_SPEC)
        result = experiments.sweep("lambda", [0.0, 0.05, 0.2], bundle, [0],
                                   FAST)
        a3 = cell(bundle, FAST, "A3")
        assert result.results[0].val_accuracy == a3.val_accuracy
        assert result.results[0].test_accuracy == a3.test_accuracy

    def test_gamma_sweep_runs(self):
        result = experiments.sweep("gamma", [0.0, 0.5, 1.0], BUNDLE_SPEC, [0],
                                   FAST)
        assert [row.ablation for row in result.aggregates] == [0.0, 0.5, 1.0]
        assert [r.config.gamma for r in result.results] == [0.0, 0.5, 1.0]
        assert not result.any_failed

    def test_argmax_interior_flag(self):
        result = sweep_result("lambda", [(0.1, 0.5), (0.2, 0.9), (0.3, 0.7)])
        assert result.argmax_value == 0.2
        assert result.argmax_interior
        result.aggregates[0].val_accuracy_mean = 0.95
        assert result.argmax_value == 0.1
        assert not result.argmax_interior

    def test_argmax_first_on_ties(self):
        result = sweep_result("gamma", [(0.1, 0.8), (0.2, 0.8), (0.3, 0.5)])
        assert result.argmax_value == 0.1

    def test_argmax_undefined_when_every_point_failed(self):
        result = sweep_result("lambda", [(0.1, None), (0.2, None), (0.3, None)])
        with pytest.raises(NumericError, match="every sweep point failed"):
            result.argmax_value


def assert_same_results(got, want):
    """RunResults equal field by field, score arrays to their bytes."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for f in dataclass_fields(experiments.RunResult):
            x, y = getattr(a, f.name), getattr(b, f.name)
            if isinstance(y, np.ndarray):
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
            else:
                assert x == y, f.name


TEST_PID = os.getpid()


def in_child():
    return os.getpid() != TEST_PID


def outcomes(cfgs, states=None):
    """``engine.run_stack``'s outcome of each cell, as comparable bits (its
    state's blocks or its error), and the trace rows ``on_row`` got for
    it, in order."""
    rows = [[] for _ in cfgs]
    outs = engine.run_stack(datasets.generate(BUNDLE_SPEC), cfgs, states,
                            lambda k, row: rows[k].append(row))
    return [(("error", str(out), out.iteration)
             if isinstance(out, NumericError) else
             ("ok", out.iteration, [b.tobytes() for b in engine._blocks(out)]))
            for out in outs], rows


def serial(fn, *args):
    """``fn(*args)`` on the serial path: the process may use one CPU."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(engine, "_usable_cpus", lambda: 1)
        return fn(*args)


def matrix_cfgs(cfg, ids=("A1", "A5", "A7", "FULL"), seeds=(0, 1)):
    return [experiments.ablation_config(i, replace(cfg, seed=s))
            for i in ids for s in seeds]


class TestSplit:
    """A large stack trains as two halves in two processes
    (``engine.run_stack``): the parent's first half and a forked child's
    second half, each bit for bit its share of one stack."""

    @pytest.mark.parametrize("hidden", [0, 3])
    @pytest.mark.parametrize("batch_size", [None, 4])
    def test_results_equal_one_stack(self, split, hidden, batch_size):
        """Fresh and resumed cells, each cell's trace rows included, and
        the matrix and sweep scored from them."""
        cfg = replace(FAST, hidden=hidden, batch_size=batch_size)
        cfgs = matrix_cfgs(cfg)
        forked = outcomes(cfgs)
        assert len(split) == 1
        assert forked == serial(outcomes, cfgs)
        states = engine.run_stack(datasets.generate(BUNDLE_SPEC),
                                  [replace(c, iterations=5) for c in cfgs])
        split.clear()
        forked = outcomes(cfgs, states)
        assert len(split) == 1 and len(forked[1][0]) == FAST.iterations - 5
        assert forked == serial(outcomes, cfgs, states)
        runs = {
            "matrix": lambda: experiments.run_matrix(
                BUNDLE_SPEC, ["A1", "A5", "A7", "FULL"], [0, 1], cfg),
            "sweep": lambda: experiments.sweep(
                "lambda", [0.0, 0.05, 0.2], BUNDLE_SPEC, [0, 1], cfg),
        }
        for name, run in runs.items():
            split.clear()
            forked = run()
            assert len(split) == 1, name
            split.clear()
            want = serial(run)
            assert split == []
            assert_same_results(forked.results, want.results)
            assert forked.aggregates == want.aggregates

    def test_a_stack_at_the_constant_forks_once(self, monkeypatch):
        """4 cells x 125 iterations x 1,000 full-batch rows: 500,000."""
        bundle = datasets.generate(replace(BUNDLE_SPEC, n_pretrain=1000))
        cfgs = matrix_cfgs(replace(FAST, iterations=125), seeds=(0,))
        forks = []
        true_fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or true_fork())
        monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)

        def run(cells):
            return [[b.tobytes() for b in engine._blocks(out)]
                    for out in engine.run_stack(bundle, cells)]

        forked = run(cfgs)
        assert len(forks) == 1
        assert forked == serial(run, cfgs)
        assert run(cfgs[:3]) == serial(run, cfgs[:3]) and len(forks) == 1

    def test_failed_cells_of_the_child_keep_their_errors(self, split):
        huge = replace(FAST, lr_pretrain_encoder=1e100,
                                  lr_pretrain_head=1e100,
                                  lr_finetune_encoder=1e100,
                                  lr_finetune_head=1e100)
        cfgs = [replace(huge, seed=s, lam=lam) for lam in (0.0, 0.01, 1.0)
                for s in (2, 0)]
        with np.errstate(over="ignore", invalid="ignore"):
            forked = outcomes(cfgs)
            assert len(split) == 1
            want = serial(outcomes, cfgs)
        assert any(kind == "error" for kind, *_ in forked[0][3:])
        assert forked == want

    def test_child_exception_raised_after_the_first_half(self, split,
                                                         monkeypatch):
        true_train = engine._train
        trained = []

        def train(bundle, cfg, cfgs, *args):
            if in_child():
                raise ValueError("cannot train in the child")
            out = true_train(bundle, cfg, cfgs, *args)
            trained.append(len(cfgs))
            return out

        monkeypatch.setattr(engine, "_train", train)
        with pytest.raises(ValueError, match="cannot train in the child"):
            experiments.run_matrix(BUNDLE_SPEC, ["A1", "FULL"], [0, 1, 2],
                                   FAST)
        assert trained == [3]

    def test_first_half_exception_wins(self, split, monkeypatch):
        def train(*args):
            raise ConfigError("child" if in_child() else "parent")

        monkeypatch.setattr(engine, "_train", train)
        with pytest.raises(ConfigError, match="^parent$"):
            experiments.run_matrix(BUNDLE_SPEC, ["A1", "FULL"], [0, 1], FAST)

    def test_dead_or_garbled_child_is_named(self, split, monkeypatch):
        true_train = engine._train

        def dying(*args):
            if in_child():
                os._exit(3)
            return true_train(*args)

        monkeypatch.setattr(engine, "_train", dying)
        with pytest.raises(RuntimeError,
                           match="ended with status 3 and 0 bytes"):
            experiments.run_matrix(BUNDLE_SPEC, ["A1", "FULL"], [0, 1], FAST)
        monkeypatch.setattr(engine, "_train", true_train)
        true_dumps = pickle.dumps
        monkeypatch.setattr(pickle, "dumps",
                            lambda *a, **k: true_dumps(*a, **k)[:-9])
        with pytest.raises(RuntimeError,
                           match=r"ended with status 0 and [1-9]\d* bytes"):
            experiments.run_matrix(BUNDLE_SPEC, ["A1", "FULL"], [0, 1], FAST)

    def test_interrupted_parent_kills_the_child(self, split, monkeypatch):
        true_train = engine._train

        def stalled(*args):
            if in_child():
                time.sleep(60)
                return true_train(*args)
            raise KeyboardInterrupt

        monkeypatch.setattr(engine, "_train", stalled)
        started = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            experiments.run_matrix(BUNDLE_SPEC, ["A1", "FULL"], [0, 1], FAST)
        assert time.perf_counter() - started < 30
        assert len(split) == 1

    def test_cells_that_make_no_stack_are_refused_before_a_fork(
            self, split, monkeypatch):
        """So is every other ConfigError of ``run_stack``."""
        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        bundle = datasets.generate(BUNDLE_SPEC)
        cfgs = [replace(FAST, seed=k) for k in range(4)]
        past = engine.run(bundle, replace(FAST, iterations=1))[0]
        for cells, states, match in [
                (cfgs[:3] + [replace(FAST, seed=3, iterations=5)], None,
                 "may differ only in"),
                (cfgs, [past] * 3, "3 initial states for 4 configs"),
                (cfgs, [past] * 3 + [engine.init_state(bundle, FAST)],
                 "same iteration"),
                (cfgs, [engine.init_state(bundle, replace(FAST, hidden=2))]
                 * 4, "state has hidden=2")]:
            with pytest.raises(ConfigError, match=match):
                engine.run_stack(bundle, cells, states)

    def test_rule(self, monkeypatch):
        """Two processes for 4 or more cells whose cells x iterations x
        pretraining batch rows reach the constant, with two usable CPUs
        and no other thread alive; else one."""
        bundle = datasets.generate(BUNDLE_SPEC)  # 12 pretraining rows
        monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(engine, "SPLIT_MIN_CELL_ROW_ITERATIONS",
                            4 * 12 * 12)

        def processes(n_cells=4, **change):
            return engine.plan(bundle, replace(FAST, **change),
                               n_cells).processes

        assert processes() == 2
        assert processes(3, iterations=1000) == 1
        assert processes(iterations=11) == 1
        assert processes(batch_size=11) == 1
        assert processes(batch_size=13) == 2  # a batch of the whole split
        monkeypatch.setattr(engine, "_usable_cpus", lambda: 1)
        assert processes() == 1
        monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
        stop = threading.Event()
        other = threading.Thread(target=stop.wait)
        other.start()
        try:
            assert processes() == 1
        finally:
            stop.set()
            other.join()
        assert processes() == 2
