"""Finite-difference oracle: it must agree with the closed forms on healthy
code and flag a deliberately broken engine.

The analytic side is the iteration the engine runs, so the mutation tests
break that iteration: dropping the proximity pull from the finetuning
update invalidates exactly the pretraining-score hypergradient, and halving
either hypergradient kernel invalidates its own score set; the oracle has
to notice on every component.
"""

import contextlib
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
import reference
from hypothesis import given, settings
from hypothesis import strategies as st

from lbi import engine, gradcheck, model
from lbi.datasets import DatasetBundle, Split
from lbi.engine import IgnoreSet
from lbi.errors import ConfigError, NumericError

# Every instance kind the benchmark and criterion 1 check: linear or hidden 4,
# clamp or sigmoid, extended or basic.
KINDS = [(hidden, ignore_mode, mode)
         for hidden in (0, 4)
         for ignore_mode in ("clamp", "sigmoid")
         for mode in ("extended", "basic")]


def reference_fd(state, arrays, cfg, which, index, step):
    """The oracle by its definition: copy the whole state, move one raw
    score, run the whole iteration and take the loss of its finetuned
    model on the validation split."""
    vals = []
    for sign in (1.0, -1.0):
        probe = reference.copy_state(state)
        target = (probe.ignore_pretrain if which == "pretrain"
                  else probe.ignore_finetune)
        target.raw[index] += sign * step
        nxt, _ = reference.iterate(probe, arrays, cfg)
        vals.append(float(model.weighted_losses(model._softmax_residual(
            nxt.finetune_model, arrays.val.X, arrays.val.y))))
    return (vals[0] - vals[1]) / (2.0 * step)


def analytic_entries(report, which):
    return np.array([e.analytic for e in report.entries if e.which == which])


def stepped(scores, hg, rate, idx):
    """``reference.step`` of ``scores`` along ``hg``, the gradient of the
    batch ``idx`` (None: of every score) zero-padded to every score."""
    g = np.zeros(scores.raw.size)
    g[slice(None) if idx is None else idx] = hg
    return reference.step(scores, g, rate)


def without_pretraining(inst):
    """The check instance with an empty pretraining split and no scores."""
    for scores in (inst.state.ignore_pretrain, inst.state.ignore_finetune):
        if scores is not None:
            scores.raw = scores.raw[:0]
    return replace(inst, arrays=reference.without_pretraining(inst.arrays))


class TestFdAgreement:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("hidden", [0, 4])
    def test_random_instances_pass(self, seed, hidden):
        inst = gradcheck.make_check_instance(seed, hidden=hidden)
        report = gradcheck.verify_hypergrads(inst.state, inst.arrays, inst.cfg)
        assert report.passed(), report.as_table()
        assert report.max_rel_err < 1e-4

    @pytest.mark.parametrize("seed", range(3))
    def test_sigmoid_mode_passes(self, seed):
        inst = gradcheck.make_check_instance(seed, ignore_mode="sigmoid")
        report = gradcheck.verify_hypergrads(inst.state, inst.arrays, inst.cfg)
        assert report.passed(), report.as_table()

    def test_basic_mode_covers_pretrain_only(self):
        inst = gradcheck.make_check_instance(2, mode="basic", gamma=0.0)
        report = gradcheck.verify_hypergrads(inst.state, inst.arrays, inst.cfg)
        assert report.passed(), report.as_table()
        assert {e.which for e in report.entries} == {"pretrain"}

    @pytest.mark.parametrize("seed", range(4))
    def test_basic_instance_draws_no_gamma(self, seed):
        """Basic mode takes gamma = 0 without a draw, so its instance is
        bit for bit the one built with gamma=0.0."""
        got = gradcheck.make_check_instance(seed, mode="basic")
        want = gradcheck.make_check_instance(seed, mode="basic", gamma=0.0)
        assert got.cfg == want.cfg and got.cfg.gamma == 0.0
        splits = ("pretrain", "train", "val", "test")
        got_arrays, want_arrays = (
            [*engine._blocks(inst.state), inst.arrays.corrupted,
             *(getattr(getattr(inst.arrays, name), part)
               for name in splits for part in "Xy")]
            for inst in (got, want))
        assert len(got_arrays) == len(want_arrays) == 14
        assert all(g.tobytes() == w.tobytes()
                   for g, w in zip(got_arrays, want_arrays))

    def test_lam_zero_numeric_difference_is_zero(self):
        """With no proximity coupling the validation loss cannot depend on
        the pretraining scores at all."""
        inst = gradcheck.make_check_instance(4, lam=0.0)
        lookahead = gradcheck._Lookahead(inst.state, inst.arrays, inst.cfg)
        for i in range(inst.arrays.pretrain.n):
            num = lookahead.central_differences({"pretrain": [i]}, 1e-4)
            assert abs(num["pretrain"][0]) < 1e-9

    def test_single_example_instance(self):
        inst = gradcheck.make_check_instance(5, n_pretrain=1)
        report = gradcheck.verify_hypergrads(inst.state, inst.arrays, inst.cfg)
        assert len([e for e in report.entries if e.which == "pretrain"]) == 1
        assert report.passed()

    @pytest.mark.parametrize("hidden, ignore_mode, mode", KINDS)
    def test_empty_pretraining_has_no_entries(self, hidden, ignore_mode,
                                              mode):
        """Without pretraining rows there is no score to check, and the
        report passes with no entries."""
        inst = without_pretraining(gradcheck.make_check_instance(
            8, hidden=hidden, ignore_mode=ignore_mode, mode=mode))
        report = gradcheck.verify_hypergrads(inst.state, inst.arrays,
                                             inst.cfg)
        assert report.passed() and report.entries == []

    @pytest.mark.parametrize("hidden, ignore_mode, mode", KINDS)
    def test_empty_probe_rows_keep_the_validation_loss(self, hidden,
                                                       ignore_mode, mode):
        """A probe stack of empty score vectors steps as the iteration
        does, whichever sets its rows probe: every row's loss is that of
        the iteration's finetuned model."""
        inst = without_pretraining(gradcheck.make_check_instance(
            8, hidden=hidden, ignore_mode=ignore_mode, mode=mode))
        bundle, cfg = inst.arrays, replace(inst.cfg,
                                                      weight_decay=0.1)
        lookahead = gradcheck._Lookahead(inst.state, bundle, cfg)
        nxt, _ = reference.iterate(inst.state, bundle, cfg)
        want = model.weighted_losses(model._softmax_residual(
            nxt.finetune_model, bundle.val.X, bundle.val.y))
        stacks = [(2, 0)] if mode == "basic" else [(2, 0), (0, 2), (2, 2)]
        for ka, kb in stacks:
            got = lookahead.val_losses(np.empty((ka, 0)), np.empty((kb, 0)))
            assert got.tolist() == [want] * (ka + kb)

    def test_richardson_error_shrinks_with_step(self):
        """Central differences are second order: quartering the step cuts
        the truncation error by roughly sixteen.  Large steps keep the
        truncation term above float noise so the ratio is measurable."""
        inst = gradcheck.make_check_instance(6)
        lookahead = gradcheck._Lookahead(inst.state, inst.arrays, inst.cfg)
        _, analytic = lookahead.hypergrads
        i = int(np.argmax(np.abs(analytic)))
        errs = []
        for step in (4e-2, 1e-2):
            num = lookahead.central_differences({"finetune": [i]}, step)
            errs.append(abs(num["finetune"][0] - analytic[i]))
        assert errs[0] > 0 and errs[1] > 0
        ratio = errs[0] / errs[1]
        assert 6.0 < ratio < 40.0

    def test_oracle_does_not_mutate_state(self):
        inst = gradcheck.make_check_instance(7)
        before_raw = inst.state.ignore_pretrain.raw.copy()
        before_enc = inst.state.pretrain_model.encoder.copy()
        gradcheck.verify_hypergrads(inst.state, inst.arrays, inst.cfg)
        np.testing.assert_array_equal(inst.state.ignore_pretrain.raw,
                                      before_raw)
        np.testing.assert_array_equal(inst.state.pretrain_model.encoder,
                                      before_enc)

    def test_bad_index_rejected(self):
        inst = gradcheck.make_check_instance(8)
        lookahead = gradcheck._Lookahead(inst.state, inst.arrays, inst.cfg)
        with pytest.raises(IndexError):
            lookahead.central_differences(
                {"pretrain": [inst.arrays.pretrain.n]}, 1e-4)

    def test_bad_which_rejected(self):
        inst = gradcheck.make_check_instance(9)
        lookahead = gradcheck._Lookahead(inst.state, inst.arrays, inst.cfg)
        with pytest.raises(ValueError):
            lookahead.central_differences({"scores": [0]}, 1e-4)


class TestSharedForwards:
    """The oracle makes the forwards no score reaches once per instance; its
    numbers must be those of the whole-state route, bit for bit.  Equal
    numbers on every component also show that no probe writes to the
    forwards the probes share."""

    @staticmethod
    def assert_matches_reference(inst, step=1e-4):
        report = gradcheck.verify_hypergrads(inst.state, inst.arrays,
                                             inst.cfg, step=step)
        assert report.entries
        for e in report.entries:
            want = reference_fd(inst.state, inst.arrays, inst.cfg, e.which,
                                e.index, step)
            assert e.numeric == want, (e.which, e.index, e.numeric, want)
        return report

    @pytest.mark.parametrize("hidden,ignore_mode,mode", KINDS)
    def test_every_kind_bitwise(self, hidden, ignore_mode, mode):
        inst = gradcheck.make_check_instance(
            21, hidden=hidden, ignore_mode=ignore_mode, mode=mode,
            gamma=0.0 if mode == "basic" else None)
        report = self.assert_matches_reference(inst)
        assert report.passed(), report.as_table()

    @pytest.mark.parametrize("kwargs", [
        {"lam": 0.0},
        {"mode": "extended", "gamma": 0.0},
        {"n_pretrain": 1},
        {"n_pretrain": 1, "hidden": 3, "ignore_mode": "sigmoid"},
    ], ids=["lam0", "gamma0", "n1", "n1-hidden-sigmoid"])
    def test_degenerate_instances_bitwise(self, kwargs):
        inst = gradcheck.make_check_instance(22, **kwargs)
        self.assert_matches_reference(inst)

    def test_weight_decay_and_large_step_bitwise(self):
        inst = gradcheck.make_check_instance(23, hidden=2)
        inst.cfg = replace(inst.cfg, weight_decay=0.05)
        self.assert_matches_reference(inst, step=3e-2)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**16), mode=st.sampled_from(engine.MODES),
           ignore_mode=st.sampled_from(engine.IGNORE_MODES),
           hidden=st.sampled_from([0, 3]),
           weight_decay=st.sampled_from([0.0, 0.05]),
           n_pretrain=st.integers(1, 12),
           chunk_floats=st.one_of(st.just(gradcheck._CHUNK_FLOATS),
                                  st.integers(1, 2000)))
    def test_stacked_probes_bitwise(self, seed, mode, ignore_mode, hidden,
                                    weight_decay, n_pretrain, chunk_floats):
        """Every numeric value equals the whole-iteration oracle's, bit for
        bit, whether a score set's probes run as one stack or in chunks
        (a small chunk budget gives stacks of one to a few probe pairs)."""
        inst = gradcheck.make_check_instance(
            seed, hidden=hidden, ignore_mode=ignore_mode, mode=mode,
            n_pretrain=n_pretrain, gamma=0.0 if mode == "basic" else None)
        inst.cfg = replace(inst.cfg, weight_decay=weight_decay)
        with mock.patch.object(gradcheck, "_CHUNK_FLOATS", chunk_floats):
            self.assert_matches_reference(inst)

    @staticmethod
    @contextlib.contextmanager
    def recorded_stacks(chunk=None):
        """Record the (pretraining rows, finetuning rows) of each stack a
        ``_Lookahead`` evaluates into the list it yields; with ``chunk``,
        set every instance's probe pairs per chunk."""
        stacks = []
        true_init, true_losses = (gradcheck._Lookahead.__init__,
                                  gradcheck._Lookahead.val_losses)

        def init(lookahead, *args):
            true_init(lookahead, *args)
            lookahead.chunk = chunk or lookahead.chunk

        def counted(lookahead, raw_a, raw_b):
            stacks.append((raw_a.shape[0], raw_b.shape[0]))
            return true_losses(lookahead, raw_a, raw_b)

        with mock.patch.object(gradcheck._Lookahead, "__init__", init), \
                mock.patch.object(gradcheck._Lookahead, "val_losses",
                                  counted):
            yield stacks

    def test_chunked_stacks_bitwise(self):
        """With the smallest chunk budget each probe pair is its own stack,
        so each score set spans one chunk per pretraining example."""
        inst = gradcheck.make_check_instance(25, hidden=3, n_pretrain=7)
        with mock.patch.object(gradcheck, "_CHUNK_FLOATS", 1), \
                self.recorded_stacks() as stacks:
            self.assert_matches_reference(inst)
        assert stacks == [(2, 0)] * 7 + [(0, 2)] * 7

    @pytest.mark.parametrize("hidden", [0, 3])
    def test_chunk_spanning_both_sets_bitwise(self, hidden):
        """Chunks of two probe pairs over 7 scores a set: the fourth chunk
        holds the last pretraining pair and the first finetuning pair, and
        every value still equals the whole-iteration oracle's."""
        inst = gradcheck.make_check_instance(25, hidden=hidden, n_pretrain=7)
        with self.recorded_stacks(chunk=2) as stacks:
            self.assert_matches_reference(inst)
        assert stacks == [(4, 0)] * 3 + [(2, 2)] + [(0, 4)] * 3

    def test_given_lookahead_matches_own(self):
        """One lookahead probing score after score, of either set, gives
        what a fresh lookahead gives for each score alone."""
        inst = gradcheck.make_check_instance(24)
        shared = gradcheck._Lookahead(inst.state, inst.arrays, inst.cfg)
        for which in gradcheck.SETS:
            for i in range(inst.arrays.pretrain.n):
                got = shared.central_differences({which: [i]}, 1e-4)
                own = gradcheck._Lookahead(inst.state, inst.arrays, inst.cfg)
                want = own.central_differences({which: [i]}, 1e-4)
                assert got[which][0] == want[which][0]


class TestOneIteration:
    """The analytic side and the probes' shared work are one pass of the
    engine's iteration."""

    @pytest.mark.parametrize("hidden", [0, 3])
    @pytest.mark.parametrize("mode, forwards", [("extended", 5),
                                                ("basic", 4)])
    def test_one_forward_per_model_and_split(self, hidden, mode, forwards):
        """An instance makes the forwards of one engine iteration, one per
        (model, split) pair (4 extended, 3 basic), and one val forward for
        its one probe stack, which holds the probes of both score sets;
        the oracle makes none of its own beside them."""
        inst = gradcheck.make_check_instance(26, hidden=hidden, mode=mode)
        calls = []
        true_forward = model._softmax_residual

        def counted(*args, **kwargs):
            calls.append(args[0])
            return true_forward(*args, **kwargs)

        with mock.patch.object(model, "_softmax_residual", counted):
            report = gradcheck.verify_hypergrads(inst.state, inst.arrays,
                                                 inst.cfg)
        assert report.passed(), report.as_table()
        assert len(calls) == forwards


class TestExecutedPath:
    def test_across_the_step_decay_boundary(self):
        """Iteration 7 runs the full rates and iteration 8 (decay_start)
        the decayed ones; the oracle agrees on both sides."""
        inst = gradcheck.make_check_instance(31)
        cfg = replace(inst.cfg, step_decay=True, iterations=10)
        assert cfg.decay_start() == 8
        reports = []
        for it in (7, 8):
            state = reference.copy_state(inst.state)
            state.iteration = it
            report = gradcheck.verify_hypergrads(state, inst.arrays, cfg)
            assert report.passed(), report.as_table()
            reports.append(report)
        before, after = ([e.analytic for e in r.entries] for r in reports)
        assert all(x != y for x, y in zip(before, after))

    @pytest.mark.parametrize("hidden", [0, 3])
    def test_minibatch_iteration(self, hidden):
        """The oracle on one iteration's batch view passes, and the analytic
        values it checked, stepped into the full score vectors, are the
        scores one iteration (``reference.iterate``) produces, bit for bit."""
        inst = gradcheck.make_check_instance(32, hidden=hidden,
                                             ignore_mode="sigmoid",
                                             n_pretrain=10)
        cfg = replace(inst.cfg, batch_size=4)
        state, arrays = inst.state, inst.arrays
        sub_state, sub, idx_pre = reference.batch_view(state, arrays, cfg)
        assert len(idx_pre) == 4
        report = gradcheck.verify_hypergrads(sub_state, sub, cfg)
        assert report.passed(), report.as_table()

        nxt, _ = reference.iterate(state, arrays, cfg)
        rates = cfg.rates_at(state.iteration)
        for which, scores, got, rate in (
                ("pretrain", state.ignore_pretrain, nxt.ignore_pretrain,
                 rates.ignore_pretrain),
                ("finetune", state.ignore_finetune, nxt.ignore_finetune,
                 rates.ignore_finetune)):
            want = stepped(scores, analytic_entries(report, which), rate,
                           idx_pre)
            assert want.tobytes() == got.raw.tobytes()

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("hidden", [0, 3])
    @pytest.mark.parametrize("ignore_mode", ["clamp", "sigmoid"])
    @pytest.mark.parametrize("mode", ["extended", "basic"])
    def test_oracle_differences_what_run_stack_runs(self, mode, ignore_mode,
                                                    hidden, seed):
        """The oracle's central differences are, bit for bit, those of the
        val losses that ``engine.run_stack`` reports over the instance's
        one iteration for one state per probe: each score at +step and
        -step, the pretraining scores first."""
        inst = gradcheck.make_check_instance(seed, hidden=hidden,
                                             ignore_mode=ignore_mode,
                                             mode=mode)
        step, n = 1e-4, inst.arrays.pretrain.n
        sets = [which for which in gradcheck.SETS
                if getattr(inst.state, f"ignore_{which}") is not None]
        states = []
        for which in sets:
            for i in range(n):
                for sign in (1.0, -1.0):
                    probe = reference.copy_state(inst.state)
                    getattr(probe, f"ignore_{which}").raw[i] += sign * step
                    states.append(probe)
        losses = {}
        engine.run_stack(inst.arrays, [inst.cfg] * len(states), states,
                         lambda k, row: losses.setdefault(k, row.val_loss))
        got = np.array([(losses[k] - losses[k + 1]) / (2.0 * step)
                        for k in range(0, len(states), 2)])
        want = gradcheck._Lookahead(
            inst.state, inst.arrays, inst.cfg).central_differences(
                dict.fromkeys(sets, range(n)), step)
        assert got.tobytes() == np.concatenate(
            [want[which] for which in sets]).tobytes()

    def test_checks_the_full_batch_under_batch_size(self):
        """The oracle differences the full-batch map, so the analytic side
        is the full-batch iteration whatever the config's batch_size."""
        inst = gradcheck.make_check_instance(33, n_pretrain=10)
        cfg = replace(inst.cfg, batch_size=3)
        full = gradcheck.verify_hypergrads(inst.state, inst.arrays, inst.cfg)
        batched = gradcheck.verify_hypergrads(inst.state, inst.arrays, cfg)
        assert batched.passed(), batched.as_table()
        assert batched.entries == full.entries

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**16), mode=st.sampled_from(engine.MODES),
           ignore_mode=st.sampled_from(engine.IGNORE_MODES),
           hidden=st.sampled_from([0, 3]),
           weight_decay=st.sampled_from([0.0, 0.05]),
           iteration=st.sampled_from([7, 8]),
           batch_size=st.sampled_from([None, 2, 4]))
    def test_oracle_passes_on_the_executed_iteration(
            self, seed, mode, ignore_mode, hidden, weight_decay, iteration,
            batch_size):
        check_executed_iteration(seed, mode, ignore_mode, hidden,
                                 weight_decay, iteration, batch_size)

    # Draws whose smallest pretraining components (5.9e-9 to 7.3e-9) sit
    # at the oracle's rounding floor: correct code reads rel err 1.04e-4,
    # 1.18e-4 and 4.25e-4 against the 1e-4 threshold.
    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="FD oracle rounding floor, ROADMAP item 2")
    @pytest.mark.parametrize(
        "seed, mode, ignore_mode, hidden, weight_decay, iteration, "
        "batch_size", [(18582, "extended", "sigmoid", 3, 0.05, 8, 2),
                       (14102, "basic", "clamp", 3, 0.05, 7, None),
                       (4327, "basic", "clamp", 3, 0.0, 7, 2)])
    def test_oracle_floor_draws(self, seed, mode, ignore_mode, hidden,
                                weight_decay, iteration, batch_size):
        check_executed_iteration(seed, mode, ignore_mode, hidden,
                                 weight_decay, iteration, batch_size)


def check_executed_iteration(seed, mode, ignore_mode, hidden, weight_decay,
                             iteration, batch_size):
    """On the batch view of one iteration (either side of the step-decay
    boundary at 8), the oracle passes, and the analytic values it checked,
    stepped into the full score vectors, are the scores one iteration
    (``reference.iterate``) produces, bit for bit.

    Past the boundary the model rates are set to ten times the drawn ones,
    so the decayed rates in effect are the instance's generic draws.  At
    the drawn rates themselves the decayed pretraining hypergradients
    shrink a hundredfold, to 1e-8 and below, where the central difference's
    rounding (about 1e-12 at step 1e-4) exceeds the 1e-4 relative
    threshold."""
    inst = gradcheck.make_check_instance(
        seed, hidden=hidden, ignore_mode=ignore_mode, mode=mode,
        n_pretrain=6, gamma=0.0 if mode == "basic" else None)
    scale = 1.0 / engine.STEP_DECAY_FACTOR if iteration == 8 else 1.0
    rates = {name: scale * getattr(inst.cfg, name) for name in (
        "lr_pretrain_encoder", "lr_pretrain_head", "lr_finetune_encoder",
        "lr_finetune_head")}
    cfg = replace(inst.cfg, weight_decay=weight_decay,
                             step_decay=True, iterations=10,
                             batch_size=batch_size, **rates)
    assert cfg.decay_start() == 8
    state = inst.state
    state.iteration = iteration
    sub_state, sub, idx_pre = reference.batch_view(state, inst.arrays, cfg)
    report = gradcheck.verify_hypergrads(sub_state, sub, cfg)
    assert report.passed(), report.as_table()

    nxt, _ = reference.iterate(state, inst.arrays, cfg)
    step = cfg.rates_at(iteration)
    sets = [("pretrain", state.ignore_pretrain, nxt.ignore_pretrain,
             step.ignore_pretrain)]
    if mode == "extended":
        sets.append(("finetune", state.ignore_finetune,
                     nxt.ignore_finetune, step.ignore_finetune))
    for which, scores, got, rate in sets:
        want = stepped(scores, analytic_entries(report, which), rate, idx_pre)
        assert want.tobytes() == got.raw.tobytes()


class TestBadInputs:
    @pytest.mark.parametrize("kwargs", [
        {"step": 0.0}, {"step": -1e-4}, {"step": float("nan")},
        {"step": float("inf")}, {"threshold": 0.0}, {"threshold": -1.0},
        {"threshold": "abc"}, {"threshold": None}, {"step": True},
    ])
    def test_verify_rejects(self, kwargs):
        inst = gradcheck.make_check_instance(41)
        with pytest.raises(ValueError):
            gradcheck.verify_hypergrads(inst.state, inst.arrays, inst.cfg,
                                        **kwargs)

    @pytest.mark.parametrize("step", [0.0, -1e-4, float("nan"), "abc"])
    def test_fd_rejects_step(self, step):
        inst = gradcheck.make_check_instance(42)
        with pytest.raises(ValueError):
            gradcheck.verify_hypergrads(inst.state, inst.arrays, inst.cfg,
                                        step=step)

    def test_numeric_strings_accepted(self):
        """YAML leaves 1e-4 as text; it still counts as a number."""
        inst = gradcheck.make_check_instance(42)
        report = gradcheck.verify_hypergrads(inst.state, inst.arrays, inst.cfg,
                                             step="1e-4", threshold="1e-4")
        assert report.step == 1e-4 and report.threshold == 1e-4

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_update_raises_numeric_error(self):
        inst = gradcheck.make_check_instance(44)
        inst.state.pretrain_model.encoder[:] = 1e308
        for check in (gradcheck.verify_hypergrads, gradcheck._Lookahead):
            with pytest.raises(NumericError,
                               match="non-finite pretraining encoder update"):
                check(inst.state, inst.arrays, inst.cfg)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_only_a_middle_probe_overflows(self):
        """A crafted instance whose pretraining update overflows for the
        probe (2, +) alone.  Feature 0 moves no hidden unit, so example 2's
        feature-0 value scales its encoder gradient entry without changing
        any forward, and it is set so that the entry overflows just above
        the unperturbed weight.  The stacked probes raise that probe's
        error, as the probe alone and the whole iteration at its scores do,
        and every other probe stays finite."""
        inst = gradcheck.make_check_instance(47, hidden=3, mode="basic",
                                             gamma=0.0, n_pretrain=5)
        state, arrays, cfg = inst.state, inst.arrays, inst.cfg
        step, i = 1e-4, 2
        state.iteration = 3
        W1, _, U, _ = model._mlp_views(state.pretrain_model)
        W1[:, 0] = 0.0
        U *= 100.0
        X_pre, X_val, y_pre = (arrays.pretrain.X.copy(), arrays.val.X.copy(),
                               arrays.pretrain.y.copy())
        X_pre[:, 0] = X_val[:, 0] = 0.0
        y_pre[i] = np.argmin(model.logits(state.pretrain_model, X_pre)[i])
        dA = model._softmax_residual(state.pretrain_model, X_pre, y_pre).dA[i]
        a_i = state.ignore_pretrain.effective()[i]
        X_pre[i, 0] = np.finfo(float).max / (np.abs(dA).max()
                                             * (a_i + step / 2))
        bundle = DatasetBundle(Split(X_pre, y_pre), arrays.train,
                               Split(X_val, arrays.val.y), arrays.test,
                               arrays.dim, arrays.classes, arrays.corrupted)

        def probe(j):
            lookahead = gradcheck._Lookahead(state, bundle, cfg)
            return lookahead.central_differences({"pretrain": [j]},
                                                 step)["pretrain"][0]

        message = "non-finite pretraining encoder update"
        for call in (gradcheck.verify_hypergrads, lambda *a: probe(i)):
            with pytest.raises(NumericError, match=message) as err:
                call(state, bundle, cfg)
            assert err.value.iteration == 3
        assert all(np.isfinite(probe(j)) for j in range(5) if j != i)
        plus, minus = (reference.copy_state(state) for _ in range(2))
        plus.ignore_pretrain.raw[i] += step
        minus.ignore_pretrain.raw[i] -= step
        with pytest.raises(NumericError, match=message):
            reference.iterate(plus, bundle, cfg)
        reference.iterate(minus, bundle, cfg)

    def test_first_failing_probe_decides(self, monkeypatch):
        """Probes (1, -) and (2, -) both fail, each on another block: the
        error is the one of (1, -), the earlier probe in (index, sign)
        order, not the one of the block checked first."""
        inst = gradcheck.make_check_instance(48)
        true_update = engine._finetune_update

        def poisoned(*args, **kwargs):
            out = true_update(*args, **kwargs)
            if out.encoder.ndim == 2 and out.encoder.shape[0] > 5:
                out.encoder[5, 0] = math.inf
                out.head[3, 0] = math.nan
            return out

        monkeypatch.setattr(engine, "_finetune_update", poisoned)
        with pytest.raises(NumericError,
                           match="non-finite finetuned head update"):
            gradcheck.verify_hypergrads(inst.state, inst.arrays, inst.cfg)

    @pytest.mark.parametrize("poison, message", [
        ({"encoder": "finetune", "head": "pretrain"}, "finetuned head"),
        ({"encoder": "finetune"}, "finetuned encoder")])
    def test_pretraining_probes_fail_first(self, monkeypatch, poison,
                                           message):
        """A chunk whose finetuning probe (0, +) fails on the block checked
        first, the encoder, and whose pretraining probe (n - 1, -) fails on
        the head: the error is the pretraining probe's, the earlier row in
        (set, index, sign) order.  With only the finetuning probe failing,
        its own error is raised."""
        inst = gradcheck.make_check_instance(48)
        n = inst.arrays.pretrain.n
        rows = {"pretrain": 2 * n - 1, "finetune": 2 * n}
        true_update = engine._finetune_update

        def poisoned(*args, **kwargs):
            out = true_update(*args, **kwargs)
            if out.encoder.ndim == 2:
                for block, which in poison.items():
                    getattr(out, block)[rows[which], 0] = math.nan
            return out

        monkeypatch.setattr(engine, "_finetune_update", poisoned)
        with pytest.raises(NumericError,
                           match=f"non-finite {message} update"):
            gradcheck.verify_hypergrads(inst.state, inst.arrays, inst.cfg)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_only_a_finetuning_probe_overflows(self):
        """A crafted instance whose finetuning update overflows for the
        finetuning score probe (2, +) alone, built as in
        ``test_only_a_middle_probe_overflows``: feature 0 moves no hidden
        unit of either model, and example 2's feature-0 value is set so
        that its b-weighted source gradient entry overflows just above the
        unperturbed weight.  The finetuned model's head is scaled up, so
        the pretraining step, whose residual is far smaller, stays finite.
        The stack of both sets' probes raises that probe's error, as the
        probe alone and the whole iteration at its scores do, and every
        other probe of either set stays finite."""
        inst = gradcheck.make_check_instance(49, hidden=3, gamma=0.5,
                                             n_pretrain=5)
        state, arrays, cfg = inst.state, inst.arrays, inst.cfg
        step, i = 1e-4, 2
        state.iteration = 3
        for params in (state.pretrain_model, state.finetune_model):
            model._mlp_views(params)[0][:, 0] = 0.0
        model._mlp_views(state.finetune_model)[2][:] *= 100.0
        X_pre, X_val, y_pre = (arrays.pretrain.X.copy(), arrays.val.X.copy(),
                               arrays.pretrain.y.copy())
        X_pre[:, 0] = X_val[:, 0] = 0.0
        y_pre[i] = np.argmin(model.logits(state.finetune_model, X_pre)[i])
        dA = model._softmax_residual(state.finetune_model, X_pre, y_pre).dA[i]
        b_i = state.ignore_finetune.effective()[i]
        X_pre[i, 0] = np.finfo(float).max / (np.abs(dA).max()
                                             * (b_i + step / 2))
        bundle = DatasetBundle(Split(X_pre, y_pre), arrays.train,
                               Split(X_val, arrays.val.y), arrays.test,
                               arrays.dim, arrays.classes, arrays.corrupted)

        def probe(which, j):
            lookahead = gradcheck._Lookahead(state, bundle, cfg)
            return lookahead.central_differences({which: [j]}, step)[which][0]

        message = "non-finite finetuned encoder update"
        for call in (gradcheck.verify_hypergrads,
                     lambda *a: probe("finetune", i)):
            with pytest.raises(NumericError, match=message) as err:
                call(state, bundle, cfg)
            assert err.value.iteration == 3
        assert all(np.isfinite(probe(which, j)) for which in gradcheck.SETS
                   for j in range(5) if (which, j) != ("finetune", i))
        plus, minus = (reference.copy_state(state) for _ in range(2))
        plus.ignore_finetune.raw[i] += step
        minus.ignore_finetune.raw[i] -= step
        with pytest.raises(NumericError, match=message):
            reference.iterate(plus, bundle, cfg)
        reference.iterate(minus, bundle, cfg)

    @pytest.mark.parametrize("which", ["ignore_pretrain", "ignore_finetune"])
    def test_score_count_mismatch_rejected(self, which):
        inst = gradcheck.make_check_instance(45)
        scores = getattr(inst.state, which)
        setattr(inst.state, which, IgnoreSet(scores.raw[1:], scores.mode))
        with pytest.raises(ConfigError, match="ignore scores"):
            gradcheck.verify_hypergrads(inst.state, inst.arrays, inst.cfg)

    def test_empty_val_split_rejected(self):
        """Else every hypergradient and difference is 0, and the check
        passes on nothing."""
        inst = gradcheck.make_check_instance(45)
        empty = Split(np.zeros((0, inst.arrays.dim)),
                      np.zeros(0, dtype=np.int64))
        with pytest.raises(ConfigError, match="must be nonempty"):
            gradcheck.verify_hypergrads(inst.state,
                                        replace(inst.arrays, val=empty),
                                        inst.cfg)

    def test_finetune_scores_required(self):
        inst = gradcheck.make_check_instance(43, mode="basic", gamma=0.0)
        lookahead = gradcheck._Lookahead(inst.state, inst.arrays, inst.cfg)
        with pytest.raises(ValueError, match="no 'finetune' ignore scores"):
            lookahead.central_differences({"finetune": [0]}, 1e-4)


class TestMutationDetection:
    def test_dropping_proximity_is_flagged(self, monkeypatch):
        """Sabotage: finetuning ignores the stepped pretraining model, so
        the analytic pretraining hypergradient is wrong everywhere."""
        inst = gradcheck.make_check_instance(11)

        true_update = engine._finetune_update

        def sabotaged(params, pretrained_next, *args, **kwargs):
            return true_update(params, params, *args, **kwargs)

        monkeypatch.setattr(engine, "_finetune_update", sabotaged)
        report = gradcheck.verify_hypergrads(inst.state, inst.arrays, inst.cfg)
        flagged = {e.index for e in report.flagged() if e.which == "pretrain"}
        assert flagged == set(range(inst.arrays.pretrain.n))

    @staticmethod
    def assert_halving_is_flagged(monkeypatch, kernel, which):
        """Sabotage: the engine's kernel for one score set reports half the
        true value.  Every component of that set is flagged, no other."""
        inst = gradcheck.make_check_instance(12)
        true_fn = getattr(engine, kernel)

        def halved(*args, **kwargs):
            return 0.5 * true_fn(*args, **kwargs)

        monkeypatch.setattr(engine, kernel, halved)
        report = gradcheck.verify_hypergrads(inst.state, inst.arrays, inst.cfg)
        assert not report.passed()
        assert {(e.which, e.index) for e in report.flagged()} == {
            (which, i) for i in range(inst.arrays.pretrain.n)}

    def test_scaled_hypergrad_is_flagged(self, monkeypatch):
        self.assert_halving_is_flagged(monkeypatch, "_hypergrad_pretrain",
                                       "pretrain")

    def test_scaled_finetune_hypergrad_is_flagged(self, monkeypatch):
        self.assert_halving_is_flagged(monkeypatch, "_hypergrad_finetune",
                                       "finetune")


class TestReport:
    def test_table_and_dict_shapes(self):
        inst = gradcheck.make_check_instance(13)
        report = gradcheck.verify_hypergrads(inst.state, inst.arrays, inst.cfg)
        table = report.as_table()
        assert "pretrain" in table and "finetune" in table
        assert len(table.splitlines()) >= 2 * inst.arrays.pretrain.n

        d = report.to_dict()
        assert d["step"] == report.step
        assert d["passed"] is True
        assert len(d["entries"]) == 2 * inst.arrays.pretrain.n
        entry = d["entries"][0]
        assert set(entry) >= {"which", "index", "analytic", "numeric",
                              "abs_err", "rel_err"}

    def test_rel_err_denominator_floor(self):
        entry = gradcheck.FdEntry("pretrain", 0, 0.0, 0.0)
        assert entry.rel_err == 0.0
        tiny = gradcheck.FdEntry("pretrain", 0, 0.0, 1e-30)
        assert np.isfinite(tiny.rel_err)

    def test_max_rel_err_empty_report(self):
        report = gradcheck.FdReport(step=1e-4, threshold=1e-4)
        assert report.max_rel_err == 0.0
        assert report.passed()

    @pytest.mark.parametrize("side", ["analytic", "numeric"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("at", [0, 2])
    def test_non_finite_entry_fails(self, side, bad, at):
        """A NaN or infinite value on either side, first or later, fails
        the report, and max_rel_err is not finite; ``rel_err >= threshold``
        alone would pass a NaN error, and max() would drop it."""
        entries = [gradcheck.FdEntry("pretrain", i, 1.0, 1.0)
                   for i in range(3)]
        setattr(entries[at], side, bad)
        report = gradcheck.FdReport(1e-4, 1e-4, entries)
        assert not report.passed()
        assert [e.index for e in report.flagged()] == [at]
        assert not math.isfinite(report.max_rel_err)
        assert report.to_dict()["passed"] is False
        assert report.as_table().endswith("FAIL")
