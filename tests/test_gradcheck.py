"""Finite-difference oracle: it must agree with the closed forms on healthy
code and flag a deliberately broken engine.

The mutation test monkeypatches the finetuning update to drop the proximity
pull, which invalidates exactly the pretraining-score hypergradient; the
oracle has to notice on every component.
"""

import numpy as np
import pytest

from lbi import engine, gradcheck, model
from lbi.datasets import DatasetBundle, Split
from lbi.engine import IgnoreSet, LbiState

# Every instance kind the benchmark and criterion 1 check: linear or hidden 4,
# clamp or sigmoid, extended or basic.
KINDS = [(hidden, ignore_mode, mode)
         for hidden in (0, 4)
         for ignore_mode in ("clamp", "sigmoid")
         for mode in ("extended", "basic")]


def reference_fd(state, arrays, cfg, which, index, step):
    """The oracle by its definition: copy the whole state, move one raw
    score, and rerun the public steps and the public loss."""
    vals = []
    for sign in (1.0, -1.0):
        probe = state.copy()
        target = (probe.ignore_pretrain if which == "pretrain"
                  else probe.ignore_finetune)
        target.raw[index] += sign * step
        rates = cfg.rates_at(probe.iteration)
        pre_next = engine.pretrain_step(probe, arrays, cfg, rates)
        fin_next = engine.finetune_step(probe, pre_next, arrays, cfg, rates)
        vals.append(model.weighted_loss_arrays(
            fin_next, arrays.val.X, arrays.val.y, np.ones(arrays.val.n)))
    return (vals[0] - vals[1]) / (2.0 * step)


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

    def test_lam_zero_numeric_difference_is_zero(self):
        """With no proximity coupling the validation loss cannot depend on
        the pretraining scores at all."""
        inst = gradcheck.make_check_instance(4, lam=0.0)
        for i in range(inst.arrays.pretrain.n):
            num = gradcheck.fd_val_loss_wrt_ignore(
                inst.state, inst.arrays, inst.cfg, "pretrain", i
            )
            assert abs(num) < 1e-9

    def test_single_example_instance(self):
        inst = gradcheck.make_check_instance(5, n_pretrain=1)
        report = gradcheck.verify_hypergrads(inst.state, inst.arrays, inst.cfg)
        assert len([e for e in report.entries if e.which == "pretrain"]) == 1
        assert report.passed()

    def test_richardson_error_shrinks_with_step(self):
        """Central differences are second order: quartering the step cuts
        the truncation error by roughly sixteen.  Large steps keep the
        truncation term above float noise so the ratio is measurable."""
        inst = gradcheck.make_check_instance(6)
        pre_next = engine.pretrain_step(inst.state, inst.arrays, inst.cfg)
        fin_next = engine.finetune_step(inst.state, pre_next, inst.arrays,
                                        inst.cfg)
        analytic = engine.hypergrad_ignore_finetune(
            inst.state, fin_next, inst.arrays, inst.cfg
        )
        i = int(np.argmax(np.abs(analytic)))
        errs = []
        for step in (4e-2, 1e-2):
            num = gradcheck.fd_val_loss_wrt_ignore(
                inst.state, inst.arrays, inst.cfg, "finetune", i, step=step
            )
            errs.append(abs(num - analytic[i]))
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
        with pytest.raises(IndexError):
            gradcheck.fd_val_loss_wrt_ignore(
                inst.state, inst.arrays, inst.cfg, "pretrain",
                inst.arrays.pretrain.n,
            )

    def test_bad_which_rejected(self):
        inst = gradcheck.make_check_instance(9)
        with pytest.raises(ValueError):
            gradcheck.fd_val_loss_wrt_ignore(
                inst.state, inst.arrays, inst.cfg, "scores", 0
            )


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
        inst.cfg = engine.config_with(inst.cfg, weight_decay=0.05)
        self.assert_matches_reference(inst, step=3e-2)

    def test_given_lookahead_matches_own(self):
        inst = gradcheck.make_check_instance(24)
        shared = gradcheck._Lookahead(inst.state, inst.arrays, inst.cfg)
        for which in ("pretrain", "finetune"):
            for i in range(inst.arrays.pretrain.n):
                got = gradcheck.fd_val_loss_wrt_ignore(
                    inst.state, inst.arrays, inst.cfg, which, i,
                    lookahead=shared)
                assert got == gradcheck.fd_val_loss_wrt_ignore(
                    inst.state, inst.arrays, inst.cfg, which, i)


class TestExecutedPath:
    def test_across_the_step_decay_boundary(self):
        """Iteration 7 runs the full rates and iteration 8 (decay_start)
        the decayed ones; the oracle agrees on both sides."""
        inst = gradcheck.make_check_instance(31)
        cfg = engine.config_with(inst.cfg, step_decay=True, iterations=10)
        assert cfg.decay_start() == 8
        reports = []
        for it in (7, 8):
            state = inst.state.copy()
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
        scores ``lbi_iteration`` produces, bit for bit."""
        inst = gradcheck.make_check_instance(32, hidden=hidden,
                                             ignore_mode="sigmoid",
                                             n_pretrain=10)
        cfg = engine.config_with(inst.cfg, batch_size=4)
        state, arrays = inst.state, inst.arrays
        idx = engine._batch_indices(
            cfg, state.iteration,
            (arrays.pretrain.n, arrays.train.n, arrays.val.n))
        idx_pre = idx[0]
        assert len(idx_pre) == 4
        sub = DatasetBundle(
            *(Split(split.X[k], split.y[k]) for split, k in
              zip((arrays.pretrain, arrays.train, arrays.val), idx)),
            arrays.test, arrays.dim, arrays.classes, arrays.corrupted[idx_pre])
        sub_state = LbiState(
            state.pretrain_model, state.finetune_model,
            IgnoreSet(state.ignore_pretrain.raw[idx_pre], "sigmoid"),
            IgnoreSet(state.ignore_finetune.raw[idx_pre], "sigmoid"),
            state.iteration)
        report = gradcheck.verify_hypergrads(sub_state, sub, cfg)
        assert report.passed(), report.as_table()

        nxt, _ = engine.lbi_iteration(state, arrays, cfg)
        rates = cfg.rates_at(state.iteration)
        for which, scores, got, rate in (
                ("pretrain", state.ignore_pretrain, nxt.ignore_pretrain,
                 rates.ignore_pretrain),
                ("finetune", state.ignore_finetune, nxt.ignore_finetune,
                 rates.ignore_finetune)):
            hg = np.array([e.analytic for e in report.entries
                           if e.which == which])
            want = engine.apply_ignore_update(scores, hg, rate, idx_pre)
            assert want.raw.tobytes() == got.raw.tobytes()


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
            gradcheck.fd_val_loss_wrt_ignore(inst.state, inst.arrays,
                                             inst.cfg, "pretrain", 0,
                                             step=step)

    def test_numeric_strings_accepted(self):
        """YAML leaves 1e-4 as text; it still counts as a number."""
        assert gradcheck.check_positive("step", "1e-4") == 1e-4

    def test_finetune_scores_required(self):
        inst = gradcheck.make_check_instance(43, mode="basic", gamma=0.0)
        with pytest.raises(ValueError):
            gradcheck.fd_val_loss_wrt_ignore(inst.state, inst.arrays,
                                             inst.cfg, "finetune", 0)


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

    def test_scaled_hypergrad_is_flagged(self, monkeypatch):
        """Sabotage: the closed form reports half the true value."""
        inst = gradcheck.make_check_instance(12)

        true_fn = engine.hypergrad_ignore_pretrain

        def halved(*args, **kwargs):
            return 0.5 * true_fn(*args, **kwargs)

        monkeypatch.setattr(engine, "hypergrad_ignore_pretrain", halved)
        report = gradcheck.verify_hypergrads(inst.state, inst.arrays, inst.cfg)
        assert not report.passed()
        assert any(e.which == "pretrain" for e in report.flagged())


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
