"""Optimizer loop: step formulas, ignore-score updates, determinism, resume.

Step formulas are checked against manual recomputations built from the
kernel's gradient functions (``tests/reference.py``), read off the models
one iteration (``reference.iterate``) steps to, and the zero-regularizer
reduction is checked bitwise against an independently written plain
finetuning loop.
"""

import hashlib
import math
import os
import re
import subprocess
import sys
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest
import reference

import lbi
from lbi import config, datasets, engine, experiments, gradcheck, model
from lbi.datasets import DatasetBundle, Split, SynthSpec
from lbi.engine import IgnoreSet, LbiConfig
from lbi.errors import ConfigError, NumericError


def tiny_bundle(seed=3, n_pre=6, n_train=4, n_val=3, n_test=4, dim=3):
    spec = SynthSpec(dim=dim, classes=2, n_pretrain=n_pre, n_train=n_train,
                     n_val=n_val, n_test=n_test, shift=0.5, noise_sigma=1.0,
                     corrupt_frac=0.3, corrupt_kind="label_flip", seed=seed)
    return datasets.generate(spec)


def symmetric_pair_bundle(dim=3):
    """Every split holds one feature vector twice with both labels, so a
    zero-parameter model sits at a stationary point of every loss."""
    def pair():
        return Split(np.full((2, dim), 0.7), np.array([0, 1]))

    return DatasetBundle(pair(), pair(), pair(), pair(), dim, 2,
                         np.zeros(2, dtype=bool))


def zero_state(bundle, cfg):
    state = engine.init_state(bundle, cfg)
    for params in (state.pretrain_model, state.finetune_model):
        params.encoder[:] = 0.0
        params.head[:] = 0.0
    return state


class TestIgnoreSet:
    def test_all_on_effective_is_one_or_near_one(self):
        clamp = IgnoreSet.all_on(4, "clamp")
        np.testing.assert_array_equal(clamp.effective(), np.ones(4))
        sig = IgnoreSet.all_on(4, "sigmoid")
        assert (sig.effective() > 0.95).all()
        assert (sig.effective() < 1.0).all()

    def test_clamp_effective_clips(self):
        s = IgnoreSet(np.array([-1.0, 0.25, 2.0]), "clamp")
        np.testing.assert_array_equal(s.effective(), [0.0, 0.25, 1.0])

    def test_sigmoid_effective_matches_logistic(self):
        raw = np.array([-2.0, 0.0, 3.0])
        s = IgnoreSet(raw, "sigmoid")
        np.testing.assert_allclose(s.effective(), 1 / (1 + np.exp(-raw)),
                                   rtol=1e-12)

    def test_sigmoid_saturates_without_warning(self):
        """exp overflows for raw scores below -709; the weight is then 0,
        and no RuntimeWarning escapes."""
        s = IgnoreSet(np.array([-1e6, -800.0, 800.0, 1e6]), "sigmoid")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_array_equal(s.effective(), [0.0, 0.0, 1.0, 1.0])

    def test_grad_chain(self):
        """d(effective)/d(raw): clamp mode's factor of 1 is None (skipped),
        sigmoid mode's is e (1 - e)."""
        raw = np.array([-1.0, 0.5])
        clamp = IgnoreSet(raw, "clamp")
        assert engine._chain_factor(clamp.mode, clamp.effective()) is None
        sig = IgnoreSet(raw, "sigmoid")
        e = sig.effective()
        np.testing.assert_allclose(engine._chain_factor(sig.mode, e),
                                   e * (1 - e), rtol=1e-12)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            IgnoreSet(np.ones(2), "softmax")


def test_import_loads_no_scipy():
    """The package needs numpy and pyyaml only; scipy is a test
    dependency.  ``concurrent.futures`` (about 9.5 ms to import) loads
    only when a run overlaps its stages (``engine._Workspace``)."""
    code = ("import sys, lbi, lbi.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'concurrent')))")
    src = os.path.dirname(os.path.dirname(os.path.abspath(lbi.__file__)))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


def test_readme_quick_start_runs_and_resumes(capsys):
    """README's "Quick start (Python)" code, each ```python block in turn,
    runs as written against the package: a run, then its resume with a
    config of more iterations made by dataclasses.replace."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        section = fh.read().split("\n## Quick start (Python)\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, re.S | re.M)
    assert len(blocks) == 2
    scope = {}
    for block in blocks:
        exec(compile(block, readme, "exec"), scope)
    assert "recovery AUC" in capsys.readouterr().out
    cfg, state, more = scope["cfg"], scope["state"], scope["more"]
    assert cfg.iterations == 300 and scope["longer"].iterations == 400
    assert state.iteration == 400 and len(more) == 100


class TestConfig:
    def test_defaults_validate(self):
        LbiConfig()

    def test_negative_rate_rejected(self):
        with pytest.raises(ConfigError):
            LbiConfig(lr_ignore_pretrain=-0.1)

    def test_zero_rates_allowed(self):
        LbiConfig(lr_pretrain_encoder=0.0, lr_ignore_finetune=0.0)

    def test_negative_lam_rejected(self):
        with pytest.raises(ConfigError):
            LbiConfig(lam=-1e-3)

    @pytest.mark.parametrize("seed", [-1, 0.5, "3", True, None])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ConfigError, match="seed"):
            LbiConfig(seed=seed)
        with pytest.raises(ConfigError, match="seed"):
            replace(LbiConfig(), seed=seed)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            LbiConfig(mode="fancy")
        with pytest.raises(ConfigError):
            LbiConfig(ignore_mode="fancy")

    def test_basic_mode_with_fractional_gamma_rejected(self):
        with pytest.raises(ConfigError):
            LbiConfig(mode="basic", gamma=0.5)
        LbiConfig(mode="basic", gamma=0.0)

    def test_dict_round_trip_uses_lambda_key(self):
        cfg = LbiConfig(lam=7e-3, gamma=0.5, hidden=4)
        d = cfg.to_dict()
        assert d["lambda"] == 7e-3
        assert "lam" not in d
        assert LbiConfig(**config.read_section("lbi", d)) == cfg

    @pytest.mark.parametrize("value", [2.5, True, "2.5", "abc", [4], 0.0])
    def test_bad_batch_size_rejected(self, value):
        """batch_size takes integers >= 1 only, as iterations and hidden
        do: 2.5 is not read as 2, nor True as 1."""
        with pytest.raises(ConfigError, match="batch_size"):
            LbiConfig(**config.read_section("lbi", {"batch_size": value}))

    @pytest.mark.parametrize("value, want", [(None, None), (4, 4), (4.0, 4),
                                             ("4", 4), (np.int64(4), 4)])
    def test_batch_size_accepted(self, value, want):
        got = LbiConfig(**config.read_section(
            "lbi", {"batch_size": value})).batch_size
        assert got == want and type(got) is type(want)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError,
                           match=r"unknown config key lbi\.lambdas \(known: lam,"):
            LbiConfig(**config.read_section("lbi", {"lambdas": 1.0}))

    def test_step_decay_boundary(self):
        """Decay kicks in exactly at 80% of the budget and leaves the
        ignore-score rates alone."""
        cfg = LbiConfig(iterations=300, step_decay=True)
        before = cfg.rates_at(239)
        after = cfg.rates_at(240)
        assert before.pretrain_encoder == cfg.lr_pretrain_encoder
        np.testing.assert_allclose(after.pretrain_encoder,
                                   0.1 * cfg.lr_pretrain_encoder)
        np.testing.assert_allclose(after.finetune_head,
                                   0.1 * cfg.lr_finetune_head)
        assert after.ignore_pretrain == cfg.lr_ignore_pretrain
        assert after.ignore_finetune == cfg.lr_ignore_finetune

    def test_no_decay_without_flag(self):
        cfg = LbiConfig(iterations=300, step_decay=False)
        assert cfg.rates_at(299) == cfg.rates_at(0)

    def test_replace_checks_the_new_config(self):
        cfg = LbiConfig()
        assert replace(cfg, lam=0.5).lam == 0.5
        with pytest.raises(ConfigError):
            replace(cfg, lam=-0.5)


class TestInitState:
    def test_deterministic_per_seed(self):
        bundle = tiny_bundle()
        s1 = engine.init_state(bundle, LbiConfig(seed=5))
        s2 = engine.init_state(bundle, LbiConfig(seed=5))
        np.testing.assert_array_equal(s1.pretrain_model.encoder,
                                      s2.pretrain_model.encoder)
        np.testing.assert_array_equal(s1.finetune_model.head,
                                      s2.finetune_model.head)
        assert engine.init_state(bundle, LbiConfig(seed=6)) is not None

    def test_models_drawn_independently(self):
        state = engine.init_state(tiny_bundle(), LbiConfig(seed=0))
        assert not np.array_equal(state.pretrain_model.encoder,
                                  state.finetune_model.encoder)

    def test_scores_start_fully_on(self):
        bundle = tiny_bundle(n_pre=5)
        state = engine.init_state(bundle, LbiConfig())
        np.testing.assert_array_equal(state.ignore_pretrain.effective(),
                                      np.ones(5))
        assert state.ignore_finetune is not None
        np.testing.assert_array_equal(state.ignore_finetune.raw, np.ones(5))

    def test_basic_mode_has_no_finetune_scores(self):
        state = engine.init_state(tiny_bundle(),
                                  LbiConfig(mode="basic", gamma=0.0))
        assert state.ignore_finetune is None

    def test_ensure_arrays_passes_bundles_only(self):
        bundle = tiny_bundle()
        assert engine.ensure_arrays(bundle) is bundle
        with pytest.raises(ConfigError, match="DatasetBundle"):
            engine.ensure_arrays([bundle.pretrain])

    def test_empty_train_rejected(self):
        bundle = tiny_bundle()
        broken = replace(bundle, train=Split(np.zeros((0, bundle.dim)),
                                             np.zeros(0, dtype=np.int64)))
        with pytest.raises(ConfigError):
            engine.init_state(broken, LbiConfig())

    @pytest.mark.parametrize("split", ["train", "val"])
    def test_empty_split_rejected_on_resume(self, split):
        bundle = tiny_bundle()
        cfg = LbiConfig(iterations=2)
        state = engine.init_state(bundle, cfg)
        broken = replace(bundle, **{split: Split(
            np.zeros((0, bundle.dim)), np.zeros(0, dtype=np.int64))})
        with pytest.raises(ConfigError, match="must be nonempty"):
            engine.run(broken, cfg, initial_state=state)


def step_models(state, bundle, cfg):
    """The (pretraining, finetuned) models one iteration steps to."""
    nxt, _ = reference.iterate(state, bundle, cfg)
    return nxt.pretrain_model, nxt.finetune_model


class TestPretrainStep:
    def test_all_scores_zero_is_identity(self):
        bundle = tiny_bundle()
        cfg = LbiConfig()
        state = engine.init_state(bundle, cfg)
        state.ignore_pretrain.raw[:] = 0.0
        stepped, _ = step_models(state, bundle, cfg)
        assert stepped.encoder.tobytes() == state.pretrain_model.encoder.tobytes()
        assert stepped.head.tobytes() == state.pretrain_model.head.tobytes()

    def test_zero_rates_identity(self):
        bundle = tiny_bundle()
        cfg = LbiConfig(lr_pretrain_encoder=0.0, lr_pretrain_head=0.0)
        state = engine.init_state(bundle, cfg)
        stepped, _ = step_models(state, bundle, cfg)
        np.testing.assert_array_equal(stepped.encoder,
                                      state.pretrain_model.encoder)
        np.testing.assert_array_equal(stepped.head, state.pretrain_model.head)

    def test_matches_manual_recomputation(self):
        """One step equals params minus rate times the weighted gradient."""
        bundle = tiny_bundle()
        cfg = LbiConfig(lr_pretrain_encoder=0.07, lr_pretrain_head=0.02)
        state = engine.init_state(bundle, cfg)
        state.ignore_pretrain.raw[:] = np.linspace(0.1, 0.9, 6)
        g = reference.grad(state.pretrain_model, bundle.pretrain.X,
                           bundle.pretrain.y, state.ignore_pretrain.effective())
        stepped, _ = step_models(state, bundle, cfg)
        np.testing.assert_array_equal(
            stepped.encoder, state.pretrain_model.encoder - 0.07 * g.d_encoder
        )
        np.testing.assert_array_equal(
            stepped.head, state.pretrain_model.head - 0.02 * g.d_head
        )

    def test_never_touches_scores(self):
        """The iteration returns a new state; the incoming one keeps its
        scores and models."""
        bundle = tiny_bundle()
        cfg = LbiConfig()
        state = engine.init_state(bundle, cfg)
        state.ignore_pretrain.raw[:] = np.linspace(0.2, 0.8, 6)
        blocks = [state.ignore_pretrain.raw, state.ignore_finetune.raw,
                  state.pretrain_model.encoder, state.finetune_model.head]
        before = [b.tobytes() for b in blocks]
        reference.iterate(state, bundle, cfg)
        assert [b.tobytes() for b in blocks] == before

    def test_weight_decay_enters_decoupled(self):
        bundle = tiny_bundle()
        wd = 0.3
        cfg = LbiConfig(weight_decay=wd, lr_pretrain_encoder=0.05,
                        lr_pretrain_head=0.05)
        state = engine.init_state(bundle, cfg)
        plain_cfg = replace(cfg, weight_decay=0.0)
        plain, _ = step_models(state, bundle, plain_cfg)
        decayed, _ = step_models(state, bundle, cfg)
        np.testing.assert_allclose(
            decayed.encoder,
            plain.encoder - 0.05 * wd * state.pretrain_model.encoder,
            rtol=1e-12, atol=1e-15,
        )


class TestFinetuneStep:
    def test_basic_lam_zero_is_plain_step(self):
        bundle = tiny_bundle()
        cfg = LbiConfig(mode="basic", lam=0.0, gamma=0.0,
                        lr_finetune_encoder=0.04, lr_finetune_head=0.01)
        state = engine.init_state(bundle, cfg)
        g = reference.grad(state.finetune_model, bundle.train.X,
                           bundle.train.y, np.ones(bundle.train.n))
        _, stepped = step_models(state, bundle, cfg)
        np.testing.assert_array_equal(
            stepped.encoder, state.finetune_model.encoder - 0.04 * g.d_encoder
        )
        np.testing.assert_array_equal(
            stepped.head, state.finetune_model.head - 0.01 * g.d_head
        )

    def test_stationary_point_is_fixed(self):
        """Symmetric-pair data at zero parameters: no train gradient, no
        proximity pull, so the step returns the parameters unchanged."""
        bundle = symmetric_pair_bundle()
        cfg = LbiConfig(mode="basic", lam=0.5, gamma=0.0)
        state = zero_state(bundle, cfg)
        pre_next, stepped = step_models(state, bundle, cfg)
        np.testing.assert_array_equal(pre_next.encoder,
                                      state.pretrain_model.encoder)
        np.testing.assert_array_equal(stepped.encoder,
                                      state.finetune_model.encoder)
        np.testing.assert_array_equal(stepped.head, state.finetune_model.head)

    def test_proximity_term_matches_objective_fd(self):
        """The encoder step direction equals the finite-difference gradient
        of train loss plus lam * ||W_enc - V'_enc||^2."""
        bundle = tiny_bundle()
        lam = 0.4
        xi = 0.05
        cfg = LbiConfig(mode="basic", lam=lam, gamma=0.0,
                        lr_finetune_encoder=xi, lr_finetune_head=xi)
        state = engine.init_state(bundle, cfg)
        pre_next, stepped = step_models(state, bundle, cfg)
        W = state.finetune_model

        def objective(params):
            train = reference.loss(params, bundle.train.X, bundle.train.y,
                                   np.ones(bundle.train.n))
            return train + lam * float(
                np.sum((params.encoder - pre_next.encoder) ** 2)
            )

        implied = (W.encoder - stepped.encoder) / xi
        eps = 1e-6
        for k in range(W.encoder.size):
            e = np.zeros(W.encoder.size)
            e[k] = eps
            up = model.ModelParams(W.arch, W.encoder + e, W.head)
            dn = model.ModelParams(W.arch, W.encoder - e, W.head)
            num = (objective(up) - objective(dn)) / (2 * eps)
            np.testing.assert_allclose(implied[k], num, rtol=1e-5, atol=1e-8)

    def test_extended_gamma_zero_equals_basic(self):
        bundle = tiny_bundle()
        ext = LbiConfig(mode="extended", lam=0.2, gamma=0.0)
        bas = LbiConfig(mode="basic", lam=0.2, gamma=0.0)
        s_ext = engine.init_state(bundle, ext)
        s_bas = engine.init_state(bundle, bas)
        _, a = step_models(s_ext, bundle, ext)
        _, b = step_models(s_bas, bundle, bas)
        assert a.encoder.tobytes() == b.encoder.tobytes()
        assert a.head.tobytes() == b.head.tobytes()

    def test_extended_all_scores_zero_equals_basic(self):
        bundle = tiny_bundle()
        ext = LbiConfig(mode="extended", lam=0.2, gamma=0.7)
        state = engine.init_state(bundle, ext)
        state.ignore_finetune.raw[:] = 0.0
        _, a = step_models(state, bundle, ext)
        bas = LbiConfig(mode="basic", lam=0.2, gamma=0.0)
        _, b = step_models(replace(state, ignore_finetune=None), bundle, bas)
        np.testing.assert_array_equal(a.encoder, b.encoder)
        np.testing.assert_array_equal(a.head, b.head)

    def test_recombination_oracle_full_scores(self):
        """gamma=1 with every score on equals a basic step on the union of
        train and pretraining examples, recomputed here by hand."""
        bundle = tiny_bundle()
        cfg = LbiConfig(mode="extended", lam=0.3, gamma=1.0,
                        lr_finetune_encoder=0.06, lr_finetune_head=0.02)
        state = engine.init_state(bundle, cfg)
        pre_next, stepped = step_models(state, bundle, cfg)

        X = np.vstack([bundle.train.X, bundle.pretrain.X])
        y = np.concatenate([bundle.train.y, bundle.pretrain.y])
        g = reference.grad(state.finetune_model, X, y, np.ones(len(y)))
        d_enc = g.d_encoder + model.proximity_grad(
            state.finetune_model.encoder, pre_next.encoder, 0.3
        )
        np.testing.assert_allclose(
            stepped.encoder, state.finetune_model.encoder - 0.06 * d_enc,
            rtol=1e-12, atol=1e-15,
        )
        np.testing.assert_allclose(
            stepped.head, state.finetune_model.head - 0.02 * g.d_head,
            rtol=1e-12, atol=1e-15,
        )


class TestHypergrads:
    """The raw-score hypergradients of one iteration, as ``lbi verify``
    reads them from the engine."""

    def test_lam_zero_gives_zero_pretrain_hypergrad(self):
        bundle = tiny_bundle()
        cfg = LbiConfig(lam=0.0, gamma=1.0)
        state = engine.init_state(bundle, cfg)
        g, _ = gradcheck._Lookahead(state, bundle, cfg).hypergrads
        np.testing.assert_array_equal(g, np.zeros(6))

    def test_gamma_zero_gives_zero_finetune_hypergrad(self):
        bundle = tiny_bundle()
        cfg = LbiConfig(lam=0.1, gamma=0.0)
        state = engine.init_state(bundle, cfg)
        _, g = gradcheck._Lookahead(state, bundle, cfg).hypergrads
        np.testing.assert_array_equal(g, np.zeros(6))

    def test_zero_validation_gradient_kills_both(self):
        """At zero parameters on symmetric-pair data both steps stay put,
        so the looked-ahead model has zero validation gradient and the
        chain collapses, although no example's own gradient is zero."""
        bundle = symmetric_pair_bundle()
        cfg = LbiConfig(lam=0.5, gamma=0.8)
        state = zero_state(bundle, cfg)
        genc, ghead = reference.per_example_grad_arrays(
            state.pretrain_model, bundle.pretrain.X, bundle.pretrain.y)
        assert genc.all() and ghead.all()
        ga, gb = gradcheck._Lookahead(state, bundle, cfg).hypergrads
        np.testing.assert_allclose(ga, 0.0, atol=1e-15)
        np.testing.assert_allclose(gb, 0.0, atol=1e-15)

    def test_duplicated_example_equal_components(self):
        pretrain = Split(np.tile([0.4, -1.1], (3, 1)), np.ones(3, dtype=np.int64))
        rng = np.random.default_rng(8)
        train = Split(rng.normal(size=(4, 2)), np.arange(4) % 2)
        val = Split(rng.normal(size=(3, 2)), np.arange(3) % 2)
        bundle = DatasetBundle(pretrain, train, val, val, 2, 2,
                               np.zeros(3, dtype=bool))
        cfg = LbiConfig(lam=0.2, gamma=0.9)
        state = engine.init_state(bundle, cfg)
        ga, gb = gradcheck._Lookahead(state, bundle, cfg).hypergrads
        assert ga[0] == ga[1] == ga[2] != 0.0
        assert gb[0] == gb[1] == gb[2] != 0.0


class TestApplyIgnoreUpdate:
    def test_zero_gradient_fixed_point(self):
        s = IgnoreSet(np.array([0.3, 0.9]), "clamp")
        before = s.raw.tobytes()
        engine.apply_ignore_update(s, np.zeros(2), 0.5, None, True)
        assert s.raw.tobytes() == before

    def test_clamp_projects_to_boundary(self):
        s = IgnoreSet(np.array([0.05]), "clamp")
        engine.apply_ignore_update(s, np.array([10.0]), 0.1, None, True)
        assert s.raw[0] == 0.0
        engine.apply_ignore_update(s, np.array([-100.0]), 0.1, None, True)
        assert s.raw[0] == 1.0

    def test_sigmoid_effective_stays_open_interval(self):
        s = IgnoreSet(np.array([0.0]), "sigmoid")
        for g in (1e6, -1e6):
            engine.apply_ignore_update(s, np.array([g]), 1.0, None, True)
            eff = s.effective()[0]
            assert 0.0 <= eff <= 1.0

    @pytest.mark.parametrize("mode", ["clamp", "sigmoid"])
    def test_batch_step_equals_dense_step(self, mode):
        """Stepping only raw[at] in place equals the full step with the
        gradient zero-padded outside at, and both equal the reference
        step, bit for bit."""
        rng = np.random.default_rng(17)
        n = 30
        lo, hi = (0.0, 1.0) if mode == "clamp" else (-3.0, 3.0)
        raw = rng.uniform(lo, hi, n)
        raw[:3] = [0.0, 1.0, 0.5]
        for at in (np.array([0, 1, 4, 9, 29]), np.arange(n),
                   np.array([], dtype=np.int64)):
            g = rng.normal(scale=5.0, size=at.size)
            padded = np.zeros(n)
            padded[at] = g
            dense, sparse = IgnoreSet(raw.copy(), mode), IgnoreSet(raw, mode)
            want = reference.step(dense, padded, 0.3)
            engine.apply_ignore_update(dense, padded, 0.3, None, True)
            engine.apply_ignore_update(sparse, g, 0.3, at, True)
            assert sparse.raw is raw
            assert raw.tobytes() == dense.raw.tobytes() == want.tobytes()

    @pytest.mark.parametrize("batch", [False, True])
    @pytest.mark.parametrize("mode", ["clamp", "sigmoid"])
    def test_cells_that_do_not_step_keep_their_bytes(self, mode, batch):
        """In a stack, the cells that step take the reference step and the
        others keep their bytes, a non-finite gradient there included; no
        cell steps along a None gradient or when none is selected."""
        rng = np.random.default_rng(18)
        K, n = 3, 7
        raw = rng.uniform(0.2, 0.8, (K, n))
        at = np.array([1, 4, 5]) if batch else None
        g = rng.normal(size=(K, n))
        if batch:
            g[:, np.setdiff1d(np.arange(n), at)] = 0.0
        g[1, 4] = np.nan
        hg = g if at is None else g[:, at]
        flat_at = None if at is None else at + n * np.arange(K)[:, None]
        cells = np.array([True, False, True])
        for step, on in ((None, cells), (hg, np.zeros(K, dtype=bool))):
            s = IgnoreSet._of(raw.copy(), mode)
            engine.apply_ignore_update(s, step, 0.4, flat_at, on)
            assert s.raw.tobytes() == raw.tobytes()
        s = IgnoreSet._of(raw.copy(), mode)
        engine.apply_ignore_update(s, hg, 0.4, flat_at, cells)
        for k in range(K):
            want = (reference.step(IgnoreSet(raw[k], mode), g[k], 0.4)
                    if cells[k] else raw[k])
            assert s.raw[k].tobytes() == want.tobytes()


class TestIteration:
    def test_matches_composition_of_public_steps(self):
        """One iteration recomputed from the kernel's gradient functions,
        including the score updates and the trace row.  The scores step
        along the hypergradients ``lbi verify`` checks, which also match
        the closed forms contracted against the per-example reference."""
        bundle = tiny_bundle()
        cfg = LbiConfig(lam=0.2, gamma=0.8, lr_ignore_pretrain=0.3,
                        lr_ignore_finetune=0.1)
        state = engine.init_state(bundle, cfg)
        state.ignore_pretrain.raw[:] = np.linspace(0.3, 0.7, 6)
        state.ignore_finetune.raw[:] = np.linspace(0.6, 0.4, 6)

        nxt, row = reference.iterate(state, bundle, cfg)

        V, W = state.pretrain_model, state.finetune_model
        pre, train, val = bundle.pretrain, bundle.train, bundle.val
        a = state.ignore_pretrain.effective()
        b = state.ignore_finetune.effective()
        g_pre = reference.grad(V, pre.X, pre.y, a)
        pre_enc = V.encoder - cfg.lr_pretrain_encoder * g_pre.d_encoder
        pre_head = V.head - cfg.lr_pretrain_head * g_pre.d_head
        g_train = reference.grad(W, train.X, train.y)
        g_source = reference.grad(W, pre.X, pre.y, b)
        d_enc = (g_train.d_encoder + 0.8 * g_source.d_encoder
                 + model.proximity_grad(W.encoder, pre_enc, 0.2))
        d_head = g_train.d_head + 0.8 * g_source.d_head
        fin_next = model.ModelParams(
            W.arch, W.encoder - cfg.lr_finetune_encoder * d_enc,
            W.head - cfg.lr_finetune_head * d_head)

        hg_a, hg_b = gradcheck._Lookahead(state, bundle, cfg).hypergrads
        g_val = reference.grad(fin_next, val.X, val.y)
        genc_v, _ = reference.per_example_grad_arrays(V, pre.X, pre.y)
        genc_w, ghead_w = reference.per_example_grad_arrays(W, pre.X, pre.y)
        np.testing.assert_allclose(
            hg_a, -2 * cfg.lr_pretrain_encoder * cfg.lr_finetune_encoder
            * 0.2 * (genc_v @ g_val.d_encoder), rtol=1e-12, atol=1e-18)
        np.testing.assert_allclose(
            hg_b, -0.8 * (cfg.lr_finetune_encoder * (genc_w @ g_val.d_encoder)
                          + cfg.lr_finetune_head * (ghead_w @ g_val.d_head)),
            rtol=1e-12, atol=1e-18)
        upd_a = reference.step(state.ignore_pretrain, hg_a, 0.3)
        upd_b = reference.step(state.ignore_finetune, hg_b, 0.1)

        assert nxt.pretrain_model.encoder.tobytes() == pre_enc.tobytes()
        assert nxt.pretrain_model.head.tobytes() == pre_head.tobytes()
        assert nxt.finetune_model.encoder.tobytes() == fin_next.encoder.tobytes()
        assert nxt.finetune_model.head.tobytes() == fin_next.head.tobytes()
        assert nxt.ignore_pretrain.raw.tobytes() == upd_a.tobytes()
        assert nxt.ignore_finetune.raw.tobytes() == upd_b.tobytes()
        assert nxt.iteration == 1

        assert row.iteration == 0
        np.testing.assert_allclose(row.pretrain_loss,
                                   reference.loss(V, pre.X, pre.y, a))
        np.testing.assert_allclose(
            row.val_loss,
            reference.loss(fin_next, val.X, val.y, np.ones(val.n)))
        np.testing.assert_allclose(row.ignore_grad_pretrain_norm,
                                   np.linalg.norm(hg_a))
        np.testing.assert_allclose(row.ignore_grad_finetune_norm,
                                   np.linalg.norm(hg_b))

    @pytest.mark.parametrize("hidden", [0, 3])
    @pytest.mark.parametrize("ignore_mode", ["clamp", "sigmoid"])
    def test_hypergradients_equal_public_functions_bitwise(
            self, hidden, ignore_mode, monkeypatch):
        """The hypergradients the iteration steps the scores along are the
        analytic values of ``gradcheck.verify_hypergrads``, bit for bit."""
        bundle = tiny_bundle(n_pre=9, n_train=5, n_val=4)
        cfg = LbiConfig(lam=0.3, gamma=0.7, hidden=hidden,
                        ignore_mode=ignore_mode)
        state = engine.init_state(bundle, cfg)
        rng = np.random.default_rng(hidden)
        for params in (state.pretrain_model, state.finetune_model):
            params.encoder[:] = rng.uniform(-0.6, 0.6, params.encoder.size)
            params.head[:] = rng.uniform(-0.6, 0.6, params.head.size)
        lo, hi = (0.2, 0.8) if ignore_mode == "clamp" else (-1.0, 1.0)
        state.ignore_pretrain.raw[:] = rng.uniform(lo, hi, 9)
        state.ignore_finetune.raw[:] = rng.uniform(lo, hi, 9)

        seen = []
        apply = engine.apply_ignore_update
        monkeypatch.setattr(engine, "apply_ignore_update",
                            lambda s, g, r, at, cells: seen.append(g)
                            or apply(s, g, r, at, cells))
        reference.iterate(state, bundle, cfg)
        monkeypatch.undo()

        report = gradcheck.verify_hypergrads(state, bundle, cfg)
        hg_a, hg_b = (np.array([e.analytic for e in report.entries
                                if e.which == which])
                      for which in ("pretrain", "finetune"))
        assert len(seen) == 2
        assert seen[0].tobytes() == hg_a.tobytes()
        assert seen[1].tobytes() == hg_b.tobytes()
        assert np.abs(hg_a).max() > 0 and np.abs(hg_b).max() > 0

    @pytest.mark.parametrize("frozen", [False, True])
    @pytest.mark.parametrize("batch_size", [None, 4])
    @pytest.mark.parametrize("hidden", [0, 3])
    @pytest.mark.parametrize("ignore_mode", ["clamp", "sigmoid"])
    def test_matches_public_steps_on_the_batch(self, ignore_mode, hidden,
                                              batch_size, frozen):
        """Each iteration, bit for bit, against ``reference.iterate`` at full
        batch on the iteration's batch view, with the scores stepped densely
        along the zero-padded hypergradients ``lbi verify`` reads there and
        the trace norms taken over the batch's entries; across the
        step-decay boundary (iteration 4 of 5), and ``run`` (rates once per
        phase) agrees."""
        bundle = tiny_bundle(n_pre=9, n_train=6, n_val=5)
        cfg = LbiConfig(lam=0.3, gamma=0.7, hidden=hidden,
                        ignore_mode=ignore_mode, iterations=5,
                        step_decay=True, batch_size=batch_size,
                        lr_ignore_pretrain=2.0, lr_ignore_finetune=1.0,
                        freeze_ignore_pretrain=frozen,
                        freeze_ignore_finetune=frozen)
        full_batch = replace(cfg, batch_size=None)
        state = engine.init_state(bundle, cfg)
        start = reference.copy_state(state)
        n = bundle.pretrain.n
        rows = []
        for it in range(cfg.iterations):
            rates = cfg.rates_at(it)
            sub_state, sub, idx_pre = reference.batch_view(state, bundle, cfg)
            take = slice(None) if idx_pre is None else idx_pre
            pre_next, fin_next = step_models(sub_state, sub, full_batch)
            hgs = gradcheck._Lookahead(sub_state, sub, cfg).hypergrads
            padded = []
            for hg in hgs:
                full = np.zeros(n)
                full[take] = hg
                padded.append(full)
            want_a = state.ignore_pretrain.raw
            want_b = state.ignore_finetune.raw
            if not frozen:
                want_a = reference.step(state.ignore_pretrain, padded[0],
                                        rates.ignore_pretrain)
                want_b = reference.step(state.ignore_finetune, padded[1],
                                        rates.ignore_finetune)
            a = sub_state.ignore_pretrain.effective()
            want_row = engine.TraceRow(
                it,
                reference.loss(state.pretrain_model, sub.pretrain.X,
                               sub.pretrain.y, a),
                reference.loss(state.finetune_model, sub.train.X, sub.train.y,
                               np.ones(sub.train.n)),
                reference.loss(fin_next, sub.val.X, sub.val.y,
                               np.ones(sub.val.n)),
                float(np.linalg.norm(hgs[0])),
                float(np.linalg.norm(hgs[1])),
            )

            state, row = reference.iterate(state, bundle, cfg)
            rows.append(row)
            for got, want in ((state.pretrain_model, pre_next),
                              (state.finetune_model, fin_next)):
                assert got.encoder.tobytes() == want.encoder.tobytes()
                assert got.head.tobytes() == want.head.tobytes()
            assert state.ignore_pretrain.raw.tobytes() == want_a.tobytes()
            assert state.ignore_finetune.raw.tobytes() == want_b.tobytes()
            assert row == want_row
            assert row.ignore_grad_pretrain_norm > 0

        final, trace = engine.run(bundle, cfg, initial_state=start)
        assert trace == rows
        for got, want in ((final.ignore_pretrain.raw, state.ignore_pretrain.raw),
                          (final.finetune_model.encoder,
                           state.finetune_model.encoder)):
            assert got.tobytes() == want.tobytes()

    def test_frozen_scores_stay_bit_identical(self):
        bundle = tiny_bundle()
        cfg = LbiConfig(lam=0.2, gamma=0.8, freeze_ignore_pretrain=True,
                        freeze_ignore_finetune=True)
        state = engine.init_state(bundle, cfg)
        raw_a = state.ignore_pretrain.raw.tobytes()
        raw_b = state.ignore_finetune.raw.tobytes()
        rows = []
        for _ in range(5):
            state, row = reference.iterate(state, bundle, cfg)
            rows.append(row)
        assert state.ignore_pretrain.raw.tobytes() == raw_a
        assert state.ignore_finetune.raw.tobytes() == raw_b
        # hypergradients still flow into the trace
        assert any(r.ignore_grad_pretrain_norm > 0 for r in rows)

    def test_effective_scores_stay_in_range(self):
        bundle = tiny_bundle()
        for ignore_mode in ("clamp", "sigmoid"):
            cfg = LbiConfig(lam=0.5, gamma=1.0, lr_ignore_pretrain=50.0,
                            lr_ignore_finetune=50.0, ignore_mode=ignore_mode)
            state = engine.init_state(bundle, cfg)
            for _ in range(20):
                state, _ = reference.iterate(state, bundle, cfg)
                for scores in (state.ignore_pretrain, state.ignore_finetune):
                    eff = scores.effective()
                    assert (eff >= 0.0).all() and (eff <= 1.0).all()

    def test_sigmoid_mode_moves_scores(self):
        bundle = tiny_bundle()
        cfg = LbiConfig(lam=0.5, gamma=1.0, ignore_mode="sigmoid",
                        lr_ignore_pretrain=20.0, lr_ignore_finetune=20.0)
        state = engine.init_state(bundle, cfg)
        start = state.ignore_pretrain.raw.copy()
        for _ in range(10):
            state, _ = reference.iterate(state, bundle, cfg)
        assert not np.array_equal(state.ignore_pretrain.raw, start)


class TestRunLoop:
    def test_zero_iterations_returns_initial_state(self):
        bundle = tiny_bundle()
        cfg = LbiConfig(iterations=0)
        state, trace = engine.run(bundle, cfg)
        fresh = engine.init_state(bundle, cfg)
        assert trace == []
        np.testing.assert_array_equal(state.pretrain_model.encoder,
                                      fresh.pretrain_model.encoder)

    def test_deterministic(self):
        bundle = tiny_bundle()
        cfg = LbiConfig(iterations=15, lam=0.1, gamma=0.9)
        s1, t1 = engine.run(bundle, cfg)
        s2, t2 = engine.run(bundle, cfg)
        assert s1.finetune_model.encoder.tobytes() == s2.finetune_model.encoder.tobytes()
        assert t1 == t2

    def test_trace_is_prefix_stable(self):
        bundle = tiny_bundle()
        short = LbiConfig(iterations=8, lam=0.1, gamma=0.9)
        long = replace(short, iterations=16)
        _, t_short = engine.run(bundle, short)
        _, t_long = engine.run(bundle, long)
        assert t_long[:8] == t_short

    def test_zero_regularizers_equal_plain_finetuning(self):
        """lam=0, gamma=0 reduces to target-only training: compare against
        a plain loop written here from kernel calls only, bitwise."""
        bundle = tiny_bundle()
        for mode in ("basic", "extended"):
            cfg = LbiConfig(mode=mode, lam=0.0, gamma=0.0, iterations=12,
                            lr_finetune_encoder=0.03, lr_finetune_head=0.01)
            state, _ = engine.run(bundle, cfg)

            params = engine.init_state(bundle, cfg).finetune_model
            ones = np.ones(bundle.train.n)
            for _ in range(12):
                g = reference.grad(params, bundle.train.X, bundle.train.y,
                                   ones)
                params = model.ModelParams(
                    params.arch,
                    params.encoder - 0.03 * g.d_encoder,
                    params.head - 0.01 * g.d_head,
                )
            assert state.finetune_model.encoder.tobytes() == params.encoder.tobytes()
            assert state.finetune_model.head.tobytes() == params.head.tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numeric_failure_carries_iteration_and_partial_trace(self):
        bundle = tiny_bundle()
        cfg = LbiConfig(iterations=60, lr_pretrain_encoder=1e6,
                        lr_pretrain_head=1e6, lr_finetune_encoder=1e6,
                        lr_finetune_head=1e6, lam=1.0, gamma=1.0)
        with pytest.raises(NumericError) as err:
            engine.run(bundle, cfg)
        assert err.value.iteration is not None
        assert 0 <= err.value.iteration < 60
        assert len(err.value.partial_trace) == err.value.iteration

    def test_trace_hook_streams_every_row(self):
        bundle = tiny_bundle()
        cfg = LbiConfig(iterations=5)
        seen = []
        _, trace = engine.run(bundle, cfg, trace_hook=seen.append)
        assert seen == trace

    def test_resume_matches_single_run(self):
        bundle = tiny_bundle()
        cfg = LbiConfig(iterations=10, lam=0.1, gamma=0.9)
        full_state, full_trace = engine.run(bundle, cfg)

        half_cfg = replace(cfg, iterations=5)
        half_state, _ = engine.run(bundle, half_cfg)
        resumed, resumed_trace = engine.run(bundle, cfg,
                                            initial_state=half_state)
        assert resumed.iteration == 10
        assert resumed_trace == full_trace[5:]
        assert (resumed.finetune_model.encoder.tobytes()
                == full_state.finetune_model.encoder.tobytes())
        np.testing.assert_array_equal(resumed.ignore_pretrain.raw,
                                      full_state.ignore_pretrain.raw)

    def test_state_data_mismatch_rejected(self):
        bundle = tiny_bundle()
        state, _ = engine.run(bundle, LbiConfig(iterations=1))
        other = tiny_bundle(dim=4)
        with pytest.raises(ConfigError):
            engine.run(other, LbiConfig(iterations=2), initial_state=state)

    @pytest.mark.parametrize("saved, resumed", [
        ({"ignore_mode": "clamp"}, {"ignore_mode": "sigmoid"}),
        ({"mode": "extended"}, {"mode": "basic"}),
        ({"hidden": 8}, {"hidden": 0}),
    ])
    def test_config_mismatch_rejected(self, saved, resumed):
        bundle = tiny_bundle()
        state, _ = engine.run(bundle, LbiConfig(iterations=1, **saved))
        with pytest.raises(ConfigError, match=next(iter(resumed))):
            engine.run(bundle, LbiConfig(iterations=2, **resumed),
                       initial_state=state)

    def test_state_past_iterations_rejected(self):
        """A stack of resumed states is refused when any of them is past
        the config's iterations; a state at exactly iterations runs none."""
        bundle = tiny_bundle()
        cfg = LbiConfig(iterations=3)
        at, _ = engine.run(bundle, cfg)
        past, _ = engine.run(bundle, replace(cfg, iterations=4))
        cfgs = [cfg, replace(cfg, seed=1)]
        with pytest.raises(ConfigError,
                           match="iteration 4, past the config's iterations=3"):
            engine.run_stack(bundle, cfgs, initial_states=[past, past])
        rows = []
        out = engine.run_stack(bundle, cfgs, initial_states=[at, at],
                               on_row=lambda k, row: rows.append(row))
        assert rows == []
        for state in out:
            assert state.iteration == 3
            assert (engine.to_state_dict(state)
                    == engine.to_state_dict(at))

    def test_score_count_mismatch_rejected(self):
        bundle = tiny_bundle(n_pre=6)
        state, _ = engine.run(bundle, LbiConfig(iterations=1))
        other = tiny_bundle(n_pre=8)
        with pytest.raises(ConfigError):
            engine.run(other, LbiConfig(iterations=2), initial_state=state)

    @pytest.mark.parametrize("batch_size", [None, 4])
    def test_finetune_score_count_mismatch_rejected(self, batch_size):
        bundle = tiny_bundle(n_pre=10)
        cfg = LbiConfig(iterations=2, batch_size=batch_size)
        state, _ = engine.run(bundle, replace(cfg, iterations=1))
        state.ignore_finetune = IgnoreSet(state.ignore_finetune.raw[:7], "clamp")
        with pytest.raises(ConfigError, match="finetuning"):
            engine.run(bundle, cfg, initial_state=state)

    @pytest.mark.parametrize("bad", [-0.25, 1.5, np.nan])
    def test_clamp_scores_outside_unit_interval_rejected(self, bad):
        bundle = tiny_bundle()
        state, _ = engine.run(bundle, LbiConfig(iterations=1))
        state.ignore_pretrain.raw[2] = bad
        with pytest.raises(ConfigError, match=r"\[0, 1\]"):
            engine.run(bundle, LbiConfig(iterations=2), initial_state=state)


class TestMinibatch:
    def test_deterministic(self):
        bundle = tiny_bundle(n_pre=10, n_train=8, n_val=6)
        cfg = LbiConfig(iterations=10, batch_size=4, lam=0.2, gamma=0.8)
        s1, t1 = engine.run(bundle, cfg)
        s2, t2 = engine.run(bundle, cfg)
        assert t1 == t2
        np.testing.assert_array_equal(s1.ignore_pretrain.raw,
                                      s2.ignore_pretrain.raw)

    def test_batch_covering_everything_equals_full_batch(self):
        bundle = tiny_bundle(n_pre=6, n_train=4, n_val=3)

        def blocks(s):
            return [s.pretrain_model.encoder, s.pretrain_model.head,
                    s.finetune_model.encoder, s.finetune_model.head,
                    s.ignore_pretrain.raw, s.ignore_finetune.raw]

        for hidden in (0, 3):
            full = LbiConfig(iterations=7, lam=0.2, gamma=0.8, hidden=hidden)
            s1, t1 = engine.run(bundle, full)
            for batch_size in (6, 64):
                batched = replace(full, batch_size=batch_size)
                s2, t2 = engine.run(bundle, batched)
                assert t1 == t2
                for a, b in zip(blocks(s1), blocks(s2)):
                    assert a.tobytes() == b.tobytes()

    def test_unsampled_scores_unchanged_each_iteration(self):
        """Per-example bookkeeping: examples outside the batch receive a
        zero hypergradient, so their raw scores do not move."""
        bundle = tiny_bundle(n_pre=10, n_train=8, n_val=6)
        cfg = LbiConfig(iterations=1, batch_size=3, lam=0.5, gamma=1.0,
                        lr_ignore_pretrain=5.0, lr_ignore_finetune=5.0)
        state = engine.init_state(bundle, cfg)
        state.ignore_pretrain.raw[:] = 0.5
        state.ignore_finetune.raw[:] = 0.5
        for it in range(6):
            idx_pre, _, _ = engine._draw_batches(
                cfg.seed, cfg.batch_size, state.iteration,
                (bundle.pretrain.n, bundle.train.n, bundle.val.n),
            )
            before = state.ignore_pretrain.raw.copy()
            state, _ = reference.iterate(state, bundle, cfg)
            outside = np.setdiff1d(np.arange(10), idx_pre)
            np.testing.assert_array_equal(
                state.ignore_pretrain.raw[outside], before[outside]
            )
            moved = np.abs(state.ignore_pretrain.raw - before) > 0
            assert not set(np.flatnonzero(moved)) - set(idx_pre)


class TestEmptyPretraining:
    @pytest.mark.parametrize("hidden", [0, 3])
    @pytest.mark.parametrize("batch_size", [None, 4])
    @pytest.mark.parametrize("ignore_mode", engine.IGNORE_MODES)
    @pytest.mark.parametrize("mode", engine.MODES)
    def test_run_traces_zero_pretraining_terms(self, hidden, batch_size,
                                               ignore_mode, mode):
        """Across the step-decay boundary: the weighted pretraining loss
        and both hypergradient norms are 0, and the models stay finite."""
        bundle = reference.without_pretraining(tiny_bundle(n_train=6,
                                                           n_val=5))
        cfg = LbiConfig(hidden=hidden, batch_size=batch_size,
                        ignore_mode=ignore_mode, mode=mode, iterations=12,
                        step_decay=True, weight_decay=0.1,
                        gamma=0.7 if mode == "extended" else 0.0)
        state, trace = engine.run(bundle, cfg)
        assert len(trace) == 12
        for row in trace:
            assert (row.pretrain_loss, row.ignore_grad_pretrain_norm,
                    row.ignore_grad_finetune_norm) == (0.0, 0.0, 0.0)
            assert math.isfinite(row.train_loss)
            assert math.isfinite(row.val_loss)
        assert state.ignore_pretrain.raw.shape == (0,)
        for block in engine._blocks(state)[:4]:
            assert np.isfinite(block).all()

    @pytest.mark.parametrize("hidden", [0, 3])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.1])
    def test_empty_batch_steps_as_all_zero_weights(self, hidden,
                                                   weight_decay):
        """The pretraining objective of an empty batch is the zero sum of a
        batch whose weights are all 0, so both take the same step: the
        weight decay alone."""
        bundle = tiny_bundle()
        cfg = LbiConfig(hidden=hidden, weight_decay=weight_decay,
                        lr_pretrain_encoder=0.05, lr_pretrain_head=0.05)
        state = engine.init_state(bundle, cfg)
        state.ignore_pretrain.raw[:] = 0.0
        copied = reference.copy_state(state)
        empty = engine.LbiState(
            copied.pretrain_model, copied.finetune_model,
            IgnoreSet.all_on(0, cfg.ignore_mode),
            IgnoreSet.all_on(0, cfg.ignore_mode))
        zero_weights, _ = step_models(state, bundle, cfg)
        no_rows, _ = step_models(empty, reference.without_pretraining(bundle),
                                 cfg)
        assert no_rows.encoder.tobytes() == zero_weights.encoder.tobytes()
        assert no_rows.head.tobytes() == zero_weights.head.tobytes()
        moved = no_rows.encoder != state.pretrain_model.encoder
        assert moved.all() if weight_decay else not moved.any()


class TestStatePersistence:
    def test_round_trip_bitwise(self, tmp_path):
        bundle = tiny_bundle()
        cfg = LbiConfig(iterations=4, lam=0.2, gamma=0.8, hidden=3)
        state, _ = engine.run(bundle, cfg)
        path = tmp_path / "state.json"
        engine.save_state(state, path)
        loaded, sha256 = engine.load_state(path)
        assert sha256 == hashlib.sha256(path.read_bytes()).hexdigest()
        assert loaded.iteration == state.iteration
        assert loaded.pretrain_model.arch == state.pretrain_model.arch
        for name in ("pretrain_model", "finetune_model"):
            a, b = getattr(loaded, name), getattr(state, name)
            assert a.encoder.tobytes() == b.encoder.tobytes()
            assert a.head.tobytes() == b.head.tobytes()
        np.testing.assert_array_equal(loaded.ignore_pretrain.raw,
                                      state.ignore_pretrain.raw)
        assert loaded.ignore_finetune.mode == state.ignore_finetune.mode

    def test_basic_mode_state_round_trip(self, tmp_path):
        bundle = tiny_bundle()
        cfg = LbiConfig(mode="basic", gamma=0.0, iterations=2)
        state, _ = engine.run(bundle, cfg)
        path = tmp_path / "state.json"
        engine.save_state(state, path)
        assert engine.load_state(path)[0].ignore_finetune is None

    @pytest.mark.parametrize("where", ["ignore_pretrain", "finetune_model"])
    def test_non_finite_state_not_saved(self, tmp_path, where):
        """A state ``load_state`` would refuse is not written: the save
        raises and the old file keeps its bytes."""
        bundle = tiny_bundle()
        state, _ = engine.run(bundle, LbiConfig(iterations=2))
        path = tmp_path / "state.json"
        engine.save_state(state, path)
        old = path.read_bytes()
        block = getattr(state, where)
        (block.raw if where == "ignore_pretrain" else block.head)[0] = np.nan
        with pytest.raises(ValueError):
            engine.save_state(state, path)
        assert path.read_bytes() == old
        assert sorted(p.name for p in tmp_path.iterdir()) == ["state.json"]

    def test_failed_save_keeps_old_state(self, tmp_path, monkeypatch):
        """A write that fails partway leaves the old file byte for byte."""
        bundle = tiny_bundle()
        state, _ = engine.run(bundle, LbiConfig(iterations=2))
        path = tmp_path / "state.json"
        engine.save_state(state, path)
        old = path.read_bytes()

        def torn_dump(obj, fh, **kwargs):
            fh.write('{"format": "lbi-st')
            raise OSError("disk full")

        monkeypatch.setattr(engine.json, "dump", torn_dump)
        with pytest.raises(OSError, match="disk full"):
            engine.save_state(state, path)
        assert path.read_bytes() == old
        assert sorted(p.name for p in tmp_path.iterdir()) == ["state.json"]

    def test_wrong_version_rejected(self):
        bundle = tiny_bundle()
        state, _ = engine.run(bundle, LbiConfig(iterations=1))
        d = engine.to_state_dict(state)
        d["version"] = 99
        with pytest.raises(ConfigError):
            engine.from_state_dict(d)
        d = engine.to_state_dict(state)
        d["format"] = "something-else"
        with pytest.raises(ConfigError):
            engine.from_state_dict(d)

    def test_resume_from_disk_matches_memory(self, tmp_path):
        bundle = tiny_bundle()
        cfg = LbiConfig(iterations=8, lam=0.1, gamma=0.9)
        half, _ = engine.run(bundle, replace(cfg, iterations=4))
        path = tmp_path / "state.json"
        engine.save_state(half, path)
        resumed, _ = engine.run(bundle, cfg,
                                initial_state=engine.load_state(path)[0])
        full, _ = engine.run(bundle, cfg)
        assert (resumed.finetune_model.encoder.tobytes()
                == full.finetune_model.encoder.tobytes())


class TestHiddenLayer:
    def test_mlp_run_improves_train_loss(self):
        bundle = tiny_bundle(n_pre=8, n_train=12, n_val=6)
        cfg = LbiConfig(hidden=4, iterations=200, lam=0.01, gamma=0.5,
                        lr_finetune_encoder=0.05, lr_finetune_head=0.05)
        state, trace = engine.run(bundle, cfg)
        assert trace[-1].train_loss < trace[0].train_loss
        assert state.finetune_model.arch.hidden == 4


def entry_bundle():
    return datasets.generate(SynthSpec(
        dim=3, classes=3, n_pretrain=9, n_train=6, n_val=5, n_test=4,
        shift=0.5, corrupt_frac=0.3, seed=6))


def bad_bundle(case: str):
    """A hand-built bundle with one defect, and the message
    ``DatasetBundle.validate`` raises for it."""
    bundle = entry_bundle()
    pre, train, val = bundle.pretrain, bundle.train, bundle.val
    if case == "label":
        pre.y[2] = bundle.classes
        return bundle, r"pretrain\[2\] label 3 outside 0\.\.2"
    if case == "int32":
        return (replace(bundle,
                        train=Split(train.X, train.y.astype(np.int32))),
                r"train needs float64 X \(n, dim\) and int64 y \(n,\), got "
                r"float64 \(6, 3\) and int32 \(6,\)")
    if case == "float32":
        return (replace(bundle, val=Split(val.X.astype(np.float32), val.y)),
                r"val needs float64 X \(n, dim\) and int64 y \(n,\), got "
                r"float32 \(5, 3\) and int64 \(5,\)")
    if case == "nan":
        val.X[3, 1] = np.nan
        return bundle, r"val\[3\] has non-finite features"
    if case == "list":
        return (replace(bundle, train=Split(train.X.tolist(), train.y)),
                r"train needs X and y as numpy arrays, got list and ndarray")
    assert case == "flags"
    return (replace(bundle, corrupted=bundle.corrupted[:-1]),
            r"corrupted has 8 flags, pretrain has 9 rows: pretrain\[8\] has "
            r"no flag")


class TestPlan:
    def test_table(self, monkeypatch):
        """``engine.plan`` on 400 pretraining rows: (processes, overlap)
        by cells, config, usable CPUs and a live thread, each constant at
        its value (500,000 cells x iterations x batch rows; 24,000 batch
        rows x hidden) and one below it."""
        assert engine.SPLIT_MIN_CELL_ROW_ITERATIONS == 500_000
        assert engine.OVERLAP_MIN_ACTIVATIONS == 24_000
        bundle = datasets.generate(SynthSpec(
            dim=2, classes=2, n_pretrain=400, n_train=2, n_val=2, n_test=2))
        at_split = {"iterations": 1000, "batch_size": 125}  # 4 cells: 500,000
        at_overlap = {"hidden": 60}  # the whole split: 24,000
        table = [
            # cells, config, usable CPUs, a live thread, (processes, overlap)
            (4, at_split, 2, False, (2, False)),
            (31, {"iterations": 127, "batch_size": 127}, 2, False, (1, False)),
            (3, {"iterations": 10 ** 6}, 2, False, (1, False)),
            (4, {"iterations": 313}, 2, False, (2, False)),  # 500,800
            (4, {"iterations": 313, "batch_size": 1000}, 2, False, (2, False)),
            (4, {"iterations": 313, "batch_size": 399}, 2, False, (1, False)),
            (4, at_split, 1, False, (1, False)),
            (4, at_split, 2, True, (1, False)),
            (1, at_overlap, 2, False, (1, True)),
            (1, {"hidden": 64, "batch_size": 375}, 2, False, (1, True)),
            (1, {"hidden": 233, "batch_size": 103}, 2, False, (1, False)),
            (1, {"hidden": 0, "iterations": 10 ** 6}, 2, False, (1, False)),
            (3, at_overlap, 2, False, (1, False)),
            (4, {**at_split, **at_overlap}, 2, False, (2, False)),
            (1, at_overlap, 1, False, (1, False)),
            (1, at_overlap, 2, True, (1, True)),
        ]
        for cells, change, cpus, thread, want in table:
            monkeypatch.setattr(engine, "_usable_cpus", lambda: cpus)
            stop = threading.Event()
            other = threading.Thread(target=stop.wait)
            if thread:
                other.start()
            try:
                got = engine.plan(bundle, LbiConfig(**change), cells)
            finally:
                stop.set()
                if thread:
                    other.join()
            assert got == want, (cells, change, cpus, thread)
        # A fork needs Linux's os.sched_getaffinity; the overlap does not.
        monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
        monkeypatch.delattr(os, "sched_getaffinity")
        assert engine.plan(bundle, LbiConfig(**at_split), 4) == (1, False)
        assert engine.plan(bundle, LbiConfig(**at_overlap), 1) == (1, True)


class TestTraceOnlyWhenRead:
    """The five trace values are made only where a caller reads them:
    three ``weighted_losses`` and two ``_grad_norms`` per iteration of a
    run, none in a matrix or sweep (no ``on_row``) or the oracle's pass.
    Serial, as a forked child's calls are not counted here."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"weighted_losses": 0, "_grad_norms": 0, "val_losses": 0}
        for owner, name in ((model, "weighted_losses"),
                            (engine, "_grad_norms"),
                            (gradcheck._Lookahead, "val_losses")):
            def counted(*args, _true=getattr(owner, name), _name=name):
                counts[_name] += 1
                return _true(*args)
            monkeypatch.setattr(owner, name, counted)
        monkeypatch.setattr(engine, "_usable_cpus", lambda: 1)
        return counts

    def test_a_run_traces_every_iteration(self, counts):
        rows = engine.run(tiny_bundle(), LbiConfig(iterations=4))[1]
        assert len(rows) == 4
        assert counts == {"weighted_losses": 12, "_grad_norms": 8,
                          "val_losses": 0}

    def test_matrix_sweep_and_oracle_make_none(self, counts):
        cfg = LbiConfig(iterations=4, hidden=2)
        experiments.run_matrix(tiny_bundle(), experiments.ABLATION_IDS,
                               [0, 1], cfg)
        experiments.sweep("gamma", [0.0, 0.5, 1.0], tiny_bundle(), [0, 1],
                          cfg)
        assert counts["weighted_losses"] == counts["_grad_norms"] == 0
        inst = gradcheck.make_check_instance(3, hidden=2)
        gradcheck.verify_hypergrads(inst.state, inst.arrays, inst.cfg)
        # Only the validation losses of the instance's one probe stack.
        assert counts == {"weighted_losses": 1, "_grad_norms": 0,
                          "val_losses": 1}


class TestBundleCheckedOnEntry:
    """A hand-built bundle is checked where it enters the engine, once, and
    a bad one raises ``validate``'s ValueError before any iteration: no
    workspace is made, no process forked, no score probed."""

    CFG = LbiConfig(hidden=3, iterations=2, lam=0.3, gamma=0.7)

    def entries(self, bundle):
        """Each entry point on ``bundle``, as a call of no arguments.  The
        state to verify fits ``bundle`` but is drawn on a valid one."""
        cfg = self.CFG
        state = engine.init_state(entry_bundle(), cfg)
        return {
            "run": lambda: engine.run(bundle, cfg),
            "run_stack": lambda: engine.run_stack(
                bundle, [replace(cfg, seed=s) for s in (0, 1)]),
            "run_matrix": lambda: experiments.run_matrix(
                bundle, experiments.ABLATION_IDS[:2], [0, 1], cfg),
            "verify_hypergrads": lambda: gradcheck.verify_hypergrads(
                state, bundle, cfg),
        }

    @pytest.fixture
    def checked(self, monkeypatch):
        """The bundles ``validate`` ran on in this process, in order."""
        checked = []
        true_validate = datasets.DatasetBundle.validate

        def counted(bundle):
            checked.append(bundle)
            return true_validate(bundle)
        monkeypatch.setattr(datasets.DatasetBundle, "validate", counted)
        return checked

    def test_a_valid_bundle_passes_every_entry(self, overlap, split, checked):
        """Checked once per entry, not per cell, and a split matrix only
        before it forks; the fixtures see what the bad bundles below must
        not cause."""
        counts = {}
        for name, call in self.entries(entry_bundle()).items():
            checked.clear()
            call()
            counts[name] = len(checked)
        assert counts == {"run": 1, "run_stack": 1, "run_matrix": 1,
                          "verify_hypergrads": 1}
        assert overlap.workspaces == [(9, 3)]
        assert len(split) == 1

    @pytest.mark.parametrize("entry", ["run", "run_stack", "run_matrix",
                                       "verify_hypergrads"])
    @pytest.mark.parametrize("case", ["label", "int32", "float32", "nan",
                                      "flags", "list"])
    def test_a_bad_bundle_fails_on_entry(self, overlap, split, checked,
                                         monkeypatch, case, entry):
        bundle, message = bad_bundle(case)
        call = self.entries(bundle)[entry]
        checked.clear()  # generate's own check

        def iterated(*args, **kwargs):
            raise AssertionError("an iteration ran")
        monkeypatch.setattr(engine, "_front", iterated)
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()
        assert len(checked) == 1 and checked[0] is bundle
        assert overlap.workspaces == []
        assert overlap.submits == 0
        assert split == []
