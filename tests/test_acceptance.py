"""Acceptance gate: the six headline checks, one test per criterion.

Each test prints a single verdict line (echoed again in the terminal
summary) and enforces its runtime budget.  Criterion 5 is soft: an
off-interior argmax prints SOFT-FAIL for investigation instead of failing
the suite, since the peak location is dataset-dependent.
"""

import time
from dataclasses import replace

import numpy as np
import reference

from lbi import datasets, engine, experiments, gradcheck, model
from lbi.datasets import SynthSpec
from lbi.engine import LbiConfig

CRITERION_LINES = []


def report(n, ok, detail, soft=False):
    verdict = ("PASS" if ok else "SOFT-FAIL") if soft else ("PASS" if ok else "FAIL")
    line = f"[criterion {n}] {verdict}: {detail}"
    CRITERION_LINES.append(line)
    print(line)


# One corrupted-source bundle shared by criteria 3 and 4.  Class means sit on
# the first axis so the domain shift (along the all-ones diagonal) has a
# component across the class boundary, which makes corruption actually hurt
# and cleaning actually help.
RECOVERY_BUNDLE = SynthSpec(
    dim=5, classes=2, n_pretrain=200, n_train=60, n_val=40, n_test=400,
    shift=0.8, noise_sigma=1.0, corrupt_frac=0.3, corrupt_kind="label_flip",
    seed=31,
    source_means=[[-1.2, 0, 0, 0, 0], [1.2, 0, 0, 0, 0]],
)

# Scarcer target data and a larger validation split for the sweeps, so the
# regularizers have something to trade off.
SWEEP_BUNDLE = SynthSpec(
    dim=5, classes=2, n_pretrain=200, n_train=10, n_val=200, n_test=400,
    shift=1.2, noise_sigma=1.0, corrupt_frac=0.3, corrupt_kind="label_flip",
    seed=5,
    source_means=[[-1.2, 0, 0, 0, 0], [1.2, 0, 0, 0, 0]],
)

SEEDS = [0, 1, 2, 3, 4]


class TestCriterion1:
    def test_hypergradient_exactness(self):
        """20 random small instances across both squashing modes and both
        architectures: every closed-form component within 1e-4 relative
        error of the central finite difference."""
        start = time.perf_counter()
        worst = 0.0
        for seed in range(20):
            inst = gradcheck.make_check_instance(
                seed,
                hidden=4 if seed % 2 else 0,
                ignore_mode="sigmoid" if seed % 4 >= 2 else "clamp",
            )
            rep = gradcheck.verify_hypergrads(inst.state, inst.arrays,
                                              inst.cfg, step=1e-4,
                                              threshold=1e-4)
            worst = max(worst, rep.max_rel_err)
            assert rep.passed(), f"seed {seed}:\n{rep.as_table()}"
        elapsed = time.perf_counter() - start
        ok = worst < 1e-4 and elapsed < 10.0
        report(1, ok, f"20 instances, max rel err {worst:.2e}, "
                      f"{elapsed:.1f}s (< 10s)")
        assert ok


class TestCriterion2:
    def test_reduction_equalities(self):
        """Bit-exact reductions: zero regularizers equal plain finetuning;
        A3 equals FULL at lam=0; A7 equals FULL at gamma=0."""
        start = time.perf_counter()
        spec = SynthSpec(dim=4, classes=2, n_pretrain=30, n_train=20,
                         n_val=10, n_test=10, shift=0.5, noise_sigma=1.0,
                         corrupt_frac=0.3, corrupt_kind="label_flip", seed=2)
        bundle = datasets.generate(spec)

        # (a) lam = gamma = 0 against an independently written plain loop.
        cfg = LbiConfig(lam=0.0, gamma=0.0, iterations=50,
                        lr_finetune_encoder=0.02, lr_finetune_head=0.01)
        state, _ = engine.run(bundle, cfg)
        params = engine.init_state(bundle, cfg).finetune_model
        ones = np.ones(bundle.train.n)
        for _ in range(50):
            g = model.weighted_grad(model._softmax_residual(
                params, bundle.train.X, bundle.train.y), ones)
            params = model.ModelParams(
                params.arch,
                params.encoder - 0.02 * g.d_encoder,
                params.head - 0.01 * g.d_head,
            )
        plain_ok = (state.finetune_model.encoder.tobytes() == params.encoder.tobytes()
                    and state.finetune_model.head.tobytes() == params.head.tobytes())

        # (b, c) ablation trajectories against FULL with the regularizer
        # forced to zero; traces compare every per-iteration loss value.
        base = LbiConfig(lam=0.1, gamma=0.8, iterations=50,
                         lr_ignore_pretrain=2.0, lr_ignore_finetune=0.5)

        def trajectory(cfg):
            st, trace = engine.run(bundle, cfg)
            return (st.finetune_model.encoder.tobytes(),
                    st.finetune_model.head.tobytes(),
                    st.ignore_pretrain.raw.tobytes(),
                    st.ignore_finetune.raw.tobytes(), trace)

        a3 = trajectory(experiments.ablation_config("A3", base))
        full_lam0 = trajectory(experiments.ablation_config(
            "FULL", replace(base, lam=0.0)))
        a3_ok = a3 == full_lam0

        a7 = trajectory(experiments.ablation_config("A7", base))
        full_gam0 = trajectory(experiments.ablation_config(
            "FULL", replace(base, gamma=0.0)))
        a7_ok = a7 == full_gam0

        elapsed = time.perf_counter() - start
        ok = plain_ok and a3_ok and a7_ok and elapsed < 5.0
        report(2, ok, f"plain={plain_ok}, A3=FULL|lam0={a3_ok}, "
                      f"A7=FULL|gamma0={a7_ok}, {elapsed:.1f}s (< 5s)")
        assert ok


class TestCriterion3:
    def test_corrupted_example_recovery(self):
        """Full method on the corrupted-source bundle: recovery AUC of the
        learned pretraining weights at least 0.90 in 4 of 5 seeds, for both
        default proximity strengths."""
        start = time.perf_counter()
        bundle = datasets.generate(RECOVERY_BUNDLE)
        details = []
        all_ok = True
        for lam in (3e-3, 7e-3):
            cfg = LbiConfig(lam=lam, gamma=1.0, iterations=300)
            aucs = []
            for result in experiments.run_matrix(bundle, ["FULL"], SEEDS,
                                                 cfg).results:
                assert result.ok, result.error
                aucs.append(result.recovery_auc_pretrain)
            hits = sum(a >= 0.90 for a in aucs)
            details.append(f"lam={lam:g}: min AUC {min(aucs):.3f}, "
                           f"{hits}/5 seeds >= 0.90")
            all_ok = all_ok and hits >= 4
        elapsed = time.perf_counter() - start
        ok = all_ok and elapsed < 120.0
        report(3, ok, "; ".join(details) + f", {elapsed:.1f}s (< 120s)")
        assert ok


class TestCriterion4:
    def test_ablation_ordering(self):
        """Full 9 x 5 matrix on the corrupted-source bundle: learning the
        ignoring weights must beat the fully-on ablations by at least one
        accuracy point, and pretraining-side ignoring must not hurt."""
        start = time.perf_counter()
        base = LbiConfig(lam=1.0, gamma=1.0, iterations=300,
                         lr_ignore_pretrain=1000.0, lr_ignore_finetune=0.5)
        result = experiments.run_matrix(RECOVERY_BUNDLE,
                                        experiments.ABLATION_IDS, SEEDS, base)
        assert not result.any_failed
        mean = {row.ablation: row.test_accuracy_mean * 100.0
                for row in result.aggregates}
        gap_a2 = mean["FULL"] - mean["A2"]
        gap_a5 = mean["FULL"] - mean["A5"]
        gap_a74 = mean["A7"] - mean["A4"]
        elapsed = time.perf_counter() - start
        ok = (gap_a2 >= 1.0 and gap_a5 >= 1.0 and gap_a74 >= 0.0
              and elapsed < 600.0)
        report(4, ok, f"FULL-A2 {gap_a2:+.2f}pt (>= 1), "
                      f"FULL-A5 {gap_a5:+.2f}pt (>= 1), "
                      f"A7-A4 {gap_a74:+.2f}pt (>= 0), "
                      f"{elapsed:.1f}s (< 600s)")
        assert ok


class TestCriterion5:
    def test_sweep_shape_soft(self):
        """Both regularizer sweeps should peak strictly inside their grids.
        Soft criterion: an endpoint argmax is reported for investigation,
        not failed."""
        base = LbiConfig(iterations=300, lr_finetune_encoder=0.03,
                         lr_ignore_finetune=3.0)

        lam_grid = [1e-4, 1e-3, 3e-3, 7e-3, 2e-2, 5e-2]
        lam_sweep = experiments.sweep("lambda", lam_grid, SWEEP_BUNDLE,
                                      SEEDS, base)
        assert not lam_sweep.any_failed
        assert len(lam_sweep.aggregates) == len(lam_grid)

        gamma_grid = [1e-3, 1e-2, 1e-1, 1.0, 10.0]
        gamma_sweep = experiments.sweep("gamma", gamma_grid, SWEEP_BUNDLE,
                                        SEEDS, base)
        assert not gamma_sweep.any_failed
        assert len(gamma_sweep.aggregates) == len(gamma_grid)

        ok = lam_sweep.argmax_interior and gamma_sweep.argmax_interior
        report(5, ok,
               f"lambda argmax {lam_sweep.argmax_value:g} "
               f"({'interior' if lam_sweep.argmax_interior else 'endpoint'}), "
               f"gamma argmax {gamma_sweep.argmax_value:g} "
               f"({'interior' if gamma_sweep.argmax_interior else 'endpoint'})",
               soft=True)
        # Soft: record both curves so an investigation starts from numbers.
        print("  lambda curve:", [round(row.val_accuracy_mean, 4)
                                  for row in lam_sweep.aggregates])
        print("  gamma curve:", [round(row.val_accuracy_mean, 4)
                                 for row in gamma_sweep.aggregates])


class TestCriterion6:
    def test_kernel_gradient_correctness(self):
        """The engine's gradient kernel (``model.weighted_grad`` on a
        forward) against central differences on 50 random draws; weighted
        gradients must also decompose into per-example rows."""
        start = time.perf_counter()
        rng = np.random.default_rng(2024)
        worst_grad = 0.0
        worst_decomp = 0.0
        for draw in range(50):
            hidden = 3 if draw % 2 else 0
            arch = model.Arch(dim=int(rng.integers(2, 7)), hidden=hidden,
                              classes=int(rng.integers(2, 4)))
            params = model.ModelParams(
                arch,
                rng.uniform(-0.7, 0.7, arch.encoder_size),
                rng.uniform(-0.7, 0.7, arch.head_size),
            )
            n = int(rng.integers(1, 7))
            X = rng.normal(size=(n, arch.dim))
            y = rng.integers(0, arch.classes, size=n)
            w = rng.uniform(0.1, 1.0, n)

            g = model.weighted_grad(model._softmax_residual(params, X, y), w)
            d_enc = rng.normal(size=arch.encoder_size)
            d_head = rng.normal(size=arch.head_size)
            analytic = float(g.d_encoder @ d_enc + g.d_head @ d_head)
            eps = 1e-5
            up = model.ModelParams(arch, params.encoder + eps * d_enc,
                                   params.head + eps * d_head)
            dn = model.ModelParams(arch, params.encoder - eps * d_enc,
                                   params.head - eps * d_head)
            numeric = float(
                model.weighted_losses(model._softmax_residual(up, X, y), w)
                - model.weighted_losses(model._softmax_residual(dn, X, y), w)
            ) / (2 * eps)
            rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric),
                                                1e-12)
            worst_grad = max(worst_grad, rel)

            # proximity gradient along the same encoder direction
            lam = float(rng.uniform(0.05, 0.9))
            anchor = rng.normal(size=arch.encoder_size)
            pg = model.proximity_grad(params.encoder, anchor, lam)
            analytic = float(pg @ d_enc)
            f = lambda e: lam * float(np.sum((e - anchor) ** 2))
            numeric = (f(params.encoder + eps * d_enc)
                       - f(params.encoder - eps * d_enc)) / (2 * eps)
            rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric),
                                                1e-12)
            worst_grad = max(worst_grad, rel)

            genc, ghead = reference.per_example_grad_arrays(params, X, y)
            worst_decomp = max(
                worst_decomp,
                float(np.max(np.abs(w @ genc - g.d_encoder))),
                float(np.max(np.abs(w @ ghead - g.d_head))),
            )
        elapsed = time.perf_counter() - start
        ok = worst_grad < 1e-6 and worst_decomp < 1e-12 and elapsed < 2.0
        report(6, ok, f"50 draws, max grad rel err {worst_grad:.2e} (< 1e-6), "
                      f"max decomposition err {worst_decomp:.2e} (< 1e-12), "
                      f"{elapsed:.2f}s (< 2s)")
        assert ok
