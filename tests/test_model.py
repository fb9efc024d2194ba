"""Kernel correctness: losses, analytic gradients, per-example structure.

Gradients are verified against central finite differences computed here in
the test (never against the kernel's own code), and the per-example
decomposition is checked against explicit weighted sums.
"""

import math

import numpy as np
import pytest
import reference

from lbi import model
from lbi.model import Arch, ModelParams


def random_params(arch, rng, scale=0.5):
    return ModelParams(
        arch,
        rng.uniform(-scale, scale, arch.encoder_size),
        rng.uniform(-scale, scale, arch.head_size),
    )


def random_batch(arch, rng, n):
    X = rng.normal(size=(n, arch.dim))
    y = rng.integers(0, arch.classes, size=n)
    return X, y


def numeric_directional(f, params, d_enc, d_head, eps):
    """Central difference of f along a direction in parameter space."""
    up = ModelParams(params.arch, params.encoder + eps * d_enc,
                     params.head + eps * d_head)
    down = ModelParams(params.arch, params.encoder - eps * d_enc,
                       params.head - eps * d_head)
    return (f(up) - f(down)) / (2 * eps)


class TestLossValues:
    def test_uniform_logits_loss_is_log_classes(self):
        """Zero parameters produce uniform class probabilities."""
        for classes in (2, 3, 12):
            arch = Arch(dim=3, hidden=0, classes=classes)
            params = ModelParams(arch, np.zeros(arch.encoder_size),
                                 np.zeros(arch.head_size))
            X = np.ones((4, 3))
            y = np.array([0, 1 % classes, 0, classes - 1])
            np.testing.assert_allclose(
                model._softmax_residual(params, X, y).losses, math.log(classes),
                rtol=1e-15,
            )

    def test_hand_computed_two_class_loss(self):
        """Match an independently written scalar computation."""
        arch = Arch(dim=2, hidden=0, classes=2)
        E = np.array([[0.3, -0.7], [1.1, 0.4]])
        b = np.array([0.05, -0.2])
        params = ModelParams(arch, E.ravel(), b.copy())
        x = np.array([0.9, -1.3])
        # plain-python forward pass
        z0 = 0.3 * 0.9 + (-0.7) * (-1.3) + 0.05
        z1 = 1.1 * 0.9 + 0.4 * (-1.3) + (-0.2)
        expected = math.log(math.exp(z0) + math.exp(z1)) - z1
        fwd = model._softmax_residual(params, x[None, :], np.array([1]))
        got = fwd.losses[0]
        np.testing.assert_allclose(got, expected, rtol=1e-14)

    def test_huge_margin_loss_vanishes(self):
        arch = Arch(dim=2, hidden=0, classes=2)
        params = ModelParams(arch, np.array([50.0, 0, -50.0, 0]), np.zeros(2))
        X = np.array([[1.0, 0.0]])
        fwd = model._softmax_residual(params, X, np.array([0]))
        assert fwd.losses[0] < 1e-12

    def test_extreme_logits_stay_finite(self):
        """logsumexp path must not overflow for large activations."""
        arch = Arch(dim=2, hidden=0, classes=2)
        params = ModelParams(arch, np.array([500.0, 0, -500.0, 0]), np.zeros(2))
        X = np.array([[2.0, 0.0], [-2.0, 0.0]])
        losses = model._softmax_residual(params, X, np.array([1, 0])).losses
        assert np.isfinite(losses).all()

    def test_weighted_batch_loss_matches_termwise_sum(self):
        rng = np.random.default_rng(7)
        for hidden in (0, 3):
            arch = Arch(dim=4, hidden=hidden, classes=3)
            params = random_params(arch, rng)
            X, y = random_batch(arch, rng, 9)
            w = rng.uniform(0, 1, 9)
            per = model._softmax_residual(params, X, y).losses
            expected = math.fsum(w[i] * per[i] for i in range(9))
            got = reference.loss(params, X, y, w)
            np.testing.assert_allclose(got, expected, rtol=1e-13)

    def test_zero_weights_zero_loss(self):
        arch = Arch(dim=3, hidden=0, classes=2)
        rng = np.random.default_rng(0)
        params = random_params(arch, rng)
        X, y = random_batch(arch, rng, 5)
        assert reference.loss(params, X, y, np.zeros(5)) == 0.0


class TestGradients:
    def test_directional_derivative_matches_fd(self):
        """<grad, direction> agrees with a central difference to 1e-6."""
        rng = np.random.default_rng(42)
        for hidden in (0, 4):
            arch = Arch(dim=5, hidden=hidden, classes=3)
            for _ in range(20):
                params = random_params(arch, rng)
                X, y = random_batch(arch, rng, 6)
                w = rng.uniform(0.1, 1.0, 6)
                g = reference.grad(params, X, y, w)
                d_enc = rng.normal(size=arch.encoder_size)
                d_head = rng.normal(size=arch.head_size)
                analytic = g.d_encoder @ d_enc + g.d_head @ d_head
                numeric = numeric_directional(
                    lambda p: reference.loss(p, X, y, w),
                    params, d_enc, d_head, 1e-5,
                )
                np.testing.assert_allclose(analytic, numeric, rtol=1e-6,
                                           atol=1e-10)

    def test_per_coordinate_fd_small_instance(self):
        """Every coordinate of both blocks, against one-hot differences."""
        rng = np.random.default_rng(3)
        for hidden in (0, 2):
            arch = Arch(dim=3, hidden=hidden, classes=2)
            params = random_params(arch, rng)
            X, y = random_batch(arch, rng, 4)
            w = rng.uniform(0.2, 1.0, 4)
            g = reference.grad(params, X, y, w)
            f = lambda p: reference.loss(p, X, y, w)
            eps = 1e-6
            for k in range(arch.encoder_size):
                e = np.zeros(arch.encoder_size)
                e[k] = 1.0
                num = numeric_directional(f, params, e,
                                          np.zeros(arch.head_size), eps)
                np.testing.assert_allclose(g.d_encoder[k], num, rtol=1e-5,
                                           atol=1e-9)
            for k in range(arch.head_size):
                e = np.zeros(arch.head_size)
                e[k] = 1.0
                num = numeric_directional(f, params,
                                          np.zeros(arch.encoder_size), e, eps)
                np.testing.assert_allclose(g.d_head[k], num, rtol=1e-5,
                                           atol=1e-9)

    def test_zero_weights_zero_gradient(self):
        rng = np.random.default_rng(5)
        arch = Arch(dim=4, hidden=3, classes=2)
        params = random_params(arch, rng)
        X, y = random_batch(arch, rng, 5)
        g = reference.grad(params, X, y, np.zeros(5))
        assert not g.d_encoder.any()
        assert not g.d_head.any()

    def test_gradient_linear_in_weights(self):
        """grad(w1 + w2) == grad(w1) + grad(w2)."""
        rng = np.random.default_rng(11)
        arch = Arch(dim=4, hidden=0, classes=3)
        params = random_params(arch, rng)
        X, y = random_batch(arch, rng, 7)
        w1 = rng.uniform(0, 1, 7)
        w2 = rng.uniform(0, 1, 7)
        g1 = reference.grad(params, X, y, w1)
        g2 = reference.grad(params, X, y, w2)
        g12 = reference.grad(params, X, y, w1 + w2)
        np.testing.assert_allclose(g12.d_encoder, g1.d_encoder + g2.d_encoder,
                                   rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(g12.d_head, g1.d_head + g2.d_head,
                                   rtol=1e-12, atol=1e-15)


class TestPerExampleGrads:
    def test_single_example_matches_weight_one_grad(self):
        rng = np.random.default_rng(13)
        for hidden in (0, 3):
            arch = Arch(dim=3, hidden=hidden, classes=2)
            params = random_params(arch, rng)
            X, y = random_batch(arch, rng, 1)
            genc, ghead = reference.per_example_grad_arrays(params, X, y)
            g = reference.grad(params, X, y, np.ones(1))
            np.testing.assert_allclose(genc[0], g.d_encoder, rtol=1e-14)
            np.testing.assert_allclose(ghead[0], g.d_head, rtol=1e-14)

    def test_decomposition_identity(self):
        """Weighted gradient equals the weighted sum of per-example rows."""
        rng = np.random.default_rng(17)
        for hidden in (0, 4):
            arch = Arch(dim=5, hidden=hidden, classes=3)
            for _ in range(10):
                params = random_params(arch, rng)
                X, y = random_batch(arch, rng, 8)
                w = rng.uniform(0, 1, 8)
                genc, ghead = reference.per_example_grad_arrays(params, X, y)
                g = reference.grad(params, X, y, w)
                np.testing.assert_allclose(w @ genc, g.d_encoder,
                                           rtol=1e-12, atol=1e-12)
                np.testing.assert_allclose(w @ ghead, g.d_head,
                                           rtol=1e-12, atol=1e-12)

    def test_duplicated_example_gives_identical_rows(self):
        rng = np.random.default_rng(19)
        arch = Arch(dim=3, hidden=0, classes=2)
        params = random_params(arch, rng)
        x = rng.normal(size=3)
        X = np.stack([x, x])
        y = np.array([1, 1])
        genc, ghead = reference.per_example_grad_arrays(params, X, y)
        np.testing.assert_array_equal(genc[0], genc[1])
        np.testing.assert_array_equal(ghead[0], ghead[1])


class TestContraction:
    """encoder_dots / head_dots against the materialized per-example rows."""

    @staticmethod
    def assert_rel_close(got, want, rel=1e-12):
        assert got.shape == want.shape
        scale = np.abs(want).max(initial=0.0)
        assert np.abs(got - want).max(initial=0.0) <= rel * scale

    @pytest.mark.parametrize("hidden", [0, 4])
    @pytest.mark.parametrize("n", [0, 1, 37])
    def test_matches_per_example_rows(self, hidden, n):
        rng = np.random.default_rng(100 + 7 * hidden + n)
        arch = Arch(dim=5, hidden=hidden, classes=3)
        for _ in range(5):
            params = random_params(arch, rng, scale=0.8)
            X, y = random_batch(arch, rng, n)
            v = model.GradBlock(rng.normal(size=arch.encoder_size),
                                rng.normal(size=arch.head_size))
            genc, ghead = reference.per_example_grad_arrays(params, X, y)
            fwd = model._softmax_residual(params, X, y)
            enc = model.encoder_dots(fwd, v)
            # encoder-only vector
            self.assert_rel_close(enc, genc @ v.d_encoder)
            # encoder + head vector
            self.assert_rel_close(
                enc + model.head_dots(fwd, v),
                np.concatenate([genc, ghead], axis=1)
                @ np.concatenate([v.d_encoder, v.d_head]),
            )


class TestKernelBytes:
    """The forward record reuses buffers in place; values must stay those
    of the plain expressions, bit for bit."""

    @staticmethod
    def reference(params, X, y, w):
        a = params.arch
        if a.hidden == 0:
            E = params.encoder.reshape(a.classes, a.dim)
            z = X @ E.T + params.head
            T = None
        else:
            W1 = params.encoder[: a.hidden * a.dim].reshape(a.hidden, a.dim)
            b1 = params.encoder[a.hidden * a.dim:]
            U = params.head[: a.classes * a.hidden].reshape(a.classes, a.hidden)
            b2 = params.head[a.classes * a.hidden:]
            T = np.tanh(X @ W1.T + b1)
            z = T @ U.T + b2
        m = z.max(axis=1)
        losses = (m + np.log(np.exp(z - m[:, None]).sum(axis=1))
                  - z[np.arange(len(y)), y])
        ez = np.exp(z - m[:, None])
        G = ez / ez.sum(axis=1, keepdims=True)
        G[np.arange(len(y)), y] -= 1.0
        WG = w[:, None] * G
        if a.hidden == 0:
            return losses, (WG.T @ X).ravel(), WG.sum(axis=0)
        dA = (G @ U) * (1.0 - T * T)
        WdA = w[:, None] * dA
        d_enc = np.concatenate([(WdA.T @ X).ravel(), WdA.sum(axis=0)])
        d_head = np.concatenate([(WG.T @ T).ravel(), WG.sum(axis=0)])
        return losses, d_enc, d_head

    @pytest.mark.parametrize("hidden", [0, 6])
    def test_losses_and_gradients_bitwise(self, hidden):
        rng = np.random.default_rng(29 + hidden)
        arch = Arch(dim=7, hidden=hidden, classes=4)
        for n in (1, 5, 300):
            params = random_params(arch, rng, scale=1.5)
            X, y = random_batch(arch, rng, n)
            w = rng.uniform(0, 1, n)
            losses, d_enc, d_head = self.reference(params, X, y, w)
            fwd = model._softmax_residual(params, X, y)
            assert fwd.losses.tobytes() == losses.tobytes()
            g = reference.grad(params, X, y, w)
            assert g.d_encoder.tobytes() == d_enc.tobytes()
            assert g.d_head.tobytes() == d_head.tobytes()

    @pytest.mark.parametrize("hidden", [0, 6])
    def test_no_weights_equal_unit_weights(self, hidden):
        rng = np.random.default_rng(41 + hidden)
        arch = Arch(dim=7, hidden=hidden, classes=4)
        for n in (1, 5, 300):
            params = random_params(arch, rng, scale=1.5)
            X, y = random_batch(arch, rng, n)
            fwd = model._softmax_residual(params, X, y)
            ones = np.ones(n)
            assert (model.weighted_losses(fwd).tobytes()
                    == model.weighted_losses(fwd, ones).tobytes())
            bare, unit = model.weighted_grad(fwd), model.weighted_grad(fwd, ones)
            assert bare.d_encoder.tobytes() == unit.d_encoder.tobytes()
            assert bare.d_head.tobytes() == unit.d_head.tobytes()

    @pytest.mark.parametrize("hidden", [0, 4])
    def test_shared_projection_equals_separate_dots(self, hidden):
        rng = np.random.default_rng(53 + hidden)
        arch = Arch(dim=5, hidden=hidden, classes=3)
        X, y = random_batch(arch, rng, 40)
        v = model.GradBlock(rng.normal(size=arch.encoder_size),
                            rng.normal(size=arch.head_size))
        proj = model.encoder_projection(arch, X, v)
        for _ in range(2):  # two models' forwards on one batch
            fwd = model._softmax_residual(random_params(arch, rng), X, y)
            assert (model.encoder_dots(fwd, v, proj).tobytes()
                    == model.encoder_dots(fwd, v).tobytes())


class TestProximityGrad:
    def test_equal_blocks_zero(self):
        v = np.arange(6.0)
        assert not model.proximity_grad(v, v.copy(), 0.5).any()

    def test_zero_lam_zero(self):
        rng = np.random.default_rng(29)
        w, v = rng.normal(size=6), rng.normal(size=6)
        assert not model.proximity_grad(w, v, 0.0).any()

    def test_matches_fd_of_squared_distance(self):
        """Against the quadratic lam * ||w - v||^2 differenced directly."""
        rng = np.random.default_rng(31)
        w, v = rng.normal(size=8), rng.normal(size=8)
        lam = 0.37
        g = model.proximity_grad(w, v, lam)
        eps = 1e-6
        for k in range(8):
            e = np.zeros(8)
            e[k] = eps
            num = (lam * np.sum((w + e - v) ** 2)
                   - lam * np.sum((w - e - v) ** 2)) / (2 * eps)
            np.testing.assert_allclose(g[k], num, rtol=1e-8, atol=1e-10)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            model.proximity_grad(np.zeros(3), np.zeros(4), 0.1)


class TestConvexityLinearModel:
    def test_loss_convex_along_segments(self):
        """With no hidden layer the weighted loss is convex in the
        parameters: midpoint value never exceeds the chord."""
        rng = np.random.default_rng(37)
        arch = Arch(dim=4, hidden=0, classes=3)
        X, y = random_batch(arch, rng, 6)
        w = rng.uniform(0, 1, 6)
        for _ in range(25):
            p1 = random_params(arch, rng, scale=2.0)
            p2 = random_params(arch, rng, scale=2.0)
            mid = ModelParams(arch, (p1.encoder + p2.encoder) / 2,
                              (p1.head + p2.head) / 2)
            f1 = reference.loss(p1, X, y, w)
            f2 = reference.loss(p2, X, y, w)
            fm = reference.loss(mid, X, y, w)
            assert fm <= (f1 + f2) / 2 + 1e-9


class TestShapesAndErrors:
    def test_bad_feature_dim_raises(self):
        arch = Arch(dim=3, hidden=0, classes=2)
        params = ModelParams(arch, np.zeros(6), np.zeros(2))
        with pytest.raises(ValueError):
            model.logits(params, np.zeros((2, 4)))

    def test_weight_length_mismatch_raises(self):
        arch = Arch(dim=3, hidden=0, classes=2)
        params = ModelParams(arch, np.zeros(6), np.zeros(2))
        with pytest.raises(ValueError):
            reference.loss(params, np.zeros((2, 3)), np.array([0, 1]),
                           np.ones(3))

    def test_bad_block_sizes_raise(self):
        arch = Arch(dim=3, hidden=0, classes=2)
        with pytest.raises(ValueError):
            ModelParams(arch, np.zeros(5), np.zeros(2))
        with pytest.raises(ValueError):
            ModelParams(arch, np.zeros(6), np.zeros(3))

    def test_init_params_range_and_determinism(self):
        arch = Arch(dim=6, hidden=3, classes=2)
        p1 = model.init_params(arch, np.random.default_rng(123))
        p2 = model.init_params(arch, np.random.default_rng(123))
        np.testing.assert_array_equal(p1.encoder, p2.encoder)
        np.testing.assert_array_equal(p1.head, p2.head)
        assert np.abs(p1.encoder).max() <= 0.1
        assert np.abs(p1.head).max() <= 0.1

    def test_predict_shape(self):
        arch = Arch(dim=2, hidden=0, classes=3)
        params = ModelParams(arch, np.zeros(6), np.array([0.0, 1.0, -1.0]))
        labels = model.predict(params, np.zeros((4, 2)))
        np.testing.assert_array_equal(labels, np.ones(4, dtype=int))
