"""Stacked cells: K configurations stepped as one batched iteration.

Three layers of evidence that a stack changes no cell's bits:

* a canary on the installed numpy and BLAS: every stacked primitive the
  kernels use, the class-first forms of ``model``'s layout rule included,
  gives each slice the bits of the 2-D expression of the one-model code
  (an upgrade that breaks one fails here first), and the forms the rule
  excludes are shown to differ;
* a property test: random stacks over mode, ignore mode, hidden width,
  batch size, step decay and weight decay, mixing lam = 0, gamma = 0,
  frozen and failing cells, equal their solo ``engine.run`` byte for byte,
  states and traces, failures included;
* crafted stacks in which each finite check fails its own cell at the
  iteration and with the message of the cell's solo run.
"""

import warnings
from dataclasses import astuple
from types import SimpleNamespace

import numpy as np
import pytest
import reference
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lbi import datasets, engine, experiments, gradcheck, model
from lbi.datasets import SynthSpec
from lbi.engine import LbiConfig
from lbi.errors import ConfigError, NumericError
from lbi.model import Arch, GradBlock, ModelParams


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


# (K, n, dim, classes, hidden): the paper's scale as stacked by the ablation
# matrix (K = 45) and alone, a small minibatch, a wide shape, an odd small
# one (where a contiguous transpose once changed BLAS's sum order), and the
# finite-difference oracle's probe stack of 40 pretraining examples (K = 80).
SHAPES = [(1, 200, 5, 2, 8), (45, 200, 5, 2, 8), (45, 40, 5, 2, 8),
          (3, 500, 32, 10, 64), (3, 40, 2, 2, 2), (5, 7, 3, 3, 2),
          (80, 40, 5, 3, 4)]


def blocks(rng, K, rows, cols):
    return rng.standard_normal((K, rows, cols))


@pytest.mark.parametrize("shape", SHAPES, ids=str)
@pytest.mark.parametrize("shared_x", [True, False], ids=["full", "batch"])
class TestBlasCanary:
    """Each stacked kernel primitive, slice by slice, against the 2-D form."""

    def test_products(self, shape, shared_x):
        K, n, dim, classes, hidden = shape
        rng = np.random.default_rng(n + dim + classes)
        X = (rng.standard_normal((n, dim)) if shared_x
             else rng.standard_normal((K, n, dim)))
        Xk = [X if shared_x else X[k] for k in range(K)]
        for width in (classes, hidden):
            W, b = blocks(rng, K, width, dim), rng.standard_normal((K, width))
            out = model._affine(X, W, b)
            G = blocks(rng, K, n, width)
            grad_t = np.matmul(model._t(G), X)
            for k in range(K):
                want = Xk[k] @ W[k].T
                want += b[k]
                assert same_bits(out[k], want)
                assert same_bits(grad_t[k], G[k].T @ Xk[k])
        G, U = blocks(rng, K, n, classes), blocks(rng, K, classes, hidden)
        T = blocks(rng, K, n, hidden)
        dA, dU = np.matmul(G, U), np.matmul(model._t(G), T)
        for k in range(K):
            assert same_bits(dA[k], G[k] @ U[k])
            assert same_bits(dU[k], G[k].T @ T[k])

    def test_dots(self, shape, shared_x):
        K, n, dim, classes, hidden = shape
        rng = np.random.default_rng(n * dim + classes)
        for width in (classes, hidden):
            A, B = blocks(rng, K, n, width), blocks(rng, K, n, width)
            rows = model._rowdot(A, B)
            for k in range(K):
                assert same_bits(rows[k], np.einsum("ij,ij->i", A[k], B[k]))
        arch = Arch(dim, 0, classes)
        v = GradBlock(rng.standard_normal((K, arch.encoder_size)),
                      rng.standard_normal((K, arch.head_size)))
        # Stand-ins for a stacked Forward: the fields these kernels read.
        fwd = SimpleNamespace(
            params=ModelParams._of(arch, v.d_encoder, v.d_head), n=n,
            classes_first=False,
            G=blocks(rng, K, n, classes), losses=rng.standard_normal((K, n)))
        heads = model.head_dots(fwd, v)
        for k in range(K):
            assert same_bits(heads[k], fwd.G[k] @ v.d_head[k])
        w, losses = rng.uniform(0, 1, (K, n)), fwd.losses
        weighted, unit = model.weighted_losses(fwd, w), model.weighted_losses(fwd)
        for k in range(K):
            assert weighted[k] == float(w[k] @ losses[k])
            assert unit[k] == float(np.ones(n) @ losses[k])

    def test_sums(self, shape, shared_x):
        K, n, dim, classes, hidden = shape
        rng = np.random.default_rng(n + 7 * classes)
        for width in (classes, hidden):
            A = blocks(rng, K, n, width)
            cols, rows = model._sum_examples(A), model._sum_classes(A)
            top = np.maximum.reduce(model._classes_first(A), axis=0)
            for k in range(K):
                assert same_bits(cols[k], np.add.reduce(A[k], axis=0))
                assert same_bits(rows[k],
                                 np.add.reduce(A[k], axis=1, keepdims=True))
                assert same_bits(top[k], np.maximum.reduce(A[k].T.copy(),
                                                           axis=0))


def linear_stack(rng, K, dim, classes):
    arch = Arch(dim, 0, classes)
    return ModelParams._of(arch, rng.standard_normal((K, arch.encoder_size)),
                           rng.standard_normal((K, arch.head_size)))


def cell(params, k):
    return ModelParams._of(params.arch, params.encoder[k], params.head[k])


def classes_first_rule(K, dim, classes):
    return K > 1 and classes < 8 and dim < 8


@pytest.mark.parametrize("shape", SHAPES + [(45, 200, 8, 2, 0)], ids=str)
def test_layout_rule(shape):
    """Stacks of linear models on shared features go class-first unless
    they are one model, have 8 or more classes, or a logit dot of 8 or more
    terms; per-model features and hidden layers never do."""
    K, n, dim, classes, hidden = shape
    rng = np.random.default_rng(0)
    params, X = linear_stack(rng, K, dim, classes), rng.standard_normal((n, dim))
    assert model._runs_classes_first(params.arch, params.encoder, X) == (
        classes_first_rule(K, dim, classes))
    assert not model._runs_classes_first(params.arch, params.encoder,
                                         np.broadcast_to(X, (K, n, dim)))
    mlp = Arch(dim, max(hidden, 1), classes)
    assert not model._runs_classes_first(
        mlp, rng.standard_normal((K, mlp.encoder_size)), X)


@pytest.mark.parametrize("n, dim", [(1, 8), (200, 32)])
def test_long_logit_dots_keep_per_model_gemms(n, dim):
    """With 8 or more input dims the per-class GEMM sums some logit dots in
    another order than the per-model one (here one example at 8 dims, any
    batch at 32), so the rule excludes them."""
    rng = np.random.default_rng(dim)
    X, E = rng.standard_normal((n, dim)), rng.standard_normal((45, 2, dim))
    z = model._class_products(X, E)
    assert not all(same_bits(z[:, :, k].T.copy(), X @ E[k].T)
                   for k in range(45))


def test_products_over_examples_keep_per_model_gemms():
    """Past 10^6 multiply-adds the per-class GEMM of the weighted gradient,
    X.T @ WG[j], sums in another order than the per-model one (a dim-5
    stack of 45 at 4,445 examples), so it stays one GEMM per model."""
    rng = np.random.default_rng(5)
    X, WG = rng.standard_normal((4445, 5)), rng.standard_normal((2, 4445, 45))
    per_model = np.matmul(model._t(model._examples_first(WG)), X)
    per_class = [X.T @ WG[j] for j in range(2)]
    assert not all(same_bits(per_class[j][:, k], per_model[k, j])
                   for j in range(2) for k in range(45))


@pytest.mark.parametrize(
    "shape", [s for s in SHAPES if classes_first_rule(s[0], s[2], s[3])],
    ids=str)
class TestClassFirstCanary:
    """The class-first forms of a stack on shared features, slice by slice,
    against the 2-D expressions of a one-model forward, at every shape of
    ``SHAPES`` that the layout rule runs class-first."""

    def setup(self, shape, seed):
        K, n, dim, classes, hidden = shape
        rng = np.random.default_rng(seed + n * dim + classes)
        params = linear_stack(rng, K, dim, classes)
        return (rng, params, rng.standard_normal((n, dim)),
                rng.integers(0, classes, n))

    def test_products(self, shape):
        K, n, dim, classes, hidden = shape
        rng, params, X, _ = self.setup(shape, 1)
        E, b = model._linear_views(params)
        z = model._class_products(X, E)
        z += b.T[:, None, :]
        v = GradBlock(rng.standard_normal((K, params.arch.encoder_size)),
                      rng.standard_normal((K, classes)))
        proj = model.encoder_projection(params.arch, X, v)
        E_v = v.d_encoder.reshape(K, classes, dim)
        for k in range(K):
            want = X @ E[k].T
            want += b[k]
            assert same_bits(z[:, :, k].T.copy(), want)
            assert same_bits(proj[:, :, k].T.copy(), X @ E_v[k].T)

    def test_reductions(self, shape):
        K, n, dim, classes, hidden = shape
        rng = self.setup(shape, 2)[0]
        A = rng.standard_normal((classes, n, K))
        top, rows = np.maximum.reduce(A, axis=0), np.add.reduce(A, axis=0)
        cols = np.add.reduce(A, axis=1)
        rows_first = model._examples_first(A)
        for k in range(K):
            Ak = A[:, :, k].T.copy()
            assert same_bits(rows_first[k], Ak)
            assert same_bits(top[:, k], np.maximum.reduce(Ak.T.copy(), axis=0))
            assert same_bits(rows[:, k, None], model._sum_classes(Ak))
            assert same_bits(cols[:, k], np.add.reduce(Ak, axis=0))

    def test_forward(self, shape):
        """Logits, residual (the label scatter), losses and both gradient
        blocks of each cell, weighted and not."""
        K, n, dim, classes, hidden = shape
        rng, params, X, y = self.setup(shape, 3)
        fwd = model._softmax_residual(params, X, y)
        assert fwd.classes_first
        w = rng.uniform(0, 1, (K, n))
        losses = fwd.losses
        unit, weighted = model.weighted_grad(fwd), model.weighted_grad(fwd, w)
        for k in range(K):
            solo = model._softmax_residual(cell(params, k), X, y)
            assert same_bits(fwd.z[:, :, k].T.copy(), solo.z)
            assert same_bits(fwd.G[:, :, k].T.copy(), solo.G)
            assert same_bits(losses[k], solo.losses)
            for got, want in ((unit, model.weighted_grad(solo)),
                              (weighted, model.weighted_grad(solo, w[k]))):
                assert same_bits(got.d_encoder[k], want.d_encoder)
                assert same_bits(got.d_head[k], want.d_head)

    def test_row_dots(self, shape):
        """Encoder and head dots of each cell.  At 2 classes the encoder
        dot is the elementwise G[0] P[0] + G[1] P[1]."""
        K, n, dim, classes, hidden = shape
        rng, params, X, y = self.setup(shape, 4)
        fwd = model._softmax_residual(params, X, y)
        v = GradBlock(rng.standard_normal((K, params.arch.encoder_size)),
                      rng.standard_normal((K, classes)))
        enc, head = model.encoder_dots(fwd, v), model.head_dots(fwd, v)
        A, B = rng.standard_normal((2, 2, n, K))
        # Exact zeros give -0.0 totals, which einsum's sum turns into +0.0.
        A[:, : n // 2] = 0.0
        B[:, : n // 3] = -1.0
        pair = model._class_rowdot(A, B)
        for k in range(K):
            solo = model._softmax_residual(cell(params, k), X, y)
            vk = GradBlock(v.d_encoder[k], v.d_head[k])
            assert same_bits(enc[k], model.encoder_dots(solo, vk))
            assert same_bits(head[k], model.head_dots(solo, vk))
            assert same_bits(pair[k], np.einsum(
                "ij,ij->i", A[:, :, k].T.copy(), B[:, :, k].T.copy()))


@pytest.mark.parametrize("classes", range(3, 9))
def test_row_dots_beyond_two_classes_use_einsum(classes):
    """From 3 classes the elementwise row dot sums in another order than
    einsum, so the class-first kernels take einsum's on example-major
    copies."""
    rng = np.random.default_rng(classes)
    A, B = rng.standard_normal((2, classes, 40, 45))
    got = model._class_rowdot(A, B)
    elementwise = A[0] * B[0]
    for j in range(1, classes):
        elementwise = elementwise + A[j] * B[j]
    want = [np.einsum("ij,ij->i", A[:, :, k].T.copy(), B[:, :, k].T.copy())
            for k in range(45)]
    assert all(same_bits(got[k], want[k]) for k in range(45))
    assert not same_bits(elementwise.T.copy(), np.array(want))


@pytest.mark.parametrize("classes", range(2, 12))
def test_class_sums_every_class_count(classes):
    """Below 8 classes the row sums come from the elementwise reduce of a
    transposed copy, or of the class-first forward's buffer; from 8 on from
    the per-row reduce.  Either way each row matches the per-row reduce of
    its 2-D slice."""
    rng = np.random.default_rng(classes)
    for K in (1, 45):
        A = rng.standard_normal((K, 200, classes))
        rows = model._sum_classes(A)
        for k in range(K):
            assert same_bits(rows[k], np.add.reduce(A[k], axis=1,
                                                    keepdims=True))
        assert same_bits(model._sum_classes(A[0]),
                         np.add.reduce(A[0], axis=1, keepdims=True))
    params = linear_stack(rng, 45, 5, classes)
    X, y = rng.standard_normal((200, 5)), rng.integers(0, classes, 200)
    fwd = model._softmax_residual(params, X, y)
    assert fwd.classes_first == (classes < 8)
    for k in range(45):
        ez = fwd.ez[:, :, k].T if fwd.classes_first else fwd.ez[k]
        sums = fwd.s[:, k] if fwd.classes_first else fwd.s[k, :, 0]
        assert same_bits(sums, np.add.reduce(ez, axis=1))
        solo = model._softmax_residual(cell(params, k), X, y)
        assert same_bits(sums, solo.s[:, 0])


def cell_outcome(out, rows):
    """Comparable bits of one cell: its blocks or its error, and its trace."""
    trace = np.array([astuple(r) for r in rows]).tobytes()
    if isinstance(out, NumericError):
        return ("error", str(out), out.iteration, trace)
    return ("ok", [b.tobytes() for b in engine._blocks(out)], out.iteration,
            trace)


def solo_outcome(bundle, cfg, state=None):
    try:
        out, rows = engine.run(bundle, cfg, initial_state=state)
    except NumericError as e:
        out, rows = e, e.partial_trace
    return cell_outcome(out, rows)


def stacked_outcomes(bundle, cfgs, states=None):
    rows = {k: [] for k in range(len(cfgs))}
    outs = engine.run_stack(bundle, cfgs, states,
                            lambda k, row: rows[k].append(row))
    return [cell_outcome(out, rows[k]) for k, out in enumerate(outs)]


@st.composite
def stacks(draw):
    mode = draw(st.sampled_from(engine.MODES))
    base = LbiConfig(
        mode=mode, ignore_mode=draw(st.sampled_from(engine.IGNORE_MODES)),
        hidden=draw(st.sampled_from([0, 3])),
        batch_size=draw(st.sampled_from([None, 4])),
        step_decay=draw(st.booleans()),
        weight_decay=draw(st.sampled_from([0.0, 0.05])),
        iterations=draw(st.integers(1, 6)),
        lr_pretrain_encoder=0.05, lr_finetune_encoder=0.05,
        lr_ignore_pretrain=3.0, lr_ignore_finetune=1.0,
    )
    # lam = 1e150 makes a cell fail a few iterations in.
    lams = st.sampled_from([0.0, 0.3, 1.0, 1e150])
    gammas = st.sampled_from([0.0, 1.0] if mode == "basic" else [0.0, 0.7])
    cells = draw(st.lists(
        st.tuples(st.integers(0, 3), lams, gammas, st.booleans(),
                  st.booleans()), min_size=1, max_size=6))
    cfgs = [engine.config_with(base, seed=seed, lam=lam, gamma=gamma,
                               freeze_ignore_pretrain=fa,
                               freeze_ignore_finetune=fb)
            for seed, lam, gamma, fa, fb in cells]
    bundle = datasets.generate(SynthSpec(
        dim=3, classes=draw(st.sampled_from([2, 3, 8])), n_pretrain=9,
        n_train=6, n_val=5, n_test=4, shift=0.5, corrupt_frac=0.3,
        seed=draw(st.integers(0, 50))))
    return bundle, cfgs


def full_batch_stack(classes, mode):
    """Linear full-batch cells that mix every per-cell switch: with 3
    classes the class-first row dots take einsum, with 8 the stack stays
    example-major."""
    base = LbiConfig(mode=mode, iterations=5, step_decay=True,
                     lr_ignore_pretrain=3.0, lr_ignore_finetune=1.0)
    gamma = 0.7 if mode == "extended" else 0.0
    cfgs = [engine.config_with(base, seed=seed, lam=lam, gamma=g,
                               freeze_ignore_pretrain=frozen)
            for seed, lam, g, frozen in ((0, 0.3, gamma, False),
                                         (1, 0.0, gamma, True),
                                         (2, 1.0, 0.0, False),
                                         (3, 1e150, gamma, False))]
    return datasets.generate(SynthSpec(
        dim=3, classes=classes, n_pretrain=9, n_train=6, n_val=5, n_test=4,
        shift=0.5, corrupt_frac=0.3, seed=classes)), cfgs


class TestStackEqualsSolo:
    @settings(max_examples=60, deadline=None)
    @given(stacks())
    @example(full_batch_stack(3, "extended"))
    @example(full_batch_stack(8, "extended"))
    @example(full_batch_stack(3, "basic"))
    def test_every_cell_is_its_solo_run(self, stack):
        bundle, cfgs = stack
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got = stacked_outcomes(bundle, cfgs)
            want = [solo_outcome(bundle, cfg) for cfg in cfgs]
        assert got == want

    def test_decay_boundary_and_resumed_cells(self):
        """Cells resumed mid-run, across the step-decay boundary."""
        bundle = datasets.generate(SynthSpec(
            dim=3, classes=2, n_pretrain=8, n_train=5, n_val=4, n_test=4,
            shift=0.5, corrupt_frac=0.3, seed=8))
        base = LbiConfig(iterations=10, step_decay=True, batch_size=3,
                         lr_ignore_pretrain=3.0)
        cfgs = [engine.config_with(base, seed=s, lam=lam, gamma=g)
                for s, lam, g in ((0, 0.3, 0.7), (1, 0.0, 0.7), (2, 0.3, 0.0))]
        half = [engine.run(bundle, engine.config_with(c, iterations=6))[0]
                for c in cfgs]
        assert cfgs[0].decay_start() == 8
        got = stacked_outcomes(bundle, cfgs,
                               [reference.copy_state(s) for s in half])
        assert got == [solo_outcome(bundle, c, reference.copy_state(s))
                       for c, s in zip(cfgs, half)]

    @pytest.mark.parametrize("hidden", [0, 3])
    @pytest.mark.parametrize("batch_size", [None, 4])
    def test_empty_pretraining_matrix(self, hidden, batch_size, monkeypatch):
        """A matrix on a bundle without pretraining rows: the cells of its
        one stack (A1, A5, FULL x 2 seeds) are their solo runs, bit for
        bit, and so are their trace rows in a stack of the same cells."""
        bundle = reference.without_pretraining(datasets.generate(SynthSpec(
            dim=3, classes=2, n_pretrain=4, n_train=6, n_val=5, n_test=4,
            shift=0.5, corrupt_frac=0.3, seed=5)))
        base = LbiConfig(iterations=10, step_decay=True, weight_decay=0.05,
                         hidden=hidden, batch_size=batch_size)
        ids, seeds = ["A1", "A5", "FULL"], [0, 1]
        cfgs = [experiments.ablation_config(
            i, engine.config_with(base, seed=s)) for i in ids for s in seeds]
        outs = []
        stack = engine.run_stack

        def kept(*args):
            outs.extend(stack(*args))
            return outs

        monkeypatch.setattr(engine, "run_stack", kept)
        matrix = experiments.run_matrix(bundle, ids, seeds, base)
        monkeypatch.undo()
        solo = [engine.run(bundle, cfg)[0] for cfg in cfgs]
        assert [[b.tobytes() for b in engine._blocks(s)] for s in outs] == [
            [b.tobytes() for b in engine._blocks(s)] for s in solo]
        assert [r.test_accuracy for r in matrix.results] == [
            experiments.score(s, bundle)["test_accuracy"] for s in solo]
        assert stacked_outcomes(bundle, cfgs) == [
            solo_outcome(bundle, cfg) for cfg in cfgs]


def failing_stack(hidden=0):
    """One cell per finite check that fails its own cell, in the solo order
    of the checks, plus healthy, lam = 0, gamma = 0 and frozen cells (the
    expected errors are the linear model's)."""
    bundle = datasets.generate(SynthSpec(
        dim=3, classes=3, n_pretrain=9, n_train=6, n_val=5, n_test=4,
        shift=0.5, corrupt_frac=0.3, seed=4))
    # Weight decay 1 and head rates of 3 let a head of 1e308 overflow in its
    # own update while the forward stays finite.
    base = LbiConfig(lam=0.3, gamma=0.7, iterations=3, weight_decay=1.0,
                     hidden=hidden, lr_pretrain_head=3.0, lr_finetune_head=3.0,
                     lr_ignore_pretrain=2.0, lr_ignore_finetune=1.0)

    def huge(params, block):
        def craft(state):
            getattr(getattr(state, params), block)[:] = 1e308
        return craft

    def zero_b(state):
        # The b-weighted source term vanishes, so only its hypergradient
        # (gamma times finite products) overflows.
        state.ignore_finetune.raw[:] = 0.0

    plan = [
        (None, {}, None),
        (huge("pretrain_model", "encoder"), {},
         "non-finite pretraining encoder update"),
        (huge("pretrain_model", "head"), {},
         "non-finite pretraining head update"),
        (huge("finetune_model", "encoder"), {},
         "non-finite finetuned encoder update"),
        (huge("finetune_model", "head"), {},
         "non-finite finetuned head update"),
        (None, {"lam": 1e150, "seed": 1},
         "non-finite finetuned encoder update"),
        (None, {"lam": 0.0, "seed": 2}, None),
        (None, {"gamma": 0.0, "freeze_ignore_pretrain": True, "seed": 3},
         None),
        (zero_b, {"lam": 0.0, "gamma": 1e308, "seed": 5},
         "non-finite ignoring-score gradient"),
        # The same gradient on frozen scores is never applied, so not checked.
        (zero_b, {"lam": 0.0, "gamma": 1e308, "seed": 5,
                  "freeze_ignore_finetune": True}, None),
    ]
    cfgs, states, errors = [], [], []
    for craft, change, error in plan:
        cfg = engine.config_with(base, **change)
        state = engine.init_state(bundle, cfg)
        if craft is not None:
            craft(state)
        cfgs.append(cfg)
        states.append(state)
        errors.append(error)
    return bundle, cfgs, states, errors


class TestCellFailures:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_each_check_fails_only_its_cell(self):
        bundle, cfgs, states, errors = failing_stack()
        got = stacked_outcomes(bundle, cfgs,
                               [reference.copy_state(s) for s in states])
        want = [solo_outcome(bundle, c, reference.copy_state(s))
                for c, s in zip(cfgs, states)]
        assert got == want
        assert [g[1] if g[0] == "error" else None for g in got] == errors
        assert got[5][2] == 2  # fails mid-run, after two clean iterations
        assert all(g[2] == 3 for g, e in zip(got, errors) if e is None)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failing_rows_match_solo_runs(self):
        """results.csv rows come from run_cell: a failing cell's error is
        its solo run's, the others score as they would alone."""
        bundle = datasets.generate(SynthSpec(
            dim=3, classes=2, n_pretrain=12, n_train=8, n_val=6, n_test=6,
            shift=0.5, corrupt_frac=0.3, seed=2))
        base = LbiConfig(lam=1e150, gamma=0.7, iterations=4)
        cells = [(aid, seed) for aid in ("A1", "A3", "A5", "FULL")
                 for seed in (0, 1)]
        results = experiments.run_cell(bundle, [
            (aid, experiments.ablation_config(
                aid, engine.config_with(base, seed=seed)))
            for aid, seed in cells])
        assert [(r.ablation, r.seed) for r in results] == cells
        for r in results:
            outcome = solo_outcome(bundle, r.config)
            if r.ablation in ("A5", "FULL"):
                assert r.error == (f"numeric failure at iteration "
                                   f"{outcome[2]}: {outcome[1]}")
            else:
                assert r.ok and outcome[0] == "ok"


class TestOneEngine:
    def test_matrix_and_sweep_never_run_cells_alone(self, monkeypatch):
        bundle = datasets.generate(SynthSpec(
            dim=3, classes=2, n_pretrain=8, n_train=5, n_val=4, n_test=4,
            shift=0.5, corrupt_frac=0.3, seed=1))
        cfg = LbiConfig(iterations=3)
        want = experiments.run_matrix(bundle, ["A1", "FULL"], [0, 1], cfg)
        sweep = experiments.sweep("lambda", [0.0, 0.1, 1.0], bundle, [0], cfg)
        calls = []
        stack = engine.run_stack

        def counted(*args, **kwargs):
            calls.append(len(args[1]))
            return stack(*args, **kwargs)

        monkeypatch.setattr(engine, "run_stack", counted)
        monkeypatch.setattr(engine, "run", None)
        got = experiments.run_matrix(bundle, ["A1", "FULL"], [0, 1], cfg)
        again = experiments.sweep("lambda", [0.0, 0.1, 1.0], bundle, [0], cfg)
        assert calls == [4, 3]
        assert [r.test_accuracy for r in got.results] == [
            r.test_accuracy for r in want.results]
        assert [r.val_accuracy for r in again.results] == [
            r.val_accuracy for r in sweep.results]

    @pytest.mark.parametrize("change", [
        {"iterations": 4}, {"hidden": 2}, {"batch_size": 2},
        {"lr_pretrain_head": 0.5}, {"mode": "basic", "gamma": 0.0},
    ])
    def test_cells_must_share_the_rest_of_the_config(self, change):
        bundle = datasets.generate(SynthSpec(
            dim=3, classes=2, n_pretrain=8, n_train=5, n_val=4, n_test=4,
            seed=1))
        cfg = LbiConfig(iterations=3)
        with pytest.raises(ConfigError, match="differ only in"):
            engine.run_stack(bundle, [cfg, engine.config_with(cfg, **change)])

    def test_cells_must_start_together(self):
        bundle = datasets.generate(SynthSpec(
            dim=3, classes=2, n_pretrain=8, n_train=5, n_val=4, n_test=4,
            seed=1))
        cfg = LbiConfig(iterations=3)
        ahead, _ = engine.run(bundle, engine.config_with(cfg, iterations=1))
        with pytest.raises(ConfigError, match="same iteration"):
            engine.run_stack(bundle, [cfg, cfg],
                             [engine.init_state(bundle, cfg), ahead])


def serial(fn, *args):
    """``fn(*args)`` on the serial path: the process may use one CPU."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_usable_cpus", lambda: 1)
        return fn(*args)


def overlap_cells(mode, ignore_mode, hidden, batch_size):
    """A bundle and the configs of a plain cell, a lam = 0 cell and a
    gamma = 0 cell with frozen finetuning scores."""
    base = LbiConfig(mode=mode, ignore_mode=ignore_mode, hidden=hidden,
                     batch_size=batch_size, iterations=4,
                     lr_ignore_pretrain=3.0, lr_ignore_finetune=1.0)
    gamma = 0.7 if mode == "extended" else 1.0
    cfgs = [engine.config_with(base, seed=seed, lam=lam, gamma=g,
                               freeze_ignore_pretrain=fa,
                               freeze_ignore_finetune=fb)
            for seed, lam, g, fa, fb in ((0, 0.3, gamma, False, False),
                                         (1, 0.0, gamma, True, False),
                                         (2, 0.3, 0.0, False, True))]
    bundle = datasets.generate(SynthSpec(
        dim=3, classes=3, n_pretrain=9, n_train=6, n_val=5, n_test=4,
        shift=0.5, corrupt_frac=0.3, seed=6))
    return bundle, cfgs


class TestOverlap:
    """An overlapping run runs stage 1 on a worker thread and keeps the
    pretraining batch's hidden arrays in fixed buffers; every value keeps
    the bits of the serial path.  (The suite's conftest fails a test that
    leaves the worker thread running.)"""

    def test_rule(self, overlap, monkeypatch):
        """A run overlaps when it is one MLP cell whose pretraining batch
        holds OVERLAP_MIN_ACTIVATIONS hidden activations or more and the
        process may use two CPUs, and then makes one workspace of the
        batch's shape."""
        bundle, _ = overlap_cells("basic", "clamp", 0, None)  # 9 rows

        def made(least=27, cpus=2, cells=1, **kw):
            monkeypatch.setattr(engine, "OVERLAP_MIN_ACTIVATIONS", least)
            monkeypatch.setattr(engine, "_usable_cpus", lambda: cpus)
            overlap.workspaces.clear()
            engine.run_stack(bundle, [LbiConfig(seed=seed, iterations=1, **kw)
                                      for seed in range(cells)])
            return overlap.workspaces
        assert made(hidden=3) == [(9, 3)]
        assert made(hidden=3, least=28) == []
        assert made(hidden=4, batch_size=7) == [(7, 4)]
        assert made(hidden=3, batch_size=8) == []
        assert made(hidden=3, batch_size=20) == [(9, 3)]
        assert made(hidden=3, cpus=1) == []
        assert made(hidden=3, cells=2) == []
        assert made(hidden=0, least=0) == []

    @pytest.mark.parametrize("batch_size", [None, 4])
    @pytest.mark.parametrize("hidden", [0, 3])
    @pytest.mark.parametrize("ignore_mode", engine.IGNORE_MODES)
    @pytest.mark.parametrize("mode", engine.MODES)
    def test_runs_keep_their_bits(self, overlap, mode, ignore_mode, hidden,
                                  batch_size):
        bundle, cfgs = overlap_cells(mode, ignore_mode, hidden, batch_size)
        want = serial(lambda: [solo_outcome(bundle, c) for c in cfgs])
        assert [solo_outcome(bundle, c) for c in cfgs] == want
        # Linear models have no hidden arrays and never overlap.
        assert len(overlap.workspaces) == (3 if hidden else 0)
        assert overlap.submits == (12 if hidden else 0)

    def test_an_overlapping_run_makes_one_workspace(self, overlap):
        bundle, cfgs = overlap_cells("extended", "sigmoid", 3, 4)
        engine.run(bundle, cfgs[0])
        assert overlap.workspaces == [(4, 3)]
        assert overlap.submits == cfgs[0].iterations

    def test_stacks_never_make_a_workspace(self, overlap):
        """Not even where each of their cells alone would overlap."""
        bundle, cfgs = overlap_cells("extended", "clamp", 3, None)
        experiments.run_matrix(bundle, experiments.ABLATION_IDS[:2], [0, 1],
                               cfgs[0])
        experiments.sweep("lambda", [0.0, 0.3, 1.0], bundle, [0], cfgs[0])
        assert overlap.workspaces == []
        assert overlap.submits == 0

    def test_failing_cells_keep_their_errors(self, overlap):
        """Each cell of a failing stack, run alone, fails at the iteration
        and with the message of its serial run, and numpy's error state
        reaches the worker."""
        bundle, cfgs, states, _ = failing_stack(hidden=3)

        def outcomes():
            return [solo_outcome(bundle, cfg, reference.copy_state(state))
                    for cfg, state in zip(cfgs, states)]
        with np.errstate(over="ignore", invalid="ignore"):
            want = serial(outcomes)
            got = outcomes()
        assert got == want
        assert len(overlap.workspaces) == len(cfgs)
        assert sum(g[0] == "error" for g in got) >= 3

    def test_iterate_returns_no_buffer(self):
        """``_iterate`` with a workspace gives the serial state, trace and
        hypergradients, bit for bit, none of them in a buffer."""
        bundle, (cfg, *_) = overlap_cells("extended", "sigmoid", 3, None)
        state = engine.init_state(bundle, cfg)
        cells = engine._Cells.of([cfg])
        rates = cfg.rates_at(0)
        want = engine._iterate(state, bundle, cfg, cells, rates)
        workspace = engine._Workspace(bundle.pretrain.n, cfg.hidden)
        try:
            got = engine._iterate(state, bundle, cfg, cells, rates,
                                  workspace)
        finally:
            workspace.close()
        arrays = [*engine._blocks(got[0]), *got[1], *got[3]]
        assert all(same_bits(g, w) for g, w in zip(
            arrays, [*engine._blocks(want[0]), *want[1], *want[3]]))
        assert got[2] == want[2] == {}
        buffers = {id(buf): buf for buf in (*workspace.pre, *workspace.src)}
        assert len(buffers) == 5
        assert not any(np.shares_memory(a, buf) for a in arrays
                       for buf in buffers.values())

    def test_worker_error_reaches_the_caller(self, overlap, monkeypatch):
        """An error of the pretraining step on the worker thread reaches
        the caller as the error the serial run raises."""
        bundle, cfgs = overlap_cells("basic", "clamp", 3, None)

        def fails(params, fwd, *args):
            raise ValueError(f"stage 1 failed on {fwd.n} rows")
        monkeypatch.setattr(engine, "_pretrain_update", fails)
        with pytest.raises(ValueError) as want:
            serial(engine.run, bundle, cfgs[0])
        with pytest.raises(ValueError) as got:
            engine.run(bundle, cfgs[0])
        assert str(got.value) == str(want.value) == "stage 1 failed on 9 rows"
        assert overlap.submits == 1

    def test_oracle_forwards_keep_their_hidden_arrays(self, overlap):
        """The oracle shares its forwards among probes; none of them gets
        buffers, so no T is spent."""
        inst = gradcheck.make_check_instance(5, hidden=3)
        lookahead = gradcheck._Lookahead(inst.state, inst.arrays, inst.cfg)
        report = gradcheck.verify_hypergrads(inst.state, inst.arrays,
                                             inst.cfg)
        lookahead.central_differences("pretrain", range(3), 1e-4)
        lookahead.central_differences("finetune", range(3), 1e-4)
        assert report.passed()
        pre = inst.arrays.pretrain
        for fwd, params in ((lookahead.front.pre_fwd,
                             inst.state.pretrain_model),
                            (lookahead.front.source_fwd,
                             inst.state.finetune_model)):
            assert fwd.buffers is None
            fresh = model._softmax_residual(params, pre.X, pre.y)
            assert same_bits(fwd.T, fresh.T)
        assert overlap.workspaces == []
