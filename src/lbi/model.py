"""Classifier kernel: parameters, losses, and analytic gradients.

The optimization engine treats the model as two flat float64 blocks, an
encoder block and a head block, because the ignoring-weight hypergradients
are inner products between gradient blocks and the proximity term acts on
the encoder block only.  Two architectures share this interface:

* hidden == 0: logits = E x + b.  The weight matrix E (classes x dim,
  row-major) is the encoder block and the bias b is the head block.  This
  split keeps both blocks nonempty and the loss is convex in each block,
  which the trivial-case tests rely on.
* hidden == h > 0: a one-hidden-layer tanh network.  The encoder block is
  [W1 (h x dim, row-major), b1 (h)] and the head block is
  [U (classes x h, row-major), b2 (classes)].

The loss is softmax cross-entropy computed through logsumexp.  Gradients are
exact analytic expressions (softmax minus one-hot, backpropagated through
tanh where applicable), not autodiff, so the finite-difference checks in the
test suite exercise real formulas.

Batch operations take arrays: float64 features X with one row per example
and int64 labels y in 0..classes-1.  The kernels trust them: a bundle is
checked once, by ``DatasetBundle.validate``, where it enters the engine
(``engine.run_stack``, ``experiments.run_cell``, the FD oracle), and its
rows reach every forward unchecked.  Only the public ``logits`` and
``predict`` check their features.  Weighted sums are plain sums, not means,
so gradients are additive across examples: example i's gradient is built
from row i of the softmax residual G = softmax(z) - onehot(y) (and, for the
MLP, of the hidden residual dA = (G U) * (1 - T^2), T the hidden
activations).

Every loss and gradient comes from one ``Forward`` record (z, G, T, dA) made
by ``_softmax_residual``, so a caller that needs the loss, the weighted
gradient and per-example gradient products of one model on one batch pays
for one forward pass.  The hypergradients need only inner products
<g_i, v> between each example's gradient and a fixed vector v, and those
are contracted straight from the record without forming g_i
(``encoder_dots``, ``head_dots``):

    linear   encoder  rowsum(G * (X E_v^T))       head  G b_v
    MLP      encoder  rowsum(dA * (X W_v^T + b1_v))
             head     rowsum(G * (T U_v^T + b2_v))

The tests check the contractions against the n x P per-example gradient
rows, materialized by a reference in ``tests/reference.py``.

Stacks.  The kernels also run K models at once: blocks of shape (K, P)
instead of (P,), features shared (n, dim) or per model (K, n, dim), and
every result gains the same leading K axis.  Each model of a stack gets the
bits it would get alone, because every reduction adds in the same order:

* products go through ``np.matmul`` (per-slice BLAS calls identical to the
  2-D ones) and row dots through ``einsum`` over matching slices; other
  einsum contractions and matrix-vector products reorder sums and are not
  used on stacks;
* row maxima and, below 8 classes, row sums reduce a (classes, ..., n)
  copy elementwise, which adds each row's entries left to right as the
  per-row reduce does for short rows (at 8 or more classes the per-row
  reduce switches to a blocked order, so those sums stay per row);
* sums over examples reduce an example-major copy elementwise, the order
  the 2-D column sum uses.

Layout rule.  A stack of two or more linear models on shared 2-D features,
with fewer than 8 classes and fewer than 8 input dims, runs class-first:
its forward holds z, exp(z - m) and G as one contiguous (classes, n, K)
buffer, and its projections have the same layout.  Numpy's elementwise ops
then run over rows of n K entries instead of calling their inner loop once
per 2-long row, and every product on X is one GEMM per class,
X @ E[:, j, :].T, instead of K small ones.  Each form keeps the bits:

* the max, exp, class sum, divide, label scatter (a one-hot subtraction,
  as x - 0.0 is x) and losses are elementwise, and the class sum and the
  sums over examples (``np.add.reduce`` over axis 0 and 1) still add left
  to right, class by class and example by example;
* the per-class GEMM gives each logit dot the bits of the per-model one
  when the dot has fewer than 8 terms; at 8 or more input dims some shapes
  sum in another order (every dim of 8-40 measured), so those stacks stay
  example-major;
* at 2 classes the encoder row dot is G[0] P[0] + G[1] P[1], plus 0.0 as
  einsum's sum starts from it.

Three forms keep the example-major operands, through one contiguous
copy (``_examples_first``), because they measured not bit-identical:

* einsum row dots at 3 or more classes (100/100 mismatches at 3-8 classes
  against the elementwise sum);
* ``head_dots``' BLAS ``matmul(G, b_v)`` against any elementwise form
  (100/100);
* the weighted gradient's products over examples, dE = WG^T X: the
  per-class GEMM matches the per-model one only while both use OpenBLAS's
  small-matrix kernel, which ends at 10^6 multiply-adds (a dim-5 stack of
  45 differs from 4,445 examples on).

One model (K = 1), per-model features (``batch_size``), MLP hidden layers
and 8 or more classes keep the example-major paths above; a one-model
stack through the class-first GEMMs would take BLAS's matrix-vector path.

``tests/test_stacked.py`` pins these identities on the installed numpy and
BLAS, so an upgrade that breaks one fails loudly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class Arch:
    """Architecture key: input dim, hidden width (0 = linear), class count."""

    dim: int
    hidden: int
    classes: int

    def __post_init__(self):
        if self.dim < 1 or self.classes < 2 or self.hidden < 0:
            raise ValueError(
                f"invalid architecture dim={self.dim} hidden={self.hidden} "
                f"classes={self.classes}"
            )

    @property
    def encoder_size(self) -> int:
        if self.hidden == 0:
            return self.classes * self.dim
        return self.hidden * self.dim + self.hidden

    @property
    def head_size(self) -> int:
        if self.hidden == 0:
            return self.classes
        return self.classes * self.hidden + self.classes


@dataclass
class ModelParams:
    """Flat float64 encoder and head blocks for one architecture."""

    arch: Arch
    encoder: np.ndarray
    head: np.ndarray

    def __post_init__(self):
        self.encoder = np.asarray(self.encoder, dtype=np.float64)
        self.head = np.asarray(self.head, dtype=np.float64)
        if self.encoder.shape != (self.arch.encoder_size,):
            raise ValueError(
                f"encoder block has shape {self.encoder.shape}, "
                f"expected ({self.arch.encoder_size},)"
            )
        if self.head.shape != (self.arch.head_size,):
            raise ValueError(
                f"head block has shape {self.head.shape}, "
                f"expected ({self.arch.head_size},)"
            )

    @classmethod
    def _of(cls, arch: Arch, encoder: np.ndarray,
            head: np.ndarray) -> "ModelParams":
        """Wrap float64 blocks already known to have ``arch``'s sizes, without
        checking them again (the engine's own results)."""
        params = object.__new__(cls)
        params.arch, params.encoder, params.head = arch, encoder, head
        return params


@dataclass
class GradBlock:
    """Gradient with the same two-block layout as ModelParams."""

    d_encoder: np.ndarray
    d_head: np.ndarray


def init_params(arch: Arch, rng: np.random.Generator) -> ModelParams:
    """Draw every entry i.i.d. uniform on [-0.1, 0.1].

    Draw order is fixed (encoder block first, then head block) so a seeded
    generator reproduces parameters exactly.
    """
    enc = rng.uniform(-0.1, 0.1, arch.encoder_size)
    head = rng.uniform(-0.1, 0.1, arch.head_size)
    return ModelParams(arch, enc, head)


def _linear_views(params: ModelParams):
    a = params.arch
    lead = params.encoder.shape[:-1]
    E = params.encoder.reshape(lead + (a.classes, a.dim))
    b = params.head
    return E, b


def _mlp_views(params: ModelParams):
    a = params.arch
    lead = params.encoder.shape[:-1]
    W1 = params.encoder[..., : a.hidden * a.dim].reshape(lead + (a.hidden, a.dim))
    b1 = params.encoder[..., a.hidden * a.dim :]
    U = params.head[..., : a.classes * a.hidden].reshape(lead + (a.classes, a.hidden))
    b2 = params.head[..., a.classes * a.hidden :]
    return W1, b1, U, b2


def _check_features(params: ModelParams, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim not in (2, 3) or X.shape[-1] != params.arch.dim:
        raise ValueError(
            f"feature matrix has shape {X.shape}, expected (n, {params.arch.dim})"
        )
    return X


def _t(A: np.ndarray) -> np.ndarray:
    """The transpose of each matrix of a stack (of a lone matrix: A.T), as a
    view.  A contiguous copy would make some products faster, but BLAS then
    multiplies untransposed operands, which sums in another order at some
    shapes."""
    return A.swapaxes(-1, -2)


def _classes_first(A: np.ndarray) -> np.ndarray:
    """A contiguous copy of A with its last (class) axis moved first."""
    return (A.T if A.ndim == 2 else A.transpose(2, 0, 1)).copy()


def _sum_examples(A: np.ndarray) -> np.ndarray:
    """Column sums over the example axis of (n, c) or (K, n, c)."""
    if A.ndim == 2:
        return np.add.reduce(A, axis=0)
    # Over an example-major copy the reduction runs elementwise, example by
    # example, as the 2-D one does.  The copy puts the longer of the cell
    # and column axes innermost, where numpy copies fastest (a stack of one
    # needs no copy).
    if A.shape[0] > A.shape[2]:
        return np.add.reduce(A.transpose(1, 2, 0).copy(), axis=0).T
    return np.add.reduce(np.ascontiguousarray(A.swapaxes(0, 1)), axis=0)


def _sum_classes(A: np.ndarray) -> np.ndarray:
    """Row sums over the last (class) axis, keeping it as length 1."""
    if A.shape[-1] >= 8:
        return np.add.reduce(A, axis=-1, keepdims=True)
    return np.add.reduce(_classes_first(A), axis=0)[..., None]


def _examples_first(A: np.ndarray) -> np.ndarray:
    """The (K, n, classes) example-major copy of a class-first stack."""
    out = np.empty(A.shape[::-1])
    # One 2-D transpose per class plane; a 3-D transposing copy is several
    # times slower.
    for j in range(A.shape[0]):
        out[..., j] = A[j].T
    return out


def _runs_classes_first(arch: Arch, encoder: np.ndarray,
                        X: np.ndarray) -> bool:
    """Whether a forward of these linear encoder blocks on X, and its
    projections, hold their arrays class-first (the "Stacks" rule above)."""
    return (arch.hidden == 0 and X.ndim == 2 and encoder.ndim == 2
            and encoder.shape[0] > 1 and arch.classes < 8 and arch.dim < 8)


def _class_products(X: np.ndarray, W: np.ndarray) -> np.ndarray:
    """X @ W[k].T for every model k of a (K, classes, dim) stack on shared
    features, class-first as (classes, n, K): one GEMM per class."""
    out = np.empty((W.shape[1], X.shape[0], W.shape[0]))
    for j in range(W.shape[1]):
        np.matmul(X, W[:, j, :].T, out=out[j])
    return out


# The n x hidden arrays are large enough that each fresh one costs page
# faults, so the kernels below update in place where the values come out the
# same as the plain expression written beside them.

def _affine(X: np.ndarray, W: np.ndarray, b: np.ndarray,
            out: np.ndarray | None = None) -> np.ndarray:
    """X @ W.T + b, per model of a stack, into ``out`` when given."""
    out = np.matmul(X, _t(W), out=out)
    out += b[..., None, :]
    return out


def _scores(params: ModelParams, X: np.ndarray,
            hidden_out: np.ndarray | None = None):
    """(logits, hidden activations or None) for checked features X; the
    activations go into ``hidden_out`` when given."""
    if params.arch.hidden == 0:
        E, b = _linear_views(params)
        return _affine(X, E, b), None
    W1, b1, U, b2 = _mlp_views(params)
    T = _affine(X, W1, b1, hidden_out)
    np.tanh(T, out=T)
    return _affine(T, U, b2), T


def logits(params: ModelParams, X: np.ndarray) -> np.ndarray:
    """Raw class scores, one row per example."""
    return _scores(params, _check_features(params, X))[0]


def predict(params: ModelParams, X: np.ndarray) -> np.ndarray:
    """Predicted labels (argmax of logits, ties to the lowest index)."""
    return np.argmax(logits(params, X), axis=-1)


# Read-only constants per batch size or class count, so the per-call kernels
# do not build them again; a run uses a handful of distinct sizes.
@lru_cache(maxsize=32)
def _row_index(n: int) -> np.ndarray:
    rows = np.arange(n)
    rows.flags.writeable = False
    return rows


@lru_cache(maxsize=32)
def _label_base(lead: tuple, classes: int) -> np.ndarray:
    """Flat position of each row's class-0 entry in a (*lead, classes)
    array."""
    base = (np.arange(math.prod(lead)) * classes).reshape(lead)
    base.flags.writeable = False
    return base


@lru_cache(maxsize=32)
def _unit_weights(n: int) -> np.ndarray:
    ones = np.ones(n)
    ones.flags.writeable = False
    return ones


class Forward:
    """One model's (or a stack's) forward pass over one labelled batch.

    ``T`` holds the hidden activations (None for the linear model); ``m`` is
    each row's max logit, ``ez`` = exp(z - m) and ``s`` its row sums; ``n``
    counts the examples of one model's batch.  The residual ``G``, the
    ``losses`` and ``dA`` are derived on first use, so a caller that needs
    only losses or only a gradient pays for nothing else; ``G`` takes over
    the ``ez`` buffer.  Consumers read the arrays and never write them, with
    one exception: ``buffers`` (dA, scratch), when given, are n x hidden
    arrays that ``dA`` and the weighted residual of ``weighted_grad`` fill,
    the slope 1 - T^2 and the weighted residual going into ``scratch``.  A
    scratch that is T's own buffer spends T: once dA is formed T is None, so
    such a forward serves one weighted gradient, its losses and its encoder
    dots, not ``head_dots`` (the engine's pretraining forward, whose T
    nothing reads after the head gradient).

    With ``classes_first`` (the "Stacks" rule of this module), ``z``,
    ``ez`` and ``G`` are (classes, n, K) and ``m`` and ``s`` are (n, K);
    otherwise the class axis is last.  ``losses`` is (K, n) either way.
    """

    __slots__ = ("params", "X", "y", "n", "classes_first", "z", "T", "m",
                 "ez", "s", "buffers", "_label_index", "_onehot", "_G",
                 "_losses", "_dA")

    def __init__(self, params: ModelParams, X: np.ndarray, y: np.ndarray,
                 z: np.ndarray, T: np.ndarray | None, m: np.ndarray,
                 ez: np.ndarray, s: np.ndarray, classes_first: bool = False,
                 buffers: tuple | None = None):
        self.params, self.X, self.y, self.n = params, X, y, X.shape[-2]
        self.classes_first = classes_first
        self.z, self.T, self.m, self.ez, self.s = z, T, m, ez, s
        self.buffers = buffers
        self._label_index = self._onehot = None
        self._G = self._losses = self._dA = None

    @property
    def label_index(self) -> np.ndarray:
        """Flat position of each example's label entry in the logits (one
        per row of every model)."""
        if self._label_index is None:
            lead, classes = self.z.shape[:-1], self.z.shape[-1]
            self._label_index = (_label_base(lead, classes)
                                 + self.y).reshape(-1)
        return self._label_index

    @property
    def onehot(self) -> np.ndarray:
        """A class-first forward's labels one-hot, as (classes, n, 1)
        bools."""
        if self._onehot is None:
            classes = self.z.shape[0]
            self._onehot = (self.y == _row_index(classes)[:, None])[..., None]
        return self._onehot

    @property
    def G(self) -> np.ndarray:
        """Softmax residual softmax(z) - onehot(y)."""
        if self._G is None:
            G = np.divide(self.ez, self.s, out=self.ez)
            self.ez = None
            if self.classes_first:
                # x - 0.0 is x, so this subtracts 1 at the labels only.
                G -= self.onehot.astype(np.float64)
            else:
                G.reshape(-1)[self.label_index] -= 1.0
            self._G = G
        return self._G

    @property
    def losses(self) -> np.ndarray:
        """Per-example cross-entropy, through logsumexp for stability."""
        if self._losses is None:
            if self.classes_first:
                label_z = self.z[0].copy()
                for j in range(1, self.z.shape[0]):
                    np.copyto(label_z, self.z[j], where=self.onehot[j])
                lse = self.m + np.log(self.s)
                lse -= label_z
                self._losses = np.ascontiguousarray(lse.T)
            else:
                lse = (self.m + np.log(self.s))[..., 0]
                self._losses = lse - self.z.take(self.label_index).reshape(
                    lse.shape)
        return self._losses

    @property
    def dA(self) -> np.ndarray:
        """Residual at the hidden pre-activations: (G U) * (1 - T^2)."""
        if self._dA is None:
            _, _, U, _ = _mlp_views(self.params)
            dA_out, scratch = self.buffers or (None, None)
            dA = np.matmul(self.G, U, out=dA_out)
            slope = np.multiply(self.T, self.T, out=scratch)
            if scratch is self.T:
                self.T = None
            np.subtract(1.0, slope, out=slope)
            dA *= slope
            self._dA = dA
        return self._dA


def _softmax_residual(params: ModelParams, X: np.ndarray, y: np.ndarray,
                      buffers: tuple | None = None) -> Forward:
    """The forward pass behind every loss and gradient of a labelled batch:
    rows of a validated bundle, float64 features X ((n, dim), or (K, n,
    dim) per model of a stack) and int64 labels y of X's leading shape in
    0..classes-1, checked nowhere here (see the module docstring).
    ``buffers``, for an MLP, are three n x hidden arrays (T, dA, scratch)
    that its hidden arrays fill (see ``Forward``); scratch may be T."""
    if _runs_classes_first(params.arch, params.encoder, X):
        E, b = _linear_views(params)
        z = _class_products(X, E)
        z += b.T[:, None, :]
        m = np.maximum.reduce(z, axis=0)
        ez = z - m
        np.exp(ez, out=ez)
        return Forward(params, X, y, z, None, m, ez,
                       np.add.reduce(ez, axis=0), True)
    z, T = _scores(params, X, buffers and buffers[0])
    # Row maxima from a (classes, ..., n) copy, whose reduction runs
    # elementwise down the rows; reducing the short axis of z costs a loop
    # call per example.  A maximum does not depend on the order it is taken
    # in.
    m = np.maximum.reduce(_classes_first(z), axis=0)[..., None]
    ez = z - m
    np.exp(ez, out=ez)
    return Forward(params, X, y, z, T, m, ez, _sum_classes(ez), False,
                   buffers and buffers[1:])


# The kernels below trust their arguments: weights are float64 with one
# entry per example of the forward (the engine's own score vectors), and
# None stands for unit weights, which skip the multiply because 1.0 * x ==
# x.  Sums call np.add.reduce, the ufunc behind ndarray.sum, without the
# Python layer in between.

def weighted_losses(fwd: Forward,
                    weights: np.ndarray | None = None) -> np.ndarray:
    """Weighted sum (not mean) of the batch's per-example cross-entropies,
    one per model (a 0-d array for a lone model)."""
    if weights is None:
        # A dot with ones, not losses.sum(): the two sum in different orders.
        weights = _unit_weights(fwd.n)
    return _vecdot(weights, fwd.losses)


def _vecdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for two vectors; for stacks of them, one such dot per row, each
    summed in the order of the vectors' own dot."""
    if a.ndim == 1 and b.ndim == 1:
        return a @ b
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def weighted_grad(fwd: Forward, weights: np.ndarray | None = None) -> GradBlock:
    """Gradient of the weighted loss sum with respect to both blocks.  A
    (K, n) stack of weights on one model's forward gives one gradient per
    row of weights."""
    X, G = fwd.X, fwd.G
    if fwd.classes_first:
        WG = G if weights is None else G * weights.T
        # Sums over examples run across the (n, K) planes, example by
        # example; the products over examples stay one GEMM per model.
        dE = np.matmul(_t(_examples_first(WG)), X)
        return GradBlock(dE.reshape(dE.shape[0], -1),
                         np.add.reduce(WG, axis=1).T)
    WG = G if weights is None else weights[..., None] * G
    lead = WG.shape[:-2]
    if fwd.params.arch.hidden == 0:
        return GradBlock(np.matmul(_t(WG), X).reshape(lead + (-1,)),
                         _sum_examples(WG))
    dU = np.matmul(_t(WG), fwd.T)
    db2 = _sum_examples(WG)
    WdA = fwd.dA
    if weights is not None:
        WdA = np.multiply(weights[..., None], WdA,
                          out=fwd.buffers and fwd.buffers[1])
    dW1 = np.matmul(_t(WdA), X)
    db1 = _sum_examples(WdA)
    return GradBlock(
        np.concatenate([dW1.reshape(lead + (-1,)), db1], axis=-1),
        np.concatenate([dU.reshape(lead + (-1,)), db2], axis=-1),
    )


def _rowdot(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    return np.einsum("...ij,...ij->...i", A, B)


def _class_rowdot(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``_rowdot`` of two class-first stacks, as (K, n)."""
    if A.shape[0] != 2:
        return _rowdot(_examples_first(A), _examples_first(B))
    dots = A[0] * B[0]
    dots += A[1] * B[1]
    # einsum's sum starts from +0.0, which turns a -0.0 total into +0.0.
    return np.add(dots.T, 0.0, order="C")


def encoder_projection(arch: Arch, X: np.ndarray, v: GradBlock,
                       out: np.ndarray | None = None) -> np.ndarray:
    """X E_v^T (linear) or X W_v^T + b1_v (MLP): the batch projected on v's
    encoder block.  It depends on the batch and v only, so forwards of
    different models on one batch can share it (``encoder_dots``).  An
    MLP's projection goes into ``out`` when given."""
    V = ModelParams._of(arch, v.d_encoder, v.d_head)
    if arch.hidden == 0:
        E_v, _ = _linear_views(V)
        if _runs_classes_first(arch, v.d_encoder, X):
            return _class_products(X, E_v)
        return np.matmul(X, _t(E_v))
    W_v, b1_v, _, _ = _mlp_views(V)
    return _affine(X, W_v, b1_v, out)


def encoder_dots(fwd: Forward, v: GradBlock,
                 projection: np.ndarray | None = None) -> np.ndarray:
    """<g_i|encoder, v.d_encoder> for every example i of the batch.

    Equals the per-example gradient rows times v.d_encoder, contracted from
    the residuals in O(n (classes + hidden) dim) without forming g_i.
    ``projection``, when given, is ``encoder_projection`` of this batch and v.
    """
    if projection is None:
        projection = encoder_projection(fwd.params.arch, fwd.X, v)
    if fwd.classes_first:
        return _class_rowdot(fwd.G, projection)
    if fwd.params.arch.hidden == 0:
        return _rowdot(fwd.G, projection)
    return _rowdot(fwd.dA, projection)


def head_dots(fwd: Forward, v: GradBlock) -> np.ndarray:
    """<g_i|head, v.d_head> for every example i of the batch."""
    V = ModelParams._of(fwd.params.arch, v.d_encoder, v.d_head)
    if V.arch.hidden == 0:
        _, b_v = _linear_views(V)
        G = _examples_first(fwd.G) if fwd.classes_first else fwd.G
        return np.matmul(G, b_v[..., None])[..., 0]
    _, _, U_v, b2_v = _mlp_views(V)
    return _rowdot(fwd.G, _affine(fwd.T, U_v, b2_v))


def proximity_grad(w_encoder: np.ndarray, v_encoder: np.ndarray, lam: float) -> np.ndarray:
    """Gradient of lam * ||W - V||^2 with respect to W: 2 lam (W - V)."""
    return 2.0 * lam * (w_encoder - v_encoder)

