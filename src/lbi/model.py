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

Batch operations accept plain arrays: features X with one row per example
and integer labels y.  Weighted sums are plain sums, not means, so gradients
are additive across examples: example i's gradient is built from row i of
the softmax residual G = softmax(z) - onehot(y) (and, for the MLP, of the
hidden residual dA = (G U) * (1 - T^2), T the hidden activations).

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

``per_example_grad_arrays`` materializes the n x P rows explicitly; it is
the reference the contractions are tested against.
"""

from __future__ import annotations

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

    def copy(self) -> "ModelParams":
        return ModelParams._of(self.arch, self.encoder.copy(), self.head.copy())


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
    E = params.encoder.reshape(a.classes, a.dim)
    b = params.head
    return E, b


def _mlp_views(params: ModelParams):
    a = params.arch
    W1 = params.encoder[: a.hidden * a.dim].reshape(a.hidden, a.dim)
    b1 = params.encoder[a.hidden * a.dim :]
    U = params.head[: a.classes * a.hidden].reshape(a.classes, a.hidden)
    b2 = params.head[a.classes * a.hidden :]
    return W1, b1, U, b2


def _check_features(params: ModelParams, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != params.arch.dim:
        raise ValueError(
            f"feature matrix has shape {X.shape}, expected (n, {params.arch.dim})"
        )
    return X


# The n x hidden arrays are large enough that each fresh one costs page
# faults, so the kernels below update in place where the values come out the
# same as the plain expression written beside them.

def _affine(X: np.ndarray, W: np.ndarray, b: np.ndarray) -> np.ndarray:
    """X @ W.T + b."""
    out = X @ W.T
    out += b
    return out


def _scores(params: ModelParams, X: np.ndarray):
    """(logits, hidden activations or None) for checked features X."""
    if params.arch.hidden == 0:
        E, b = _linear_views(params)
        return _affine(X, E, b), None
    W1, b1, U, b2 = _mlp_views(params)
    T = _affine(X, W1, b1)
    np.tanh(T, out=T)
    return _affine(T, U, b2), T


def logits(params: ModelParams, X: np.ndarray) -> np.ndarray:
    """Raw class scores, one row per example."""
    return _scores(params, _check_features(params, X))[0]


def predict(params: ModelParams, X: np.ndarray) -> np.ndarray:
    """Predicted labels (argmax of logits, ties to the lowest index)."""
    return np.argmax(logits(params, X), axis=1)


# Read-only constants per batch size, so the per-call kernels do not build
# them again; a run uses a handful of distinct sizes.
@lru_cache(maxsize=32)
def _row_index(n: int) -> np.ndarray:
    rows = np.arange(n)
    rows.flags.writeable = False
    return rows


@lru_cache(maxsize=32)
def _unit_weights(n: int) -> np.ndarray:
    ones = np.ones(n)
    ones.flags.writeable = False
    return ones


class Forward:
    """One model's forward pass over one labelled batch.

    ``T`` holds the hidden activations (None for the linear model); ``m`` is
    each row's max logit, ``ez`` = exp(z - m) and ``s`` its row sums.  The
    residual ``G``, the ``losses`` and ``dA`` are derived on first use, so a
    caller that needs only losses or only a gradient pays for nothing else;
    ``G`` takes over the ``ez`` buffer.  Consumers read the arrays and never
    write them.
    """

    __slots__ = ("params", "X", "y", "n", "z", "T", "m", "ez", "s",
                 "_label_index", "_G", "_losses", "_dA")

    def __init__(self, params: ModelParams, X: np.ndarray, y: np.ndarray,
                 z: np.ndarray, T: np.ndarray | None, m: np.ndarray,
                 ez: np.ndarray, s: np.ndarray):
        self.params, self.X, self.y, self.n = params, X, y, X.shape[0]
        self.z, self.T, self.m, self.ez, self.s = z, T, m, ez, s
        self._label_index = self._G = self._losses = self._dA = None

    @property
    def label_index(self) -> np.ndarray:
        """Flat position of each example's label entry in an (n, classes)
        array; a label outside 0..classes-1 raises ValueError."""
        if self._label_index is None:
            try:
                self._label_index = np.ravel_multi_index(
                    (_row_index(self.n), self.y), self.z.shape)
            except ValueError:
                raise ValueError(
                    f"labels must lie in 0..{self.z.shape[1] - 1}") from None
        return self._label_index

    @property
    def G(self) -> np.ndarray:
        """Softmax residual softmax(z) - onehot(y)."""
        if self._G is None:
            G = np.divide(self.ez, self.s, out=self.ez)
            self.ez = None
            G.reshape(-1)[self.label_index] -= 1.0
            self._G = G
        return self._G

    @property
    def losses(self) -> np.ndarray:
        """Per-example cross-entropy, through logsumexp for stability."""
        if self._losses is None:
            lse = (self.m + np.log(self.s))[:, 0]
            self._losses = lse - self.z.take(self.label_index)
        return self._losses

    @property
    def dA(self) -> np.ndarray:
        """Residual at the hidden pre-activations: (G U) * (1 - T^2)."""
        if self._dA is None:
            _, _, U, _ = _mlp_views(self.params)
            dA = self.G @ U
            slope = self.T * self.T
            np.subtract(1.0, slope, out=slope)
            dA *= slope
            self._dA = dA
        return self._dA


def _softmax_residual(params: ModelParams, X: np.ndarray, y: np.ndarray) -> Forward:
    """The forward pass behind every loss and gradient of a labelled batch."""
    X = _check_features(params, X)
    y = np.asarray(y)
    if y.shape != (X.shape[0],):
        raise ValueError(f"labels have shape {y.shape}, expected ({X.shape[0]},)")
    z, T = _scores(params, X)
    # Row maxima from a (classes, n) copy, whose reduction runs elementwise
    # down the rows; reducing the short axis of z costs a loop call per
    # example.  A maximum does not depend on the order it is taken in.
    m = np.maximum.reduce(z.T.copy(), axis=0)[:, None]
    ez = z - m
    np.exp(ez, out=ez)
    return Forward(params, X, y, z, T, m, ez,
                   np.add.reduce(ez, axis=1, keepdims=True))


def _check_weights(weights, n: int) -> np.ndarray:
    """Per-example weights as a float64 vector of length n, or ValueError."""
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (n,):
        raise ValueError(f"weights have shape {weights.shape}, expected ({n},)")
    return weights


# The kernels below trust their arguments: weights come checked from the
# public functions (_check_weights) and None stands for unit weights, which
# skip the multiply because 1.0 * x == x.  Sums call np.add.reduce, the
# ufunc behind ndarray.sum, without the Python layer in between.

def weighted_loss(fwd: Forward, weights: np.ndarray | None = None) -> float:
    """Weighted sum (not mean) of the batch's per-example cross-entropies."""
    if weights is None:
        # A dot with ones, not losses.sum(): the two sum in different orders.
        weights = _unit_weights(fwd.n)
    return float(weights @ fwd.losses)


def weighted_grad(fwd: Forward, weights: np.ndarray | None = None) -> GradBlock:
    """Gradient of the weighted loss sum with respect to both blocks."""
    X, G = fwd.X, fwd.G
    WG = G if weights is None else weights[:, None] * G
    if fwd.params.arch.hidden == 0:
        return GradBlock((WG.T @ X).ravel(), np.add.reduce(WG, axis=0))
    dU = WG.T @ fwd.T
    db2 = np.add.reduce(WG, axis=0)
    WdA = fwd.dA if weights is None else weights[:, None] * fwd.dA
    dW1 = WdA.T @ X
    db1 = np.add.reduce(WdA, axis=0)
    return GradBlock(
        np.concatenate([dW1.ravel(), db1]),
        np.concatenate([dU.ravel(), db2]),
    )


def _rowdot(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", A, B)


def encoder_projection(arch: Arch, X: np.ndarray, v: GradBlock) -> np.ndarray:
    """X E_v^T (linear) or X W_v^T + b1_v (MLP): the batch projected on v's
    encoder block.  It depends on the batch and v only, so forwards of
    different models on one batch can share it (``encoder_dots``)."""
    V = ModelParams._of(arch, v.d_encoder, v.d_head)
    if arch.hidden == 0:
        E_v, _ = _linear_views(V)
        return X @ E_v.T
    W_v, b1_v, _, _ = _mlp_views(V)
    return _affine(X, W_v, b1_v)


def encoder_dots(fwd: Forward, v: GradBlock,
                 projection: np.ndarray | None = None) -> np.ndarray:
    """<g_i|encoder, v.d_encoder> for every example i of the batch.

    Equals per_example_grad_arrays(...)[0] @ v.d_encoder, contracted from
    the residuals in O(n (classes + hidden) dim) without forming g_i.
    ``projection``, when given, is ``encoder_projection`` of this batch and v.
    """
    if projection is None:
        projection = encoder_projection(fwd.params.arch, fwd.X, v)
    if fwd.params.arch.hidden == 0:
        return _rowdot(fwd.G, projection)
    return _rowdot(fwd.dA, projection)


def head_dots(fwd: Forward, v: GradBlock) -> np.ndarray:
    """<g_i|head, v.d_head> for every example i of the batch."""
    V = ModelParams._of(fwd.params.arch, v.d_encoder, v.d_head)
    if V.arch.hidden == 0:
        _, b_v = _linear_views(V)
        return fwd.G @ b_v
    _, _, U_v, b2_v = _mlp_views(V)
    return _rowdot(fwd.G, _affine(fwd.T, U_v, b2_v))


def batch_losses(params: ModelParams, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-example cross-entropy, computed through logsumexp for stability."""
    return _softmax_residual(params, X, y).losses


def weighted_loss_arrays(
    params: ModelParams, X: np.ndarray, y: np.ndarray, weights: np.ndarray
) -> float:
    """Weighted sum (not mean) of per-example cross-entropies."""
    fwd = _softmax_residual(params, X, y)
    return weighted_loss(fwd, _check_weights(weights, fwd.n))


def grad_arrays(
    params: ModelParams, X: np.ndarray, y: np.ndarray, weights: np.ndarray
) -> GradBlock:
    """Gradient of the weighted loss sum with respect to both blocks."""
    fwd = _softmax_residual(params, X, y)
    return weighted_grad(fwd, _check_weights(weights, fwd.n))


def per_example_grad_arrays(
    params: ModelParams, X: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Stacked unweighted per-example gradients.

    Returns (n x encoder_size, n x head_size).  Row i is the gradient of
    example i's loss alone; any weighted total gradient is a weighted sum of
    these rows.  The engine never builds this matrix (it contracts through
    ``encoder_dots`` and ``head_dots``); it is the tests' reference.
    """
    fwd = _softmax_residual(params, X, y)
    X, G, n = fwd.X, fwd.G, fwd.n
    a = params.arch
    if a.hidden == 0:
        Genc = (G[:, :, None] * X[:, None, :]).reshape(n, a.encoder_size)
        return Genc, G.copy()
    dA, T = fwd.dA, fwd.T
    Genc = np.concatenate(
        [(dA[:, :, None] * X[:, None, :]).reshape(n, a.hidden * a.dim), dA],
        axis=1,
    )
    Ghead = np.concatenate(
        [(G[:, :, None] * T[:, None, :]).reshape(n, a.classes * a.hidden), G],
        axis=1,
    )
    return Genc, Ghead


def proximity_grad(w_encoder: np.ndarray, v_encoder: np.ndarray, lam: float) -> np.ndarray:
    """Gradient of lam * ||W - V||^2 with respect to W: 2 lam (W - V)."""
    w_encoder = np.asarray(w_encoder, dtype=np.float64)
    v_encoder = np.asarray(v_encoder, dtype=np.float64)
    if w_encoder.shape != v_encoder.shape:
        raise ValueError(
            f"encoder blocks differ in shape: {w_encoder.shape} vs {v_encoder.shape}"
        )
    return 2.0 * lam * (w_encoder - v_encoder)

