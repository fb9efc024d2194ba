"""Reference routes the tests check the package against.

The package computes every loss and gradient from one ``Forward`` record
and contracts the hypergradients without forming per-example gradients.
The routes here spell the same quantities out the long way: a loss or a
gradient straight from parameters and a batch, the n x P matrix of
per-example gradient rows (the decomposition reference for the
contractions), and the batch view of one minibatch iteration.
"""

import numpy as np

from lbi import engine, model
from lbi.datasets import DatasetBundle, Split
from lbi.engine import IgnoreSet, LbiState


def loss(params, X, y, weights=None) -> float:
    """Weighted loss sum of a batch (unit weights for None)."""
    return float(model.weighted_losses(model._softmax_residual(params, X, y),
                                       weights))


def grad(params, X, y, weights=None) -> model.GradBlock:
    """Gradient of the weighted loss sum (unit weights for None)."""
    return model.weighted_grad(model._softmax_residual(params, X, y), weights)


def per_example_grad_arrays(params, X, y) -> tuple[np.ndarray, np.ndarray]:
    """Stacked unweighted per-example gradients.

    Returns (n x encoder_size, n x head_size).  Row i is the gradient of
    example i's loss alone; any weighted total gradient is a weighted sum of
    these rows.
    """
    fwd = model._softmax_residual(params, X, y)
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


def batch_view(state: LbiState, bundle: DatasetBundle, cfg: engine.LbiConfig):
    """The bundle and state that a minibatch iteration of ``state`` sees:
    (sub_state, sub_bundle, idx_pre), where the sub-bundle holds the
    iteration's batch of each split (all of a split without batch_size),
    the sub-state the batch's scores, and idx_pre is the pretraining batch
    (None for the whole split)."""
    idx = (None, None, None) if cfg.batch_size is None else (
        engine._draw_batches(cfg.seed, cfg.batch_size, state.iteration,
                             (bundle.pretrain.n, bundle.train.n, bundle.val.n)))
    take = [slice(None) if i is None else i for i in idx]
    sub = DatasetBundle(
        *(Split(split.X[k], split.y[k]) for split, k in
          zip((bundle.pretrain, bundle.train, bundle.val), take)),
        bundle.test, bundle.dim, bundle.classes, bundle.corrupted[take[0]])
    scores = [None if s is None else IgnoreSet(s.raw[take[0]], s.mode)
              for s in (state.ignore_pretrain, state.ignore_finetune)]
    sub_state = LbiState(state.pretrain_model, state.finetune_model, *scores,
                         state.iteration)
    return sub_state, sub, idx[0]
