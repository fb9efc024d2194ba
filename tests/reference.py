"""Reference routes the tests check the package against.

The package computes every loss and gradient from one ``Forward`` record
and contracts the hypergradients without forming per-example gradients.
The routes here spell the same quantities out the long way: a loss or a
gradient straight from parameters and a batch, the n x P matrix of
per-example gradient rows (the decomposition reference for the
contractions), the batch view of one minibatch iteration, and a bundle
without pretraining rows.  A CSV bundle is read the long way too: by the
csv module, int() and float().  ``copy_state`` gives a test a state it may
write without touching the original; the package never copies one.
"""

import csv
import json
import os
import sys
from dataclasses import replace

import numpy as np

from lbi import engine, model
from lbi.datasets import SPLITS, DatasetBundle, Split, sidecar_path
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


def copy_state(state: LbiState) -> LbiState:
    """A state that holds its own copy of each of ``state``'s arrays."""
    return engine._with_blocks(state,
                               [b.copy() for b in engine._blocks(state)])


def iterate(state: LbiState, bundle: DatasetBundle, cfg: engine.LbiConfig):
    """One iteration of one cell, as ``engine.run`` steps it: the next state
    and its trace row, or the NumericError of a failed finite check."""
    nxt, trace, failed, _ = engine._iterate(state, bundle, cfg,
                                            engine._Cells.of([cfg]),
                                            cfg.rates_at(state.iteration))
    if failed:
        raise failed[0]
    return nxt, engine.TraceRow(state.iteration, *map(float, trace))


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


def without_pretraining(bundle: DatasetBundle) -> DatasetBundle:
    """The bundle with an empty pretraining split (and no corruption
    flags)."""
    return replace(bundle, pretrain=Split(np.empty((0, bundle.dim)),
                                          np.empty(0, dtype=np.int64)),
                   corrupted=np.zeros(0, dtype=bool))


def read_csv(path: str) -> DatasetBundle:
    """A save_csv file read by the csv module, int() and float(), with the
    class count and corruption flags of its sidecar (else one past the
    largest label, and none)."""
    old = csv.field_size_limit(sys.maxsize)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            header, *rows = [row for row in csv.reader(fh) if row]
    finally:
        csv.field_size_limit(old)
    dim = len(header) - 2
    parts = {name: ([], []) for name in SPLITS}
    for name, label, *features in rows:
        parts[name][0].append([float(v) for v in features])
        parts[name][1].append(int(label))
    splits = [Split(np.array(X, dtype=np.float64).reshape(-1, dim),
                    np.array(y, dtype=np.int64)) for X, y in parts.values()]
    manifest = {}
    if os.path.exists(sidecar_path(path)):
        with open(sidecar_path(path)) as fh:
            manifest = json.load(fh)
    corrupted = np.zeros(splits[0].n, dtype=bool)
    corrupted[manifest.get("corrupted_pretrain_indices", [])] = True
    classes = manifest.get("classes",
                           max(int(s.y.max(initial=0)) for s in splits) + 1)
    return DatasetBundle(*splits, dim, classes, corrupted)
