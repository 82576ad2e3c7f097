"""Translational embedding pretraining for graph entities.

Margin-ranking loss on ||e_h + e_r - e_t|| with uniform negative
sampling; gradients are closed-form and checked against finite
differences in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .csr import CsrOperator
from .graph import KnowledgeGraph


@dataclass
class TranseConfig:
    dim: int = 50
    margin: float = 1.0
    negatives: int = 1
    epochs: int = 100
    learning_rate: float = 1e-3

    def validate(self) -> None:
        if self.dim < 1:
            raise ValueError(f"TranseConfig.dim must be >= 1, got {self.dim}")
        if self.epochs < 0:
            raise ValueError(f"TranseConfig.epochs must be >= 0, got {self.epochs}")
        if self.negatives < 1:
            raise ValueError(f"TranseConfig.negatives must be >= 1, got {self.negatives}")
        if not 0.0 <= self.learning_rate < math.inf:
            raise ValueError(f"TranseConfig.learning_rate must be finite and >= 0, "
                             f"got {self.learning_rate}")
        if not math.isfinite(self.margin):
            raise ValueError(f"TranseConfig.margin must be finite, got {self.margin}")


def transe_loss_and_grads(entities: np.ndarray, relations: np.ndarray,
                          pos: np.ndarray, neg: np.ndarray, margin: float):
    """Mean margin-ranking loss over triple pairs, with gradients.

    `pos` and `neg` are (n, 3) id arrays; row i of `neg` is the corrupted
    version of row i of `pos`. Returns (loss, d_entities, d_relations).
    An id outside its table raises ValueError naming its column, before
    any work.

    Each gradient element sums its terms from 0.0 in a fixed order:
    positive heads, positive tails, negative heads, negative tails for
    entities, positive then negative relations for relations, each list
    in row order. That is the order of six sequential `np.add.at`
    scatters, whose result this matches bit for bit.
    """
    pos = np.asarray(pos, dtype=np.int64)
    neg = np.asarray(neg, dtype=np.int64)
    if pos.ndim != 2 or pos.shape[1] != 3 or neg.shape != pos.shape:
        raise ValueError(f"transe_loss_and_grads: pos and neg must both be (n, 3), "
                         f"got {pos.shape} and {neg.shape}")
    n = pos.shape[0]
    n_ent = entities.shape[0]
    # rows 0..n-1 hold the positive triples, rows n..2n-1 the negative ones
    h, r, t = np.concatenate([pos, neg]).T.copy()
    for ids, bound, column in ((h, n_ent, "head"), (r, relations.shape[0], "relation"),
                               (t, n_ent, "tail")):
        if n and (ids.min() < 0 or ids.max() >= bound):
            k = int(np.flatnonzero((ids < 0) | (ids >= bound))[0])
            raise ValueError(f"transe_loss_and_grads: {'neg' if k >= n else 'pos'}[{k % n}] "
                             f"{column} id {ids[k]} outside [0, {bound})")
    diff = np.take(entities, h, axis=0)
    diff += np.take(relations, r, axis=0)
    diff -= np.take(entities, t, axis=0)
    dist = np.linalg.norm(diff, axis=1)
    slack = margin + dist[:n] - dist[n:]
    active = slack > 0.0
    loss = float(np.where(active, slack, 0.0).mean())

    # unit direction of each distance term; guard the non-differentiable origin
    diff /= np.maximum(dist, 1e-12)[:, None]
    w = active.astype(np.float64)[:, None] / n
    diff[:n] *= w
    diff[n:] *= w
    # one signed term per (gradient row, diff row), listed in summation order;
    # relation rows follow the entity rows
    src = np.arange(2 * n)
    one = np.ones(n)
    rows = np.concatenate([h[:n], t[:n], h[n:], t[n:], n_ent + r[:n], n_ent + r[n:]])
    cols = np.concatenate([src[:n], src[:n], src[n:], src[n:], src[:n], src[n:]])
    signs = np.concatenate([one, -one, -one, one, one, -one])
    grads = _ordered_incidence(rows, cols, signs, n_ent + relations.shape[0], 2 * n) @ diff
    return loss, grads[:n_ent], grads[n_ent:]


def _ordered_incidence(rows, cols, data, n_rows: int, n_cols: int) -> CsrOperator:
    """CSR operator with entry k at (rows[k], cols[k]), each row's entries kept
    in the order of k. Its product with a dense block adds each output
    element's terms from 0.0 in that order (one multiply by +-1.0 each,
    which is exact), without summing duplicates."""
    # a stable sort keeps sequence order within each row; keys of 16 bits
    # or fewer are radix-sorted
    order = np.argsort(rows.astype(np.min_scalar_type(n_rows)), kind="stable")
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])
    return CsrOperator(indptr, cols[order], data[order], (n_rows, n_cols))


def transe_pretrain(g: KnowledgeGraph, cfg: TranseConfig, seed: int):
    """Pretrain entity/relation embeddings on the graph's triples.

    Plain SGD on the margin-ranking loss; negatives corrupt the head or
    the tail uniformly at random. Entity rows are L2-normalized at the
    start of every epoch and once more on exit. Returns
    (entities, relations, final_epoch_loss). Raises ValueError on a
    setting outside its range, before any work.
    """
    cfg.validate()
    rng = np.random.default_rng(seed)
    bound = 6.0 / np.sqrt(cfg.dim)
    entities = rng.uniform(-bound, bound, size=(g.n_entities, cfg.dim))
    relations = rng.uniform(-bound, bound, size=(g.n_relations, cfg.dim))
    relations /= np.maximum(np.linalg.norm(relations, axis=1, keepdims=True), 1e-12)
    triples = np.asarray(g.triples)
    loss = 0.0
    for _ in range(cfg.epochs):
        entities /= np.maximum(np.linalg.norm(entities, axis=1, keepdims=True), 1e-12)
        loss = 0.0
        for _ in range(cfg.negatives):
            neg = triples.copy()
            corrupt_head = rng.random(len(triples)) < 0.5
            fresh = rng.integers(0, g.n_entities, size=len(triples))
            neg[corrupt_head, 0] = fresh[corrupt_head]
            neg[~corrupt_head, 2] = fresh[~corrupt_head]
            batch_loss, de, dr = transe_loss_and_grads(entities, relations, triples, neg, cfg.margin)
            entities -= cfg.learning_rate * de
            relations -= cfg.learning_rate * dr
            loss += batch_loss
        loss /= cfg.negatives
    entities /= np.maximum(np.linalg.norm(entities, axis=1, keepdims=True), 1e-12)
    return entities, relations, loss

