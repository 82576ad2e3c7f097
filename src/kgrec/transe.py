"""Translational embedding pretraining for graph entities.

Margin-ranking loss on ||e_h + e_r - e_t|| with uniform negative
sampling; gradients are closed-form and checked against finite
differences in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import KnowledgeGraph


@dataclass
class TranseConfig:
    dim: int = 50
    margin: float = 1.0
    negatives: int = 1
    epochs: int = 100
    learning_rate: float = 1e-3


def triple_distance(entities: np.ndarray, relations: np.ndarray, h: int, r: int, t: int) -> float:
    """L2 length of e_h + e_r - e_t; zero iff the translation is exact."""
    return float(np.linalg.norm(entities[h] + relations[r] - entities[t]))


def margin_loss(d_pos: float, d_neg: float, margin: float) -> float:
    """Hinge on the ranking margin: max(0, margin + d_pos - d_neg)."""
    return max(0.0, margin + d_pos - d_neg)


def transe_loss_and_grads(entities: np.ndarray, relations: np.ndarray,
                          pos: np.ndarray, neg: np.ndarray, margin: float):
    """Mean margin-ranking loss over triple pairs, with gradients.

    `pos` and `neg` are (n, 3) id arrays; row i of `neg` is the corrupted
    version of row i of `pos`. Returns (loss, d_entities, d_relations).
    """
    pos = np.asarray(pos, dtype=np.int64)
    neg = np.asarray(neg, dtype=np.int64)
    n = pos.shape[0]
    diff_p = entities[pos[:, 0]] + relations[pos[:, 1]] - entities[pos[:, 2]]
    diff_n = entities[neg[:, 0]] + relations[neg[:, 1]] - entities[neg[:, 2]]
    d_p = np.linalg.norm(diff_p, axis=1)
    d_n = np.linalg.norm(diff_n, axis=1)
    slack = margin + d_p - d_n
    active = slack > 0.0
    loss = float(np.where(active, slack, 0.0).mean())

    de = np.zeros_like(entities)
    dr = np.zeros_like(relations)
    # unit direction of each distance term; guard the non-differentiable origin
    up = diff_p / np.maximum(d_p, 1e-12)[:, None]
    un = diff_n / np.maximum(d_n, 1e-12)[:, None]
    w = active.astype(np.float64)[:, None] / n
    np.add.at(de, pos[:, 0], w * up)
    np.add.at(de, pos[:, 2], -w * up)
    np.add.at(dr, pos[:, 1], w * up)
    np.add.at(de, neg[:, 0], -w * un)
    np.add.at(de, neg[:, 2], w * un)
    np.add.at(dr, neg[:, 1], -w * un)
    return loss, de, dr


def transe_pretrain(g: KnowledgeGraph, cfg: TranseConfig, seed: int):
    """Pretrain entity/relation embeddings on the graph's triples.

    Plain SGD on the margin-ranking loss; negatives corrupt the head or
    the tail uniformly at random. Entity rows are L2-normalized at the
    start of every epoch and once more on exit. Returns
    (entities, relations, final_epoch_loss).
    """
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

