"""Margin-ranking embedding training: gradients and invariants."""

import numpy as np

from conftest import rel_error
from kgrec.graph import KnowledgeGraph
from kgrec.transe import (TranseConfig, margin_loss, transe_loss_and_grads, transe_pretrain,
                          triple_distance)


def _toy_graph(rng, n_ent=12, n_rel=3, n_tri=30):
    triples = np.stack([rng.integers(0, n_ent, size=n_tri),
                        rng.integers(0, n_rel, size=n_tri),
                        rng.integers(0, n_ent, size=n_tri)], axis=1)
    return KnowledgeGraph(triples, n_ent, n_rel, {})


def test_triple_distance_zero_on_exact_translation():
    entities = np.array([[1.0, 2.0], [4.0, 6.0]])
    relations = np.array([[3.0, 4.0]])
    assert triple_distance(entities, relations, 0, 0, 1) == 0.0
    assert abs(triple_distance(entities, relations, 1, 0, 0) -
               np.linalg.norm([6.0, 8.0])) < 1e-12


def test_margin_loss_hand_cases():
    assert margin_loss(0.0, 0.0, 1.0) == 1.0
    assert margin_loss(0.5, 2.0, 1.0) == 0.0  # negative far enough away
    assert margin_loss(2.0, 0.5, 1.0) == 2.5
    assert margin_loss(1.0, 2.0, 1.0) == 0.0  # boundary hinges to zero


def test_loss_gradients_match_finite_differences():
    rng = np.random.default_rng(31)
    eps = 1e-6
    for trial in range(10):
        n_ent, n_rel, n = 8, 3, 6
        entities = rng.standard_normal((n_ent, 4))
        relations = rng.standard_normal((n_rel, 4))
        pos = np.stack([rng.integers(0, n_ent, n), rng.integers(0, n_rel, n),
                        rng.integers(0, n_ent, n)], axis=1)
        neg = pos.copy()
        neg[:, 0] = rng.integers(0, n_ent, n)
        loss, de, dr = transe_loss_and_grads(entities, relations, pos, neg, margin=1.0)

        # skip instances where some pair sits on the hinge boundary; the
        # subgradient there is one-sided and FD straddles it
        slack_p = np.linalg.norm(entities[pos[:, 0]] + relations[pos[:, 1]] - entities[pos[:, 2]], axis=1)
        slack_n = np.linalg.norm(entities[neg[:, 0]] + relations[neg[:, 1]] - entities[neg[:, 2]], axis=1)
        if np.any(np.abs(1.0 + slack_p - slack_n) < 1e-3):
            continue

        for mat, grad in ((entities, de), (relations, dr)):
            fd = np.zeros_like(mat)
            flat = mat.ravel()
            fd_flat = fd.ravel()
            for i in range(flat.size):
                kept = flat[i]
                flat[i] = kept + eps
                hi = transe_loss_and_grads(entities, relations, pos, neg, 1.0)[0]
                flat[i] = kept - eps
                lo = transe_loss_and_grads(entities, relations, pos, neg, 1.0)[0]
                flat[i] = kept
                fd_flat[i] = (hi - lo) / (2 * eps)
            assert rel_error(grad, fd) < 1e-4, f"trial {trial}"


def test_pretraining_reduces_loss_and_normalizes():
    rng = np.random.default_rng(32)
    g = _toy_graph(rng)
    cfg = TranseConfig(dim=8, epochs=60, learning_rate=0.05)
    entities, relations, final_loss = transe_pretrain(g, cfg, seed=5)
    assert entities.shape == (g.n_entities, 8)
    assert relations.shape == (g.n_relations, 8)
    # exit normalization: every entity row on the unit sphere
    norms = np.linalg.norm(entities, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-12

    few = TranseConfig(dim=8, epochs=1, learning_rate=0.05)
    _, _, early_loss = transe_pretrain(g, few, seed=5)
    assert final_loss < early_loss


def test_pretraining_is_deterministic():
    rng = np.random.default_rng(33)
    g = _toy_graph(rng)
    cfg = TranseConfig(dim=6, epochs=10)
    e1, r1, l1 = transe_pretrain(g, cfg, seed=9)
    e2, r2, l2 = transe_pretrain(g, cfg, seed=9)
    assert np.array_equal(e1, e2) and np.array_equal(r1, r2) and l1 == l2
    e3, _, _ = transe_pretrain(g, cfg, seed=10)
    assert not np.array_equal(e1, e3)
