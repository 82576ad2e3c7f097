"""Margin-ranking embedding training: gradients and invariants."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import kgrec.transe as transe_module
from conftest import rel_error
from kgrec.graph import KnowledgeGraph
from kgrec.transe import TranseConfig, transe_loss_and_grads, transe_pretrain
from oracles import transe_loss_and_grads_add_at


def _toy_graph(rng, n_ent=12, n_rel=3, n_tri=30):
    triples = np.stack([rng.integers(0, n_ent, size=n_tri),
                        rng.integers(0, n_rel, size=n_tri),
                        rng.integers(0, n_ent, size=n_tri)], axis=1)
    return KnowledgeGraph(triples, n_ent, n_rel, {})


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


def _same_bits(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


# coordinates from a small grid repeat exactly, so zero-length differences
# (the 1e-12 guard), ties and exact cancellations are common
_coords = st.one_of(st.sampled_from([0.0, -0.0, 0.5, -1.0, 1.0]),
                    st.floats(-3.0, 3.0, allow_nan=False))


@st.composite
def _triple_batches(draw):
    n_ent, n_rel = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    dim, n = draw(st.integers(1, 8)), draw(st.integers(0, 40))

    def matrix(rows):
        return np.array(draw(st.lists(_coords, min_size=rows * dim, max_size=rows * dim)),
                        dtype=np.float64).reshape(rows, dim)

    def ids(count):
        return draw(st.lists(st.integers(0, count - 1), min_size=n, max_size=n))

    entities, relations = matrix(n_ent), matrix(n_rel)
    pos = np.array([ids(n_ent), ids(n_rel), ids(n_ent)], dtype=np.int64).T.reshape(n, 3)
    neg = pos.copy()
    # per row: keep the positive, corrupt the head, or corrupt the tail
    for i, (mode, fresh) in enumerate(zip(ids(3), ids(n_ent))):
        if mode:
            neg[i, 0 if mode == 1 else 2] = fresh
    margin = draw(st.one_of(st.sampled_from([-100.0, 0.0, 1.0, 100.0]), st.floats(-2.0, 4.0)))
    return entities, relations, pos, neg, margin


_SELF_LOOPS = np.array([[0, 0, 0], [1, 1, 1], [0, 0, 0], [0, 1, 1], [1, 0, 0]])


@settings(max_examples=300, deadline=None)
@given(_triple_batches())
# every difference is zero: self-loops, repeats and negatives equal to the
# positives, all active under a positive margin and all inactive under a
# negative one
@example((np.zeros((2, 3)), np.zeros((2, 3)), _SELF_LOOPS, _SELF_LOOPS.copy(), 1.0))
@example((np.zeros((2, 3)), np.zeros((2, 3)), _SELF_LOOPS, _SELF_LOOPS.copy(), -1.0))
# an empty batch
@example((np.eye(2), np.ones((1, 2)), np.zeros((0, 3), dtype=np.int64),
          np.zeros((0, 3), dtype=np.int64), 1.0))
def test_loss_and_grads_match_add_at_reference_bitwise(batch):
    entities, relations, pos, neg, margin = batch
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the mean of an empty batch
        loss, de, dr = transe_loss_and_grads(entities, relations, pos, neg, margin)
        want_loss, want_de, want_dr = transe_loss_and_grads_add_at(entities, relations, pos, neg,
                                                                   margin)
    assert loss == want_loss or (math.isnan(loss) and math.isnan(want_loss))
    assert np.array_equal(de, want_de) and np.array_equal(dr, want_dr)
    assert _same_bits(de, want_de) and _same_bits(dr, want_dr)


def test_pretraining_matches_add_at_reference_bitwise(monkeypatch):
    rng = np.random.default_rng(34)
    triples = np.concatenate([_toy_graph(rng, n_ent=6, n_tri=40).triples,
                              [[0, 0, 0], [3, 1, 3], [5, 2, 5]]])
    g = KnowledgeGraph(triples, 6, 3, {})
    cfg = TranseConfig(dim=5, epochs=15, negatives=2, learning_rate=0.05)
    got = transe_pretrain(g, cfg, seed=2)
    monkeypatch.setattr(transe_module, "transe_loss_and_grads", transe_loss_and_grads_add_at)
    want = transe_pretrain(g, cfg, seed=2)
    assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1])
    assert got[2] == want[2]


@pytest.mark.parametrize("field, value", [
    ("dim", 0), ("dim", -2), ("epochs", -3), ("negatives", 0),
    ("learning_rate", float("nan")), ("learning_rate", float("inf")), ("learning_rate", -0.1),
    ("margin", float("nan")), ("margin", float("-inf")),
])
def test_pretraining_rejects_bad_settings_before_work(field, value, monkeypatch):
    g = _toy_graph(np.random.default_rng(35))

    def no_epoch(*args):
        raise AssertionError("an epoch ran")

    monkeypatch.setattr(transe_module, "transe_loss_and_grads", no_epoch)
    cfg = TranseConfig(**{"dim": 4, "epochs": 3, field: value})
    with pytest.raises(ValueError, match=f"TranseConfig.{field} must be"):
        transe_pretrain(g, cfg, seed=0)


def test_pretraining_accepts_boundary_settings():
    g = _toy_graph(np.random.default_rng(36))
    entities, _, loss = transe_pretrain(g, TranseConfig(dim=1, epochs=0, learning_rate=0.0),
                                        seed=0)
    assert entities.shape == (g.n_entities, 1) and loss == 0.0
    _, _, loss = transe_pretrain(g, TranseConfig(dim=3, epochs=2, margin=-1.0), seed=0)
    assert loss == 0.0


@pytest.mark.parametrize("side", ["pos", "neg"])
@pytest.mark.parametrize("column, name", [(0, "head"), (1, "relation"), (2, "tail")])
@pytest.mark.parametrize("high", [False, True])
def test_loss_and_grads_reject_out_of_range_ids_before_work(side, column, name, high,
                                                            monkeypatch):
    rng = np.random.default_rng(37)
    entities, relations = rng.standard_normal((5, 3)), rng.standard_normal((2, 3))
    pos = np.array([[0, 0, 1], [2, 1, 3], [4, 0, 0]])
    neg = pos.copy()
    bound = 2 if column == 1 else 5
    bad = bound if high else -1
    (pos if side == "pos" else neg)[1, column] = bad

    def no_scatter(*args):
        raise AssertionError("the gradient scatter ran")

    monkeypatch.setattr(transe_module, "_ordered_incidence", no_scatter)
    with pytest.raises(ValueError, match=rf"{side}\[1\] {name} id {bad} outside \[0, {bound}\)"):
        transe_loss_and_grads(entities, relations, pos, neg, 1.0)


def test_loss_and_grads_reject_mismatched_batches():
    entities, relations = np.ones((3, 2)), np.ones((1, 2))
    pos = np.zeros((2, 3), dtype=np.int64)
    for neg in (np.zeros((3, 3), dtype=np.int64), np.zeros((2, 2), dtype=np.int64)):
        with pytest.raises(ValueError, match="pos and neg must both be"):
            transe_loss_and_grads(entities, relations, pos, neg, 1.0)
