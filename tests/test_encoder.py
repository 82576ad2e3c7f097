"""Graph convolution and session GRU: parity, gradients, invariants."""

import numpy as np

from conftest import finite_difference, rel_error
from kgrec.agent import gru_step_np
from kgrec.autodiff import Tape, Tensor
from kgrec.encoder import GcnParameters, GruParameters, encode_rows, gru_step_rows, propagate_all
from kgrec.graph import KnowledgeGraph
from oracles import fold_history_np, item_embedding_np

TOL = 1e-5


def _graph_with_items(rng, n_ent=10, n_tri=24):
    triples = np.stack([rng.integers(0, n_ent, size=n_tri),
                        rng.integers(0, 2, size=n_tri),
                        rng.integers(0, n_ent, size=n_tri)], axis=1)
    item_to_entity = {i: i for i in range(n_ent)}  # every entity is an item
    return KnowledgeGraph(triples, n_ent, 2, item_to_entity)


def _zero_gru(dim):
    def t():
        return Tensor(np.zeros((dim, dim)), requires_grad=True)

    def b():
        return Tensor(np.zeros(dim), requires_grad=True)

    return GruParameters(w_update=t(), u_update=t(), b_update=b(),
                         w_reset=t(), u_reset=t(), b_reset=b(),
                         w_cand=t(), u_cand=t(), b_cand=b())


def test_zero_weight_gru_halves_hidden_state():
    # all-zero weights: update gate 0.5, candidate 0 -> h' = 0.5 h
    gru = _zero_gru(3)
    h = np.array([2.0, -4.0, 1.0])
    out = gru_step_np(gru, h, np.ones(3))
    assert np.array_equal(out, 0.5 * h)
    taped = gru_step_rows(gru, Tensor(np.stack([h, -h])), Tensor(np.ones((2, 3))), Tape())
    assert np.array_equal(taped.data, 0.5 * np.stack([h, -h]))


def test_empty_history_encodes_to_zero():
    rng = np.random.default_rng(41)
    gru = GruParameters.init(4, rng)
    matrix = np.zeros((3, 4))
    assert np.array_equal(fold_history_np(gru, matrix, []), np.zeros(4))
    tape = Tape()
    h = encode_rows(gru, Tensor(matrix), np.arange(3), [()], tape)
    assert np.array_equal(h.data, np.zeros((1, 4)))


def test_batched_encode_matches_per_sample_folds():
    rng = np.random.default_rng(43)
    for trial in range(10):
        dim = int(rng.integers(2, 5))
        n_items = int(rng.integers(3, 7))
        gru = GruParameters.init(dim, rng)
        matrix = rng.standard_normal((n_items, dim))
        row_of = np.arange(n_items)
        histories = []
        for _ in range(int(rng.integers(1, 5))):
            length = int(rng.integers(0, 4))
            histories.append(tuple(int(i) for i in rng.integers(0, n_items, size=length)))
        tape = Tape()
        batched = encode_rows(gru, Tensor(matrix), row_of, histories, tape)
        for i, hist in enumerate(histories):
            want = fold_history_np(gru, matrix, [row_of[h] for h in hist])
            assert rel_error(batched.data[i], want) < 1e-12, f"trial {trial} row {i}"


def test_history_order_matters():
    rng = np.random.default_rng(44)
    gru = GruParameters.init(4, rng)
    matrix = rng.standard_normal((2, 4))
    fwd = fold_history_np(gru, matrix, [0, 1])
    rev = fold_history_np(gru, matrix, [1, 0])
    assert np.max(np.abs(fwd - rev)) > 1e-6


def test_hidden_state_stays_bounded():
    # h' is a convex blend of h and tanh(..) in (-1, 1); from h0 = 0 the
    # iterates never leave [-1, 1]
    rng = np.random.default_rng(45)
    gru = GruParameters.init(3, rng)
    h = np.zeros(3)
    for _ in range(1000):
        h = gru_step_np(gru, h, rng.standard_normal(3) * 5.0)
        assert np.max(np.abs(h)) <= 1.0


def test_gru_gradients_match_finite_differences():
    rng = np.random.default_rng(46)
    for trial in range(5):
        dim = 3
        gru = GruParameters.init(dim, rng)
        rows = 2
        h0 = Tensor(rng.standard_normal((rows, dim)))
        x0 = Tensor(rng.standard_normal((rows, dim)), requires_grad=True)
        x1 = Tensor(rng.standard_normal((rows, dim)), requires_grad=True)
        weights = rng.standard_normal((rows, dim))
        params = gru.tensors() + [x0, x1]

        def loss_fn():
            tape = Tape()
            h = gru_step_rows(gru, h0, x0, tape)
            h = gru_step_rows(gru, h, x1, tape)
            return float(tape.sum(tape.mul_const(h, weights)).data)

        tape = Tape()
        h = gru_step_rows(gru, h0, x0, tape)
        h = gru_step_rows(gru, h, x1, tape)
        grads = tape.backward(tape.sum(tape.mul_const(h, weights)), wrt=params)
        want = finite_difference(loss_fn, params)
        for t in params:
            assert rel_error(grads[t], want[t]) < TOL, f"trial {trial}"


def test_aggregate_and_integrate_hand_case():
    g = KnowledgeGraph(np.array([[0, 0, 1], [0, 0, 2]]), 3, 1, {})
    emb = Tensor(np.array([[1.0, 0.0], [0.0, 2.0], [4.0, 0.0]]))
    w = Tensor(np.eye(2), requires_grad=True)
    b = Tensor(np.diag([-1.0, 1.0]), requires_grad=True)
    out = propagate_all(g, emb, GcnParameters(layers=[(w, b)]), Tape())
    # entity 0 averages rows 1 and 2: relu(I @ [2, 1] + B @ [1, 0]) = relu([1, 1]);
    # entities 1 and 2 have no successors, so a zero aggregate: relu(B @ self)
    assert np.array_equal(out.data, np.array([[1.0, 1.0], [0.0, 2.0], [0.0, 0.0]]))


def test_item_embedding_matches_propagate_all():
    rng = np.random.default_rng(47)
    for trial in range(8):
        g = _graph_with_items(rng)
        dim = 3
        base = Tensor(rng.standard_normal((g.n_entities, dim)), requires_grad=True)
        gcn = GcnParameters.init(dim, hops=int(rng.integers(1, 3)), rng=rng)
        full = propagate_all(g, base, gcn, Tape())
        for item in range(0, g.n_entities, 3):
            single = item_embedding_np(g, item, gcn, base.data)
            row = g.item_to_entity[item]
            assert rel_error(single.data, full.data[row]) < 1e-12, f"trial {trial} item {item}"


def test_gcn_gradients_match_finite_differences():
    rng = np.random.default_rng(48)
    for trial in range(5):
        g = _graph_with_items(rng, n_ent=6, n_tri=12)
        dim = 2
        base = Tensor(rng.standard_normal((6, dim)) + 0.5, requires_grad=True)
        gcn = GcnParameters.init(dim, hops=2, rng=rng)
        weights = rng.standard_normal((6, dim))
        params = [base] + gcn.tensors()

        def loss_fn():
            tape = Tape()
            return float(tape.sum(tape.mul_const(propagate_all(g, base, gcn, tape), weights)).data)

        tape = Tape()
        out = propagate_all(g, base, gcn, tape)
        grads = tape.backward(tape.sum(tape.mul_const(out, weights)), wrt=params)
        want = finite_difference(loss_fn, params)
        for t in params:
            # relu kinks can pollute single entries; the shift above keeps
            # activations away from zero in practice
            assert rel_error(grads[t], want[t]) < 1e-4, f"trial {trial}"


def test_gru_step_rows_matches_single_steps():
    rng = np.random.default_rng(50)
    dim, rows = 4, 5
    gru = GruParameters.init(dim, rng)
    h = rng.standard_normal((rows, dim))
    x = rng.standard_normal((rows, dim))
    tape = Tape()
    batched = gru_step_rows(gru, Tensor(h), Tensor(x), tape)
    for i in range(rows):
        want = gru_step_np(gru, h[i], x[i])
        assert rel_error(batched.data[i], want) < 1e-12
