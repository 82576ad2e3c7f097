"""Graph convolution and session GRU: parity, gradients, invariants."""

import gc
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import finite_difference, rel_error
from kgrec.autodiff import Tape, Tensor
from kgrec.encoder import (GcnParameters, GruParameters, encode_rows, gru_step_np, padded_rows,
                           propagate_all)
from kgrec.graph import KnowledgeGraph
from oracles import (encode_rows_taped, fold_history_np, gru_step_rows, gru_step_vec,
                     item_embedding_np, propagate_all_taped)

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


@settings(max_examples=150, deadline=None)
@given(data=st.data(), dim=st.integers(1, 6), n_rows=st.integers(1, 8),
       seed=st.integers(0, 2**32 - 1))
def test_encode_rows_matches_per_history_fold_property(data, dim, n_rows, seed):
    rng = np.random.default_rng(seed)
    gru = GruParameters.init(dim, rng)
    for b in (gru.b_update, gru.b_reset, gru.b_cand):
        b.data = rng.standard_normal(dim)
    matrix = rng.standard_normal((n_rows, dim)) * data.draw(st.sampled_from([0.1, 1.0, 4.0]))
    # item ids map to shuffled rows, several items per row
    row_of = rng.integers(0, n_rows, size=data.draw(st.integers(1, 12)))
    item = st.integers(0, len(row_of) - 1)
    histories = data.draw(st.lists(st.lists(item, max_size=9).map(tuple), max_size=7))
    got = encode_rows(gru, Tensor(matrix), row_of, histories, Tape()).data
    assert got.shape == (len(histories), dim)
    for i, hist in enumerate(histories):
        want = fold_history_np(gru, matrix, row_of[list(hist)])
        # batched gemm and per-row gemv may round the last bits differently
        np.testing.assert_allclose(got[i], want, rtol=0, atol=1e-12)


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
        matrix = Tensor(rng.standard_normal((3, dim)), requires_grad=True)
        histories = [(0, 1), (2,), (1, 1, 0), ()]
        weights = rng.standard_normal((len(histories), dim))
        params = gru.tensors() + [matrix]

        def loss_fn():
            tape = Tape()
            h = encode_rows(gru, matrix, np.arange(3), histories, tape)
            return float(tape.sum(tape.mul(h, Tensor(weights))).data)

        tape = Tape()
        h = encode_rows(gru, matrix, np.arange(3), histories, tape)
        grads = tape.backward(tape.sum(tape.mul(h, Tensor(weights))), wrt=params)
        want = finite_difference(loss_fn, params)
        for t in params:
            assert rel_error(grads[t], want[t]) < TOL, f"trial {trial}"


@contextmanager
def _recorded_records():
    """Every record emitted meanwhile, as (name, list of inputs, backward)."""
    records = []
    real_emit = Tape.emit

    def spy(tape, name, out, inputs, backward):
        inputs = list(inputs)
        records.append((name, inputs, backward))
        return real_emit(tape, name, out, inputs, backward)

    Tape.emit = spy
    try:
        yield records
    finally:
        Tape.emit = real_emit


def _fold_and_grads(fold, gru, matrix, row_of, histories, actions, weights, mode):
    """h, the gradients of a loss over [h, action rows] and the number of
    item-matrix inputs per fold record, with the matrix a trainable leaf, an
    op output of the tape or frozen."""
    tape = Tape()
    base = Tensor(matrix, requires_grad=mode != "frozen")
    items = tape.reshape(base, base.shape) if mode == "produced" else base
    with _recorded_records() as records:
        h = fold(gru, items, row_of, histories, tape)
    acted = tape.gather_rows(items, actions)
    loss = tape.sum(tape.mul(tape.concat_cols(h, acted), Tensor(weights)))
    grads = tape.backward(loss, wrt=gru.tensors())
    listed = [sum(inp is items for inp in inputs) for name, inputs, _ in records
              if name == "encode_rows"]
    return h.data, [grads[t] for t in gru.tensors()], grads.get(base), listed


@settings(max_examples=150, deadline=None)
@given(data=st.data(), dim=st.integers(1, 5), n_rows=st.integers(1, 6),
       mode=st.sampled_from(["leaf", "produced", "frozen"]), seed=st.integers(0, 2**32 - 1))
def test_one_record_fold_is_the_taped_fold_bytewise(data, dim, n_rows, mode, seed):
    rng = np.random.default_rng(seed)
    gru = GruParameters.init(dim, rng)
    for b in (gru.b_update, gru.b_reset, gru.b_cand):
        b.data = rng.standard_normal(dim)
    matrix = rng.standard_normal((n_rows, dim)) * data.draw(st.sampled_from([0.1, 1.0, 4.0]))
    # few rows behind many item ids: rows repeat within and across steps
    row_of = rng.integers(0, n_rows, size=data.draw(st.integers(1, 12)))
    item = st.integers(0, len(row_of) - 1)
    histories = data.draw(st.lists(st.lists(item, max_size=9).map(tuple), min_size=1,
                                   max_size=7)
                          | st.integers(1, 4).map(lambda b: [()] * b))
    actions = rng.integers(0, n_rows, size=len(histories))
    weights = rng.standard_normal((len(histories), 2 * dim))
    args = (gru, matrix, row_of, histories, actions, weights, mode)
    h, gru_grads, matrix_grad, listed = _fold_and_grads(encode_rows, *args)
    want_h, want_gru, want_matrix, _ = _fold_and_grads(encode_rows_taped, *args)
    assert h.tobytes() == want_h.tobytes()
    for got, want in zip(gru_grads, want_gru):
        assert got.tobytes() == want.tobytes()
    assert (matrix_grad is None) == (mode == "frozen") == (want_matrix is None)
    if matrix_grad is not None:
        assert matrix_grad.tobytes() == want_matrix.tobytes()
    # one record listing the matrix once per step, never for a frozen matrix
    steps = max(map(len, histories))
    assert listed == ([] if steps == 0 else [0 if mode == "frozen" else steps])


def test_flat_scatter_over_steps_would_change_the_matrix_gradient():
    # The matrix gradient is the action gather's piece plus one dense
    # scatter per step, T first, as the per-step gathers added up. One
    # np.add.at over every step's rows associates the same terms otherwise
    # and changes the last bits of this fixed case.
    rng = np.random.default_rng(7)
    dim, n_rows = 4, 3
    gru = GruParameters.init(dim, rng)
    matrix = rng.standard_normal((n_rows, dim))
    histories = [(0, 1, 2, 0, 1), (2, 0, 1, 2), (1, 2, 0)]
    actions = np.array([0, 1, 2])
    weights = rng.standard_normal((3, 2 * dim))
    args = (gru, matrix, np.arange(n_rows), histories, actions, weights, "leaf")
    got = _fold_and_grads(encode_rows, *args)[2]
    want = _fold_and_grads(encode_rows_taped, *args)[2]
    assert got.tobytes() == want.tobytes()

    # the loss is a weighted sum of [h, action rows]: its gradients are the
    # weights' halves; each step's rows are distinct, so its dense piece
    # holds the step's input-row gradient unchanged
    g_h, g_acted = np.split(weights, 2, axis=1)
    items = Tensor(matrix, requires_grad=True)
    with _recorded_records() as records:
        encode_rows(gru, items, np.arange(n_rows), histories, Tape())
    (_, inputs, backward), = records
    pieces = [p for inp, p in zip(inputs, backward(g_h), strict=True) if inp is items]
    rows = padded_rows(np.arange(n_rows), histories)[0][::-1]
    action_piece = np.zeros_like(matrix)
    np.add.at(action_piece, actions, g_acted)
    per_step = action_piece
    for piece in pieces:
        per_step = per_step + piece
    flat = np.zeros_like(matrix)
    np.add.at(flat, rows.ravel(), np.concatenate([p[r] for p, r in zip(pieces, rows)]))
    assert per_step.tobytes() == want.tobytes()
    assert (action_piece + flat).tobytes() != want.tobytes()


def test_non_finite_pre_activation_raises():
    # rows near 1e308 overflow the update-gate linear to inf, which sigmoid
    # would saturate to a finite 1.0; both folds refuse it
    gru = _zero_gru(2)
    gru.w_update.data[:] = 1.0
    matrix = Tensor(np.full((2, 2), 1e308), requires_grad=True)
    with np.errstate(over="ignore"):
        assert np.isfinite(gru_step_np(gru, np.zeros((1, 2)), matrix.data[:1])).all()
        for fold in (encode_rows, encode_rows_taped):
            with pytest.raises(FloatingPointError):
                fold(gru, matrix, np.arange(2), [(0, 1)], Tape())


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
            out = propagate_all(g, base, gcn, tape)
            return float(tape.sum(tape.mul(out, Tensor(weights))).data)

        tape = Tape()
        out = propagate_all(g, base, gcn, tape)
        grads = tape.backward(tape.sum(tape.mul(out, Tensor(weights))), wrt=params)
        want = finite_difference(loss_fn, params)
        for t in params:
            # relu kinks can pollute single entries; the shift above keeps
            # activations away from zero in practice
            assert rel_error(grads[t], want[t]) < 1e-4, f"trial {trial}"


def _propagate_and_grads(propagate, g, base_data, gcn, weights, mode):
    """The output, the gradients of a weighted sum of it for the base and
    for every W and B, and the names of the records the propagation emits,
    with the base a trainable leaf, an op output of the tape or frozen."""
    tape = Tape()
    base = Tensor(base_data, requires_grad=mode != "frozen")
    x = tape.reshape(base, base.shape) if mode == "produced" else base
    with _recorded_records() as records:
        out = propagate(g, x, gcn, tape)
    grads = tape.backward(tape.sum(tape.mul(out, Tensor(weights))), wrt=gcn.tensors())
    return out.data, grads.get(base), [grads[t] for t in gcn.tensors()], [n for n, *_ in records]


@settings(max_examples=150, deadline=None)
@given(data=st.data(), hops=st.integers(1, 3), dim=st.integers(1, 5),
       mode=st.sampled_from(["leaf", "produced", "frozen"]), seed=st.integers(0, 2**32 - 1))
def test_one_record_hop_is_the_taped_hop_bytewise(data, hops, dim, mode, seed):
    rng = np.random.default_rng(seed)
    n_ent = data.draw(st.integers(1, 9))
    # only the first n_heads entities have successors
    n_heads = data.draw(st.integers(1, n_ent))
    n_tri = data.draw(st.integers(1, 20))
    triples = np.stack([rng.integers(0, n_heads, n_tri), rng.integers(0, 2, n_tri),
                        rng.integers(0, n_ent, n_tri)], axis=1)
    g = KnowledgeGraph(triples, n_ent, 2, {})
    gcn = GcnParameters.init(dim, hops, rng)
    base = rng.standard_normal((n_ent, dim)) * data.draw(st.sampled_from([0.1, 1.0, 4.0]))
    weights = rng.standard_normal((n_ent, dim))
    weights[rng.random(weights.shape) < 0.2] = 0.0
    out, base_grad, gcn_grads, names = _propagate_and_grads(propagate_all, g, base, gcn,
                                                            weights, mode)
    want_out, want_base, want_gcn, want_names = _propagate_and_grads(propagate_all_taped, g,
                                                                     base, gcn, weights, mode)
    assert out.tobytes() == want_out.tobytes()
    for got, want in zip(gcn_grads, want_gcn):
        assert got.tobytes() == want.tobytes()
    assert (base_grad is None) == (mode == "frozen") == (want_base is None)
    if base_grad is not None:
        assert base_grad.tobytes() == want_base.tobytes()
    assert names == ["gcn_hop"] * hops and len(want_names) == 5 * hops


def test_propagation_tape_keeps_one_array_per_hop():
    # The version tape lives as long as its parameter version; each hop's
    # record holds the hop's output and nothing of entity size besides.
    rng = np.random.default_rng(5)
    n_ent, dim, hops = 2000, 8, 3
    triples = np.stack([rng.integers(0, n_ent, 8000), rng.integers(0, 4, 8000),
                        rng.integers(0, n_ent, 8000)], axis=1)
    g = KnowledgeGraph(triples, n_ent, 4, {})
    base = Tensor(rng.standard_normal((n_ent, dim)), requires_grad=True)
    gcn = GcnParameters.init(dim, hops, rng)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tape = Tape()
        out = propagate_all(g, base, gcn, tape)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert out.shape == (n_ent, dim)
    assert held <= (hops + 1) * n_ent * dim * 8 + 64 * 1024, held


def test_gru_step_rows_matches_single_steps():
    rng = np.random.default_rng(50)
    dim, rows = 4, 5
    gru = GruParameters.init(dim, rng)
    h = rng.standard_normal((rows, dim))
    x = rng.standard_normal((rows, dim))
    tape = Tape()
    batched = gru_step_rows(gru, Tensor(h), Tensor(x), tape)
    for i in range(rows):
        want = gru_step_vec(gru, h[i], x[i])
        assert rel_error(batched.data[i], want) < 1e-12


@settings(max_examples=150, deadline=None)
@given(dim=st.integers(1, 20), rows=st.integers(1, 70), scale=st.sampled_from([0.1, 1.0, 30.0]),
       seed=st.integers(0, 2**32 - 1))
def test_gru_step_np_is_the_taped_forward_bytewise(dim, rows, scale, seed):
    rng = np.random.default_rng(seed)
    gru = GruParameters.init(dim, rng)
    for b in (gru.b_update, gru.b_reset, gru.b_cand):
        b.data = rng.standard_normal(dim)
    h = rng.uniform(-1.0, 1.0, (rows, dim))
    x = rng.standard_normal((rows, dim)) * scale
    got = gru_step_np(gru, h, x)
    want = gru_step_rows(gru, Tensor(h), Tensor(x), Tape()).data
    assert got.tobytes() == want.tobytes()
