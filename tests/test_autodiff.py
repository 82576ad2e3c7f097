"""Tape gradients against central finite differences, op by op."""

import numpy as np
import pytest
import scipy.sparse as sparse

from conftest import finite_difference, rel_error
from kgrec.autodiff import Tape, Tensor
from oracles import matmul_const, sigmoid_taped, tanh_taped

TOL = 1e-5


def _weighted_scalar(tape, out, weights):
    # distinct per-element weights catch transposed gradient pieces that a
    # plain sum would let through
    return tape.sum(tape.mul(out, Tensor(weights)))


def _check(build, tensors, trial):
    """build(tape) -> output tensor; gradient must match FD for every input."""
    rng = np.random.default_rng(900 + trial)
    tape = Tape()
    out = build(tape)
    weights = rng.standard_normal(out.shape)
    loss = _weighted_scalar(tape, out, weights)
    grads = tape.backward(loss, wrt=tensors)

    def loss_fn():
        t2 = Tape()
        return float(_weighted_scalar(t2, build(t2), weights).data)

    want = finite_difference(loss_fn, tensors)
    for t in tensors:
        err = rel_error(grads[t], want[t])
        assert err < TOL, f"trial {trial}: rel error {err}"


def test_matmul_const_dense_and_sparse():
    rng = np.random.default_rng(1)
    for trial in range(6):
        n, m = rng.integers(1, 6, size=2)
        const = rng.standard_normal((n, m))
        x = Tensor(rng.standard_normal((m, 3)), requires_grad=True)
        _check(lambda tape: matmul_const(tape, const, x), [x], trial)
        sp = sparse.csr_matrix(np.where(rng.random((n, m)) < 0.5, const, 0.0))
        _check(lambda tape: matmul_const(tape, sp, x), [x], 100 + trial)


def test_linear_gradients():
    rng = np.random.default_rng(2)
    for trial in range(10):
        n, m = rng.integers(1, 5, size=2)
        w = Tensor(rng.standard_normal((m, n)), requires_grad=True)
        b = Tensor(rng.standard_normal(m), requires_grad=True)
        rows = int(rng.integers(1, 5))
        x = Tensor(rng.standard_normal((rows, n)), requires_grad=True)
        _check(lambda tape: tape.linear(x, w, b), [x, w, b], trial)
        _check(lambda tape: tape.linear(x, w), [x, w], trial)
    with pytest.raises(ValueError):
        Tape().linear(Tensor(np.ones(3)), Tensor(np.ones((2, 3))))  # inputs are rows
    with pytest.raises(ValueError):
        Tape().linear(Tensor(np.ones((1, 2))), Tensor(np.ones((2, 3))))


def test_elementwise_gradients():
    rng = np.random.default_rng(3)
    for trial in range(10):
        shape = tuple(rng.integers(1, 5, size=2))
        a = Tensor(rng.standard_normal(shape), requires_grad=True)
        b = Tensor(rng.standard_normal(shape), requires_grad=True)
        _check(lambda tape: tape.add(a, b), [a, b], trial)
        _check(lambda tape: tape.sub(a, b), [a, b], trial)
        _check(lambda tape: tape.mul(a, b), [a, b], trial)
        _check(lambda tape: sigmoid_taped(tape, a), [a], trial)
        _check(lambda tape: tanh_taped(tape, a), [a], trial)
        # keep relu entries away from the kink, FD is wrong there
        c = Tensor(np.where(np.abs(a.data) < 0.1, 0.5, a.data), requires_grad=True)
        _check(lambda tape: tape.relu(c), [c], trial)


def test_relu_gradient_is_zero_at_zero():
    x = Tensor(np.array([0.0, -1.0, 2.0]), requires_grad=True)
    tape = Tape()
    loss = tape.sum(tape.relu(x))
    grads = tape.backward(loss)
    assert np.array_equal(grads[x], np.array([0.0, 0.0, 1.0]))


def test_sigmoid_extreme_inputs_stay_finite():
    x = Tensor(np.array([-1000.0, -50.0, 0.0, 50.0, 1000.0]), requires_grad=True)
    tape = Tape()
    out = sigmoid_taped(tape, x)
    assert np.all(np.isfinite(out.data))
    assert out.data[0] == 0.0 and out.data[-1] == 1.0
    assert out.data[2] == 0.5
    grads = tape.backward(tape.sum(out))
    assert np.all(np.isfinite(grads[x]))


def test_concat_and_reshape_gradients():
    rng = np.random.default_rng(4)
    for trial in range(8):
        rows = int(rng.integers(1, 4))
        m1 = Tensor(rng.standard_normal((rows, 2)), requires_grad=True)
        m2 = Tensor(rng.standard_normal((rows, 3)), requires_grad=True)
        _check(lambda tape: tape.concat_cols(m1, m2), [m1, m2], trial)
        _check(lambda tape: tape.reshape(m1, (2 * rows,)), [m1], trial)
    with pytest.raises(ValueError):
        Tape().concat_cols(Tensor(np.ones((2, 2))), Tensor(np.ones((3, 2))))


def test_gather_gradients():
    rng = np.random.default_rng(5)
    for trial in range(8):
        x = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
        idx = rng.integers(0, 5, size=7)  # repeats on purpose
        _check(lambda tape: tape.gather_rows(x, idx), [x], trial)


def test_gather_rows_accumulates_repeats():
    x = Tensor(np.zeros((3, 2)), requires_grad=True)
    tape = Tape()
    out = tape.gather_rows(x, np.array([1, 1, 1, 0]))
    grads = tape.backward(tape.sum(out))
    assert np.array_equal(grads[x], np.array([[1.0, 1.0], [3.0, 3.0], [0.0, 0.0]]))


def test_gather_bounds():
    x = Tensor(np.ones((3, 2)), requires_grad=True)
    with pytest.raises(IndexError):
        Tape().gather_rows(x, np.array([0, -1]))


def test_reduction_gradients():
    rng = np.random.default_rng(6)
    for trial in range(8):
        x = Tensor(rng.standard_normal((int(rng.integers(1, 5)), 3)), requires_grad=True)

        def scalar_loss():
            t2 = Tape()
            return float(t2.mean(x).data)

        tape = Tape()
        grads = tape.backward(tape.mean(x), wrt=[x])
        want = finite_difference(scalar_loss, [x])
        assert rel_error(grads[x], want[x]) < TOL
    with pytest.raises(ValueError):
        Tape().mean(Tensor(np.zeros((0, 2))))


def test_fan_out_accumulates():
    # x used twice: d/dx sum(x*x) = 2x
    x = Tensor(np.array([3.0, -2.0]), requires_grad=True)
    tape = Tape()
    loss = tape.sum(tape.mul(x, x))
    grads = tape.backward(loss)
    assert np.array_equal(grads[x], np.array([6.0, -4.0]))


def test_record_without_tracked_inputs_is_never_asked_for_pieces():
    asked = []

    def backward(g):
        asked.append(g)
        return (g,)

    x = Tensor(np.ones(2), requires_grad=True)
    tape = Tape()
    constant = tape.emit("probe", np.full(2, 2.0), (Tensor(np.ones(2)),), backward)
    tracked = tape.emit("probe", x.data * 3.0, (x,), backward)
    grads = tape.backward(tape.sum(tape.add(constant, tracked)))
    # only the record whose input tracks is kept, and asked
    assert len(asked) == 1
    assert np.array_equal(grads[x], np.ones(2))


def test_an_op_over_constants_gives_a_tensor_the_tape_does_not_track():
    x = Tensor(np.ones(2), requires_grad=True)
    tape = Tape()
    constant = tape.relu(tape.mul(Tensor(np.ones(2)), Tensor(np.full(2, 2.0))))
    tracked = tape.mul(x, constant)
    assert not tape.tracks(constant)
    assert tape.tracks(tracked)
    assert np.array_equal(tape.backward(tape.sum(tracked))[x], np.full(2, 2.0))


@pytest.mark.parametrize("pieces", [0, 2])
@pytest.mark.parametrize("form", [tuple, iter])
def test_backward_with_a_wrong_piece_count_raises(pieces, form):
    x = Tensor(np.ones(2), requires_grad=True)
    tape = Tape()
    out = tape.emit("probe", x.data.copy(), (x,), lambda g: form([g] * pieces))
    with pytest.raises(ValueError):
        tape.backward(tape.sum(out))


@pytest.mark.parametrize("form", [tuple, iter])
def test_a_tensor_listed_twice_gets_its_pieces_in_input_order(form):
    # x's piece from the mul, replayed first, is 1; then the probe's pieces
    # land in input order: (1 + 1e-16) - 1 is 0, the other order 1e-16
    x = Tensor(np.ones(2), requires_grad=True)
    first, second = np.full(2, 1e-16), np.full(2, -1.0)
    tape = Tape()
    probe = tape.emit("probe", x.data + x.data, (x, x), lambda g: form([first, second]))
    got = tape.backward(tape.sum(tape.add(probe, tape.mul(x, Tensor(np.ones(2))))))[x]
    assert got.tobytes() == ((np.ones(2) + first) + second).tobytes()
    assert got.tobytes() != ((np.ones(2) + second) + first).tobytes()


def test_constant_leaves_get_no_gradient():
    x = Tensor(np.ones(3), requires_grad=True)
    c = Tensor(np.full(3, 2.0))  # requires_grad False
    tape = Tape()
    loss = tape.sum(tape.mul(x, c))
    grads = tape.backward(loss)
    assert c not in grads
    assert np.array_equal(grads[x], c.data)


def test_wrt_fills_zeros_for_unused_parameters():
    x = Tensor(np.ones(2), requires_grad=True)
    unused = Tensor(np.ones((2, 2)), requires_grad=True)
    tape = Tape()
    loss = tape.sum(x)
    grads = tape.backward(loss, wrt=[x, unused])
    assert np.array_equal(grads[unused], np.zeros((2, 2)))
    assert np.array_equal(grads[x], np.ones(2))


def test_tape_single_use():
    x = Tensor(np.ones(2), requires_grad=True)
    tape = Tape()
    loss = tape.sum(x)
    tape.backward(loss)
    with pytest.raises(RuntimeError):
        tape.backward(loss)


def test_backward_rejects_nonscalar_loss():
    x = Tensor(np.ones(2), requires_grad=True)
    tape = Tape()
    out = tape.add(x, x)
    with pytest.raises(ValueError):
        tape.backward(out)


def test_non_finite_values_rejected():
    with pytest.raises(FloatingPointError):
        Tensor(np.array([1.0, np.inf]))
    big = Tensor(np.array([1e308]))
    tape = Tape()
    with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
        tape.mul(big, big)  # overflows to inf


def test_chained_network_gradient():
    # two-layer MLP end to end, the shape most of the package relies on
    rng = np.random.default_rng(7)
    for trial in range(5):
        w1 = Tensor(rng.standard_normal((4, 3)) * 0.5, requires_grad=True)
        b1 = Tensor(rng.standard_normal(4) * 0.5, requires_grad=True)
        w2 = Tensor(rng.standard_normal((1, 4)) * 0.5, requires_grad=True)
        b2 = Tensor(rng.standard_normal(1) * 0.5, requires_grad=True)
        x = Tensor(rng.standard_normal((1, 3)), requires_grad=True)

        def build(tape):
            hidden = tape.relu(tape.linear(x, w1, b1))
            return tape.linear(hidden, w2, b2)

        _check(build, [w1, b1, w2, b2, x], trial)
