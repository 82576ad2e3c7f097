"""Dense float64 tensors with taped reverse-mode differentiation.

The op set is what the training path uses: row-batched linear maps,
elementwise add, sub, mul and relu, row gathering, column concatenation,
reshapes and scalar reductions. Each records its inputs and a backward
giving one gradient piece per input, in input order. Fused computations
(a GCN hop, the GRU fold) record themselves through `Tape.emit` with a
hand-written backward; so do the taped sigmoid and tanh of the per-op
GRU that tests compare the fold against (`tests/oracles.py`). There is
no general broadcasting; shapes must match exactly except where an op
documents otherwise. Every tensor and op result must be finite.

`sigmoid` is the package's one logistic function (the GRU gates and the
test oracles' taped op both call it), and `glorot_uniform` its one
weight initializer.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np


def checked(name: str, out: np.ndarray) -> np.ndarray:
    """`out`, or FloatingPointError naming `name` when it holds a non-finite value."""
    if not np.isfinite(out).all():
        raise FloatingPointError(f"{name}: non-finite values in result")
    return out


class Tensor:
    """A dense float64 array plus a requires-gradient flag.

    Tensors are leaves of the computation record; every op output is a
    fresh Tensor with requires_grad False. Parameter tensors are updated
    in place by the optimizer, so their identity is stable across steps.
    """

    __slots__ = ("data", "requires_grad")

    def __init__(self, values, requires_grad: bool = False):
        data = np.array(values, dtype=np.float64)
        if not np.isfinite(data).all():
            raise FloatingPointError("tensor values must be finite")
        self.data = data
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"


def sigmoid(x: np.ndarray) -> np.ndarray:
    """The logistic function as 0.5 + 0.5 * tanh(x / 2): one transcendental,
    no overflow for inputs of either sign."""
    out = np.tanh(x * 0.5)
    out *= 0.5
    out += 0.5
    return out


def scatter_rows(like: np.ndarray, idx: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Zeros like `like` plus the rows of `g` at `idx`, repeats added in order."""
    out = np.zeros_like(like)
    np.add.at(out, idx, g)
    return out


def glorot_uniform(rng: np.random.Generator, rows: int, cols: int) -> Tensor:
    """A trainable (rows, cols) weight drawn uniformly from
    +-sqrt(6 / (rows + cols))."""
    bound = np.sqrt(6.0 / (rows + cols))
    return Tensor(rng.uniform(-bound, bound, size=(rows, cols)), requires_grad=True)


Backward = Callable[[np.ndarray], Iterable[np.ndarray]]


class Tape:
    """Records one forward pass and replays it in reverse for gradients.

    One tape serves one forward pass; backward() consumes it. Gradients
    accumulate additively where a tensor fans out into several ops.
    Tapes and their tensors are not shared across threads.
    """

    def __init__(self):
        self._ops: list[tuple[Tensor, tuple[Tensor, ...], Backward]] = []
        self._produced: set[int] = set()
        self._consumed = False

    # -- recording ---------------------------------------------------

    def emit(self, name: str, out_data: np.ndarray, inputs: Iterable[Tensor],
             backward: Backward) -> Tensor:
        """Record one op: its checked output, its inputs, and a backward from the
        output's gradient to one piece per input (a tuple, or a generator).
        An op none of whose inputs track is not recorded: its output is a
        constant."""
        out = Tensor.__new__(Tensor)
        out.data = checked(name, out_data)
        out.requires_grad = False
        inputs = tuple(inputs)
        if any(map(self.tracks, inputs)):
            self._ops.append((out, inputs, backward))
            self._produced.add(id(out))
        return out

    def tracks(self, t: Tensor) -> bool:
        """Whether backward passes gradient into `t` (trainable, or an op output here)."""
        return t.requires_grad or id(t) in self._produced

    # -- ops ----------------------------------------------------------

    def linear(self, x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
        """x @ w.T (+ b) for x (rows, n), w (m, n) and b (m,)."""
        xd, wd = x.data, w.data
        if xd.ndim != 2 or wd.ndim != 2 or xd.shape[1] != wd.shape[1]:
            raise ValueError(f"linear: shapes disagree: x {xd.shape}, w {wd.shape}")
        out = xd @ wd.T
        if b is None:
            return self.emit("linear", out, (x, w), lambda g: (g @ wd, g.T @ xd))
        if b.data.shape != (wd.shape[0],):
            raise ValueError(f"linear: bias shape {b.data.shape} does not match w {wd.shape}")
        return self.emit("linear", out + b.data, (x, w, b),
                         lambda g: (g @ wd, g.T @ xd, g.sum(axis=0)))

    def _binary(self, name, a, b, fwd, backward):
        if a.data.shape != b.data.shape:
            raise ValueError(f"{name}: shapes disagree: {a.data.shape} vs {b.data.shape}")
        return self.emit(name, fwd(a.data, b.data), (a, b), backward)

    def add(self, a: Tensor, b: Tensor) -> Tensor:
        return self._binary("add", a, b, np.add, lambda g: (g, g))

    def sub(self, a: Tensor, b: Tensor) -> Tensor:
        return self._binary("sub", a, b, np.subtract, lambda g: (g, -g))

    def mul(self, a: Tensor, b: Tensor) -> Tensor:
        ad, bd = a.data, b.data
        return self._binary("mul", a, b, np.multiply, lambda g: (g * bd, g * ad))

    def relu(self, x: Tensor) -> Tensor:
        keep = x.data > 0.0
        return self.emit("relu", np.where(keep, x.data, 0.0), (x,), lambda g: (g * keep,))

    def concat_cols(self, a: Tensor, b: Tensor) -> Tensor:
        """Concatenate two 2-D tensors along columns."""
        if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[0] != b.data.shape[0]:
            raise ValueError(f"concat_cols: shapes disagree: {a.data.shape}, {b.data.shape}")
        split = a.data.shape[1]
        out = np.concatenate([a.data, b.data], axis=1)
        return self.emit("concat_cols", out, (a, b), lambda g: (g[:, :split], g[:, split:]))

    def gather_rows(self, x: Tensor, indices) -> Tensor:
        """Select rows by an integer array; repeated rows accumulate gradient."""
        idx = np.asarray(indices, dtype=np.int64)
        if x.data.ndim != 2 or idx.ndim != 1:
            raise ValueError(f"gather_rows: expects matrix and 1-D index, got {x.data.shape}, {idx.shape}")
        if idx.size and (idx.min() < 0 or idx.max() >= x.data.shape[0]):
            raise IndexError(f"gather_rows: index out of range for {x.data.shape}")
        xd = x.data
        return self.emit("gather_rows", xd[idx], (x,), lambda g: (scatter_rows(xd, idx, g),))

    def sum(self, x: Tensor) -> Tensor:
        xd = x.data
        return self.emit("sum", np.asarray(xd.sum()), (x,), lambda g: (np.full_like(xd, float(g)),))

    def mean(self, x: Tensor) -> Tensor:
        xd = x.data
        if xd.size == 0:
            raise ValueError("mean: empty tensor")
        return self.emit("mean", np.asarray(xd.mean()), (x,), lambda g: (np.full_like(xd, float(g) / xd.size),))

    def reshape(self, x: Tensor, shape) -> Tensor:
        orig = x.data.shape
        return self.emit("reshape", x.data.reshape(shape), (x,), lambda g: (g.reshape(orig),))

    # -- backward ------------------------------------------------------

    def backward(self, loss: Tensor, wrt: Iterable[Tensor] | None = None) -> dict[Tensor, np.ndarray]:
        """Gradients of a scalar loss for every requires-grad tensor seen.

        Returns a map parameter -> array of the parameter's shape. Tensors
        in `wrt` always get an entry (zeros when the loss does not depend
        on them). A tape can be consumed exactly once; it drops each record
        as it replays it, so a consumed tape holds no intermediate values.
        A wrong piece count raises.
        """
        if self._consumed:
            raise RuntimeError("tape already consumed by a previous backward pass")
        if loss.shape != ():
            raise ValueError(f"loss must be scalar, got shape {loss.shape}")
        self._consumed = True
        grads: dict[Tensor, np.ndarray] = {loss: np.ones(())}
        while self._ops:
            out, inputs, backward = self._ops.pop()
            g = grads.pop(out, None)
            if g is None:
                continue
            for inp, piece in zip(inputs, backward(g), strict=True):
                if self.tracks(inp):
                    held = grads.get(inp)
                    grads[inp] = piece if held is None else held + piece
        result = {t: g for t, g in grads.items() if t.requires_grad}
        if wrt is not None:
            for t in wrt:
                result.setdefault(t, np.zeros(t.shape))
        return result
