"""Graph-convolutional item embeddings and the recurrent user-state network.

The GCN is one whole-graph propagation (propagate_all), recorded once per
parameter version and shared by inference and the TD loss. Each hop is one
tape record that keeps only its output and recomputes the neighbor mean in
its backward (gcn_hop). One GRU definition (gru_gates) steps batches of
rows: inference steps all the states it holds at once (gru_step_np), and
the TD loss folds the padded history rows of padded_rows as one tape
record with a hand-written BPTT (encode_rows); both backwards are
generators that do shared work once. The per-op taped hop and fold and
the per-state forms these are held to are in `tests/oracles.py`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import chain

import numpy as np

from .autodiff import Tape, Tensor, checked, glorot_uniform, scatter_rows, sigmoid
from .graph import KnowledgeGraph


@dataclass
class GcnParameters:
    """Per-hop (neighbor weight, self weight) pairs, outermost hop last."""

    layers: list[tuple[Tensor, Tensor]]

    @property
    def hops(self) -> int:
        return len(self.layers)

    @classmethod
    def init(cls, dim: int, hops: int, rng: np.random.Generator) -> "GcnParameters":
        layers = [(glorot_uniform(rng, dim, dim), glorot_uniform(rng, dim, dim))
                  for _ in range(hops)]
        return cls(layers=layers)

    def tensors(self) -> list[Tensor]:
        return [t for pair in self.layers for t in pair]


@dataclass
class GruParameters:
    """Gated recurrent cell weights; hidden size equals the input size."""

    w_update: Tensor
    u_update: Tensor
    b_update: Tensor
    w_reset: Tensor
    u_reset: Tensor
    b_reset: Tensor
    w_cand: Tensor
    u_cand: Tensor
    b_cand: Tensor

    @property
    def dim(self) -> int:
        return self.w_update.shape[0]

    @classmethod
    def init(cls, dim: int, rng: np.random.Generator) -> "GruParameters":
        def w():
            return glorot_uniform(rng, dim, dim)

        def b():
            return Tensor(np.zeros(dim), requires_grad=True)

        return cls(w_update=w(), u_update=w(), b_update=b(),
                   w_reset=w(), u_reset=w(), b_reset=b(),
                   w_cand=w(), u_cand=w(), b_cand=b())

    def tensors(self) -> list[Tensor]:
        return [getattr(self, f.name) for f in fields(self)]


def propagate_all(g: KnowledgeGraph, base: Tensor, gcn: GcnParameters, tape: Tape) -> Tensor:
    """Final-hop embeddings for every entity at once.

    Each hop applies relu(neighbor-mean @ W.T + previous @ B.T), with a
    zero aggregate for entities without successors, and is taped as one
    record that keeps only the hop's output (gcn_hop).
    """
    out = base
    for w, b in gcn.layers:
        out = gcn_hop(g.mean_adjacency, out, w, b, tape)
    return out


def gcn_hop(adj, x: Tensor, w: Tensor, b: Tensor, tape: Tape) -> Tensor:
    """relu(adj @ x @ W.T + x @ B.T) as one tape record holding only its output.

    The forward runs and checks what the per-op taped hop in `tests/oracles.py`
    does. The backward forms gs, the output gradient times the relu mask
    (out > 0), once, and yields the input's piece with its two terms added as
    that tape does, gs @ B + adj.T @ (gs @ W), then W's and B's, recomputing
    adj @ x. A hop's input feeds only the hop, so nothing lands between the
    terms and the bytes match.
    """
    xd, wd, bd = x.data, w.data, b.data
    nbr = checked("gcn_hop", adj @ xd)
    out = checked("gcn_hop", checked("gcn_hop", nbr @ wd.T) + checked("gcn_hop", xd @ bd.T))
    out = np.where(out > 0.0, out, 0.0)

    def backward(g):
        gs = g * (out > 0.0)
        yield gs @ bd + adj.T @ (gs @ wd)
        yield gs.T @ (adj @ xd)
        yield gs.T @ xd

    return tape.emit("gcn_hop", out, (x, w, b), backward)


def gru_gates(p: GruParameters, h: np.ndarray, x: np.ndarray):
    """One gated update of B states h (B, d) by B item rows x (B, d): the new
    states (1 - z) * h + z * cand, the pre-activation sums x @ W.T + b +
    h @ U.T of z, r and cand (cand's over r * h), and the gates (z, r, cand),
    in the operation order of the per-op taped GRU in `tests/oracles.py`."""
    pre_z = x @ p.w_update.data.T + p.b_update.data + h @ p.u_update.data.T
    pre_r = x @ p.w_reset.data.T + p.b_reset.data + h @ p.u_reset.data.T
    z, r = sigmoid(pre_z), sigmoid(pre_r)
    pre_c = x @ p.w_cand.data.T + p.b_cand.data + (r * h) @ p.u_cand.data.T
    cand = np.tanh(pre_c)
    return (1.0 - z) * h + z * cand, (pre_z, pre_r, pre_c), (z, r, cand)


def gru_step_np(p: GruParameters, h_prev: np.ndarray, items: np.ndarray) -> np.ndarray:
    """The new states of gru_gates."""
    return gru_gates(p, h_prev, items)[0]


def encode_rows(gru: GruParameters, item_matrix: Tensor, row_of: np.ndarray,
                histories: list[tuple], tape: Tape) -> Tensor:
    """(B, d) hidden rows for B histories, taped as one record.

    Histories are right-padded; a padded step zeroes its input row and keeps
    the previous hidden value through masking. The backward is a BPTT that
    adds every gradient in the order of the per-op taped fold in
    `tests/oracles.py`, so the bytes match: steps in reverse; the hidden
    gradient as the (1 - mask), 1 - z and r terms, @ u_reset, @ u_update; the
    input's as @ w_cand, @ w_reset, @ w_update; parameters step T first. The
    record lists the GRU parameters, then a tracked item matrix once per step,
    T first; each step's dense scatter is built only when the tape asks.
    """
    rows, valid = padded_rows(row_of, histories)
    h = np.zeros((len(histories), item_matrix.shape[1]))
    if not len(rows):
        return Tensor(h)
    matrix = item_matrix.data
    saved = []
    for keep, step_rows in zip(valid, rows):
        mask = keep[:, None].astype(np.float64)
        x = matrix[step_rows] * mask
        step, pre, gates = gru_gates(gru, h, x)
        for value in pre:
            checked("encode_rows", value)
        saved.append((h, x, mask, gates))
        h = checked("encode_rows", step * mask + h * (1.0 - mask))

    w_u, u_u, _, w_r, u_r, _, w_c, u_c, _ = (t.data for t in gru.tensors())
    want_items = tape.tracks(item_matrix)

    def backward(g):
        grads, step_grads = None, []
        while saved:
            h, x, mask, (z, r, cand) = saved.pop()
            gs = g * mask
            g_z = gs * cand - gs * h
            g_c = gs * z * (1.0 - cand * cand)
            g_rh = g_c @ u_c
            g_r = g_rh * h * r * (1.0 - r)
            g_z = g_z * z * (1.0 - z)
            g = g * (1.0 - mask) + gs * (1.0 - z) + g_rh * r + g_r @ u_r + g_z @ u_u
            pieces = (g_z.T @ x, g_z.T @ h, g_z.sum(axis=0), g_r.T @ x, g_r.T @ h,
                      g_r.sum(axis=0), g_c.T @ x, g_c.T @ (r * h), g_c.sum(axis=0))
            if grads:
                for held, piece in zip(grads, pieces):
                    held += piece
            else:
                grads = pieces
            if want_items:
                step_grads.append((g_c @ w_c + g_r @ w_r + g_z @ w_u) * mask)
        yield from grads
        for step_rows, step_grad in zip(rows[::-1], step_grads):
            yield scatter_rows(matrix, step_rows, step_grad)

    inputs = gru.tensors() + [item_matrix] * len(rows) if want_items else gru.tensors()
    return tape.emit("encode_rows", h, inputs, backward)


def item_rows(row_of: np.ndarray, items) -> np.ndarray:
    """The matrix rows of item ids, row_of[item] (-1 for an item without one);
    an id outside the map or mapped to -1 raises KeyError naming it."""
    items = np.asarray(items, dtype=np.int64)
    # viewed unsigned, a negative id lies past the map's end too
    if not items.size or items.view(np.uint64).max() < len(row_of):
        rows = row_of[items]
        if not rows.size or rows.min() >= 0:
            return rows
    missing = next(i for i in items.ravel().tolist() if not 0 <= i < len(row_of) or row_of[i] < 0)
    raise KeyError(f"item {missing} has no embedding row")


def padded_rows(row_of: np.ndarray, histories: list[tuple]) -> tuple[np.ndarray, np.ndarray]:
    """Right-padded (steps, B) item_rows of B histories (row 0 in the
    padding) and the (steps, B) mask of the real steps."""
    lengths = np.fromiter(map(len, histories), np.int64, len(histories))
    valid = np.arange(lengths.max(initial=0))[:, None] < lengths
    rows = np.zeros(valid.shape, dtype=np.int64)
    rows.T[valid.T] = item_rows(row_of, np.fromiter(chain.from_iterable(histories), np.int64,
                                                    int(lengths.sum())))
    return rows, valid
