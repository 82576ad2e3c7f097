"""Graph-convolutional item embeddings and the recurrent user-state network.

The GCN is one whole-graph propagation (propagate_all), recorded once per
parameter version and shared by inference and the TD loss. The GRU steps
batches of rows: taped (gru_step_rows, folded over click histories by
encode_rows) and plain numpy (gru_step_np, the same forward operations),
which inference uses to step all the states it holds at once, over the
padded history rows of padded_rows. The per-state forms the batched ones
are held to are in `tests/oracles.py`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import chain

import numpy as np

from .autodiff import Tape, Tensor, glorot_uniform, sigmoid
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
    zero aggregate for entities without successors.
    """
    out = base
    adj = g.mean_adjacency
    for w, b in gcn.layers:
        nbr = tape.matmul_const(adj, out)
        out = tape.relu(tape.add(tape.linear(nbr, w), tape.linear(out, b)))
    return out


def gru_step_rows(p: GruParameters, h_prev: Tensor, items: Tensor, tape: Tape) -> Tensor:
    """One gated update of B session states (B, d) by B clicked-item rows."""
    z = tape.sigmoid(tape.add(tape.linear(items, p.w_update, p.b_update),
                              tape.linear(h_prev, p.u_update)))
    r = tape.sigmoid(tape.add(tape.linear(items, p.w_reset, p.b_reset),
                              tape.linear(h_prev, p.u_reset)))
    h_cand = tape.tanh(tape.add(tape.linear(items, p.w_cand, p.b_cand),
                                tape.linear(tape.mul(r, h_prev), p.u_cand)))
    return tape.add(tape.mul(tape.scale(z, -1.0, 1.0), h_prev), tape.mul(z, h_cand))


def gru_step_np(p: GruParameters, h_prev: np.ndarray, items: np.ndarray) -> np.ndarray:
    """gru_step_rows without a tape: the same forward values, byte for byte."""
    z = sigmoid(items @ p.w_update.data.T + p.b_update.data + h_prev @ p.u_update.data.T)
    r = sigmoid(items @ p.w_reset.data.T + p.b_reset.data + h_prev @ p.u_reset.data.T)
    h_cand = np.tanh(items @ p.w_cand.data.T + p.b_cand.data + (r * h_prev) @ p.u_cand.data.T)
    return (1.0 - z) * h_prev + z * h_cand


def encode_rows(gru: GruParameters, item_matrix: Tensor, row_of: np.ndarray,
                histories: list[tuple], tape: Tape) -> Tensor:
    """Batched state encoding: (B, d) hidden rows for B histories.

    Histories are right-padded; padded steps keep the previous hidden
    value through masking, so results match per-history folding.
    """
    dim = item_matrix.shape[1]
    h = Tensor(np.zeros((len(histories), dim)))
    rows, valid = padded_rows(row_of, histories)
    masks = np.repeat(valid[:, :, None].astype(np.float64), dim, axis=2)
    for t in range(len(rows)):
        items = tape.gather_rows(item_matrix, rows[t])
        items = tape.mul_const(items, masks[t])  # zero the padded rows' input
        step = gru_step_rows(gru, h, items, tape)
        h = tape.add(tape.mul_const(step, masks[t]), tape.mul_const(h, 1.0 - masks[t]))
    return h


def padded_rows(row_of: np.ndarray, histories: list[tuple]) -> tuple[np.ndarray, np.ndarray]:
    """Right-padded (steps, B) matrix rows of B histories (row 0 in the
    padding) and the (steps, B) mask of the real steps."""
    lengths = np.fromiter(map(len, histories), np.int64, len(histories))
    valid = np.arange(lengths.max(initial=0))[:, None] < lengths
    rows = np.zeros(valid.shape, dtype=np.int64)
    rows.T[valid.T] = row_of[np.fromiter(chain.from_iterable(histories), np.int64,
                                         int(lengths.sum()))]
    return rows, valid
