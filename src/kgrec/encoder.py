"""Graph-convolutional item embeddings and the recurrent user-state network.

The GCN is one whole-graph propagation (propagate_all), used by training
and, untaped, by inference. The taped GRU steps batches of rows
(gru_step_rows), folded over click histories by encode_rows. Inference,
in the episode loop and the double-Q targets, steps one state at a time
(`agent.gru_step_np`) and scores int64 candidate-id arrays in a reused
`agent.ScoringWorkspace`. Reference forms are in `tests/oracles.py`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .autodiff import Tape, Tensor, glorot_uniform
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


def encode_rows(gru: GruParameters, item_matrix: Tensor, row_of: np.ndarray,
                histories: list[tuple], tape: Tape) -> Tensor:
    """Batched state encoding: (B, d) hidden rows for B histories.

    Histories are right-padded; padded steps keep the previous hidden
    value through masking, so results match per-history folding.
    """
    b = len(histories)
    dim = item_matrix.shape[1]
    h = Tensor(np.zeros((b, dim)))
    if b == 0:
        return h
    max_len = max((len(hs) for hs in histories), default=0)
    for t in range(max_len):
        rows = np.zeros(b, dtype=np.int64)
        mask = np.zeros((b, dim))
        for i, hs in enumerate(histories):
            if len(hs) > t:
                rows[i] = row_of[hs[t]]
                mask[i, :] = 1.0
        items = tape.gather_rows(item_matrix, rows)
        items = tape.mul_const(items, mask)  # zero the padded rows' input
        step = gru_step_rows(gru, h, items, tape)
        h = tape.add(tape.mul_const(step, mask), tape.mul_const(h, 1.0 - mask))
    return h
