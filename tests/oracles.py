"""Straightforward reference forms of the package's cached fast paths.

Each function here is the plain implementation that a faster one in
`kgrec` must reproduce bit for bit: the tests compare the two on random
inputs and on whole training runs.
"""

import numpy as np

from kgrec.agent import double_q_targets, gru_step_np, score_candidates
from kgrec.graph import CandidateSet, k_hop_sets


def candidate_items_bfs(g, seeds, k, max_size, exclude=()):
    """`kgrec.graph.candidate_items` as a fresh set BFS from the seeds."""
    if max_size < 1:
        raise ValueError(f"candidate_items: max_size must be >= 1, got {max_size}")
    seeds = set(seeds)
    layers = k_hop_sets(g, seeds, k)
    excluded = set(exclude)
    first_hop = {}
    for hop, layer in enumerate(layers, start=1):
        for ent in layer:
            if ent not in first_hop:
                first_hop[ent] = hop
    ranked = []
    for ent, hop in first_hop.items():
        item = g.entity_to_item.get(ent)
        if item is not None and item not in excluded:
            ranked.append((hop, item))
    ranked.sort()
    ranked = ranked[:max_size]
    return CandidateSet(items=tuple(it for _, it in ranked),
                        hops=tuple(h for h, _ in ranked),
                        seeds=frozenset(seeds))


def fold_history_np(gru, matrix, rows):
    """Inference-path GRU fold over item rows, from the zero state."""
    h = np.zeros(gru.dim)
    for row in rows:
        h = gru_step_np(gru, h, matrix[row])
    return h


def compute_targets_per_sample(batch, params, target_qnet, gamma, center=False):
    """`kgrec.agent.compute_targets` folding every history from the zero state."""
    matrix = params.item_matrix_data()
    online_q, target_q = [], []
    for e in batch:
        if e.terminal:
            online_q.append(np.empty(0))
            target_q.append(np.empty(0))
            continue
        if not e.next_candidates:
            raise ValueError("non-terminal experience with no next candidates")
        h = fold_history_np(params.gru, matrix, params.source.rows(e.next_observation))
        vecs = matrix[params.source.rows(e.next_candidates)]
        online_q.append(score_candidates(params.qnet, h, vecs, center))
        target_q.append(score_candidates(target_qnet, h, vecs, center))
    return double_q_targets([e.reward for e in batch], [e.terminal for e in batch],
                            online_q, target_q, gamma)


def sigmoid_masked(x):
    """Logistic function evaluated separately on each sign of x."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out
