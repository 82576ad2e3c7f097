"""Straightforward reference forms of the package's batched and cached paths.

The cached forms here are what a faster function in `kgrec` must
reproduce bit for bit, on random inputs and on whole training runs. The
one-row and per-item forms state a batched computation for one sample,
so tests can check it against finite differences and hand-derived
equations.
"""

import numpy as np

from kgrec.agent import double_q_targets, gru_step_np, q_rows, score_candidates
from kgrec.encoder import gru_step_rows
from kgrec.graph import CandidateSet, k_hop_sets


def gru_step(p, h_prev, item_vec, tape):
    """`gru_step_rows` on one (d,) state and one (d,) item vector, taped."""
    d = h_prev.shape[0]
    row = gru_step_rows(p, tape.reshape(h_prev, (1, d)), tape.reshape(item_vec, (1, d)), tape)
    return tape.reshape(row, (d,))


def q_value(state_vec, item_vec, qnet, tape):
    """`q_rows` on one (state, item) pair: the taped scalar V + A."""
    q = q_rows(tape.reshape(state_vec, (1, -1)), tape.reshape(item_vec, (1, -1)), qnet, tape)
    return tape.reshape(q, ())


def item_embedding_np(g, item, gcn, base):
    """Final-hop GCN embedding of one item by unrolling its receptive field:
    relu(W mean(neighbors) + B self) per hop, a zero mean without neighbors."""
    memo = {}

    def emb(node, hop):
        if (node, hop) not in memo:
            if hop == 0:
                out = base[node]
            else:
                w, b = gcn.layers[hop - 1]
                nbr = g.neighbors(node)
                agg = (np.mean([emb(int(t), hop - 1) for t in nbr], axis=0) if nbr.size
                       else np.zeros(base.shape[1]))
                out = np.maximum(w.data @ agg + b.data @ emb(node, hop - 1), 0.0)
            memo[(node, hop)] = out
        return memo[(node, hop)]

    return emb(int(g.item_to_entity[item]), gcn.hops)


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


def transe_loss_and_grads_add_at(entities, relations, pos, neg, margin):
    """`kgrec.transe.transe_loss_and_grads` with one sequential `np.add.at`
    scatter per (index column, sign) of the positive and negative triples."""
    pos = np.asarray(pos, dtype=np.int64)
    neg = np.asarray(neg, dtype=np.int64)
    n = pos.shape[0]
    diff_p = entities[pos[:, 0]] + relations[pos[:, 1]] - entities[pos[:, 2]]
    diff_n = entities[neg[:, 0]] + relations[neg[:, 1]] - entities[neg[:, 2]]
    d_p = np.linalg.norm(diff_p, axis=1)
    d_n = np.linalg.norm(diff_n, axis=1)
    slack = margin + d_p - d_n
    active = slack > 0.0
    loss = float(np.where(active, slack, 0.0).mean())

    de = np.zeros_like(entities)
    dr = np.zeros_like(relations)
    up = diff_p / np.maximum(d_p, 1e-12)[:, None]
    un = diff_n / np.maximum(d_n, 1e-12)[:, None]
    w = active.astype(np.float64)[:, None] / n
    np.add.at(de, pos[:, 0], w * up)
    np.add.at(de, pos[:, 2], -w * up)
    np.add.at(dr, pos[:, 1], w * up)
    np.add.at(de, neg[:, 0], -w * un)
    np.add.at(de, neg[:, 2], w * un)
    np.add.at(dr, neg[:, 1], -w * un)
    return loss, de, dr
