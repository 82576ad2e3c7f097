"""Straightforward reference forms of the package's batched and cached paths.

The exact forms here (the tuple-per-row set-up of `ingest` and
`build_graph`, the per-entity successor lists and the COO-built
neighbor-mean operator of the graph, the set BFS of candidate selection,
the per-rating simulator fit, the `np.add.at` TransE scatter, the
`np.isin` catalog fallback, the per-op taped GCN propagation and GRU
fold, and the replay that keeps every candidate array) are what a faster
or smaller function in `kgrec` must reproduce bit for bit, on random
inputs and on whole training runs. The per-state forms of inference (a one-state GRU step,
the allocating scorer of one candidate set, the per-sample double-Q
rule, the epsilon-greedy pick and a per-user episode) are what the
batched inference path is held to within a tolerance, since stacked
gemms round differently from per-row ones.
The one-row and per-item forms state a batched computation for one
sample, so tests can check it against finite differences and
hand-derived equations. The rest are helpers only the tests call: the
taped sigmoid and tanh of the per-op GRU, a single action pick, the
simulator's batch MF loss and a curve CSV reader.
"""

import math

import numpy as np
import scipy.sparse as sparse

from kgrec.agent import CurvePoint, build_candidates, q_rows
from kgrec.autodiff import Tensor, sigmoid
from kgrec.encoder import padded_rows
from kgrec.experiments import CURVE_HEADER, Dataset
from kgrec.graph import CandidateSet, KnowledgeGraph, k_hop_sets, read_links
from kgrec.simulator import SimulatorModel, reset, step
from kgrec.textio import read_rows


def sigmoid_taped(tape, x):
    """Taped elementwise `kgrec.autodiff.sigmoid`."""
    out = sigmoid(x.data)
    return tape.emit("sigmoid", out, [(x, lambda g: g * out * (1.0 - out))])


def tanh_taped(tape, x):
    """Taped elementwise tanh."""
    out = np.tanh(x.data)
    return tape.emit("tanh", out, [(x, lambda g: g * (1.0 - out * out))])


def gru_step_rows(p, h_prev, items, tape):
    """One gated update of B session states (B, d) by B clicked-item rows,
    as 17 taped ops."""
    z = sigmoid_taped(tape, tape.add(tape.linear(items, p.w_update, p.b_update),
                                     tape.linear(h_prev, p.u_update)))
    r = sigmoid_taped(tape, tape.add(tape.linear(items, p.w_reset, p.b_reset),
                                     tape.linear(h_prev, p.u_reset)))
    h_cand = tanh_taped(tape, tape.add(tape.linear(items, p.w_cand, p.b_cand),
                                       tape.linear(tape.mul(r, h_prev), p.u_cand)))
    keep = tape.sub(Tensor(np.ones(z.shape)), z)  # 1 - z
    return tape.add(tape.mul(keep, h_prev), tape.mul(z, h_cand))


def encode_rows_taped(gru, item_matrix, row_of, histories, tape):
    """`kgrec.encoder.encode_rows` as 22 taped ops per step: a row gather,
    the masked input, `gru_step_rows` and the masked blend of old and new
    states."""
    dim = item_matrix.shape[1]
    h = Tensor(np.zeros((len(histories), dim)))
    rows, valid = padded_rows(row_of, histories)
    masks = np.repeat(valid[:, :, None].astype(np.float64), dim, axis=2)
    for t in range(len(rows)):
        items = tape.gather_rows(item_matrix, rows[t])
        keep, drop = Tensor(masks[t]), Tensor(1.0 - masks[t])
        items = tape.mul(items, keep)  # zero the padded rows' input
        step = gru_step_rows(gru, h, items, tape)
        h = tape.add(tape.mul(step, keep), tape.mul(h, drop))
    return h


def gru_step(p, h_prev, item_vec, tape):
    """`gru_step_rows` on one (d,) state and one (d,) item vector, taped."""
    d = h_prev.shape[0]
    row = gru_step_rows(p, tape.reshape(h_prev, (1, d)), tape.reshape(item_vec, (1, d)), tape)
    return tape.reshape(row, (d,))


def q_value(state_vec, item_vec, qnet, tape):
    """`q_rows` on one (state, item) pair: the taped scalar V + A."""
    q = q_rows(tape.reshape(state_vec, (1, -1)), tape.reshape(item_vec, (1, -1)), qnet, tape)
    return tape.reshape(q, ())


def matmul_const(tape, a_const, x):
    """Taped product by a constant matrix (an ndarray, a `kgrec.csr.CsrOperator`
    such as `KnowledgeGraph.mean_adjacency`, or a scipy.sparse matrix); no
    gradient into the constant."""
    out = a_const @ x.data
    at = a_const.T
    return tape.emit("matmul_const", np.asarray(out), [(x, lambda g: np.asarray(at @ g))])


def propagate_all_taped(g, base, gcn, tape):
    """`kgrec.encoder.propagate_all` as five taped ops per hop: the
    neighbor mean, two linear maps, their sum and the relu."""
    out = base
    for w, b in gcn.layers:
        nbr = matmul_const(tape, g.mean_adjacency, out)
        out = tape.relu(tape.add(tape.linear(nbr, w), tape.linear(out, b)))
    return out


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


def successors_loop(triples, n_entities):
    """Each entity's distinct tail entities, ascending, by one `np.unique`
    per entity over the head-sorted (head, relation, tail) rows."""
    triples = np.asarray(triples, dtype=np.int64)
    order = np.argsort(triples[:, 0], kind="stable")
    heads = triples[order, 0]
    tails = triples[order, 2]
    bounds = np.searchsorted(heads, np.arange(n_entities + 1))
    return [np.unique(tails[bounds[h]:bounds[h + 1]]) for h in range(n_entities)]


def mean_adjacency_coo(succ):
    """`KnowledgeGraph.mean_adjacency` built from COO lists of the
    `successors_loop` rows, each neighbor weighted 1 / degree."""
    rows, cols, vals = [], [], []
    for h, t in enumerate(succ):
        if t.size:
            rows.extend([h] * t.size)
            cols.extend(t.tolist())
            vals.extend([1.0 / t.size] * t.size)
    return sparse.csr_matrix((vals, (rows, cols)), shape=(len(succ), len(succ)))


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
    return CandidateSet(items=np.array([it for _, it in ranked], dtype=g.linked_items.dtype),
                        hops=np.array([h for h, _ in ranked], dtype=np.int64))


def _mlp_alloc(mlp, x):
    h = x @ mlp.w1.data.T + mlp.b1.data
    np.maximum(h, 0.0, out=h)
    return h @ mlp.w2.data.T + mlp.b2.data


def score_candidates_alloc(qnet, state_vec, cand_vecs, center=False):
    """Q of one state's candidate set (`kgrec.agent.score_candidates` for one
    state), with the advantage input built by tiling the state beside the
    candidates."""
    c = cand_vecs.shape[0]
    a = _mlp_alloc(qnet.advantage,
                   np.concatenate([np.tile(state_vec, (c, 1)), cand_vecs], axis=1))[:, 0]
    if qnet.value_input == "state":
        v = _mlp_alloc(qnet.value, state_vec[None, :])[0, 0]
        q = v + a
    else:
        q = _mlp_alloc(qnet.value, cand_vecs)[:, 0] + a
    if center:
        q = q - a.mean()
    return q


def gru_step_vec(gru, h, x):
    """The GRU update of one (d,) state by one (d,) item vector, as
    matrix-vector products."""
    z = sigmoid(gru.w_update.data @ x + gru.u_update.data @ h + gru.b_update.data)
    r = sigmoid(gru.w_reset.data @ x + gru.u_reset.data @ h + gru.b_reset.data)
    c = np.tanh(gru.w_cand.data @ x + gru.u_cand.data @ (r * h) + gru.b_cand.data)
    return (1.0 - z) * h + z * c


def fold_history_np(gru, matrix, rows):
    """GRU fold over item rows, one state step at a time, from the zero state."""
    h = np.zeros(gru.dim)
    for row in rows:
        h = gru_step_vec(gru, h, matrix[row])
    return h


def double_q_targets(rewards, terminals, online_q, target_q, gamma):
    """Double-Q targets: y = r + gamma * Q_target(argmax_online) per sample.

    online_q/target_q hold one aligned array per sample over that sample's
    next-candidate set; terminal samples use y = r. Argmax ties take the
    first (lowest-ranked) candidate.
    """
    y = np.empty(len(rewards), dtype=np.float64)
    for i, (r, done) in enumerate(zip(rewards, terminals)):
        if done:
            y[i] = r
        else:
            qo = np.asarray(online_q[i], dtype=np.float64)
            qt = np.asarray(target_q[i], dtype=np.float64)
            if qo.size == 0 or qo.shape != qt.shape:
                raise ValueError("non-terminal sample needs aligned non-empty candidate Q values")
            y[i] = r + gamma * qt[int(np.argmax(qo))]
    return y


def compute_targets_per_sample(batch, params, target_qnet, gamma, center=False):
    """`kgrec.agent.compute_targets` folding every history from the zero state
    and scoring each head with the allocating scorer."""
    matrix = params.item_matrix_data()
    online_q, target_q = [], []
    for e in batch:
        if e.terminal:
            online_q.append(np.empty(0))
            target_q.append(np.empty(0))
            continue
        if len(e.next_candidates) == 0:
            raise ValueError("non-terminal experience with no next candidates")
        h = fold_history_np(params.gru, matrix, params.source.rows(e.next_observation))
        vecs = matrix[params.source.rows(e.next_candidates)]
        online_q.append(score_candidates_alloc(params.qnet, h, vecs, center))
        target_q.append(score_candidates_alloc(target_qnet, h, vecs, center))
    return double_q_targets([e.reward for e in batch], [e.terminal for e in batch],
                            online_q, target_q, gamma)


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


def catalog_fallback_isin(items, recommended):
    """The catalog fallback of `kgrec.agent.build_candidates` as an `np.isin`
    mask over `items`."""
    return np.asarray(items, np.int64)[~np.isin(items, np.fromiter(recommended, np.int64))]


class ReplayBufferArrays:
    """`kgrec.agent.ReplayBuffer` keeping every transition as given, its
    catalog-fallback candidate sets as whole arrays; `add` takes the same
    arguments and ignores the fallback's catalog and shown ids."""

    def __init__(self, capacity):
        self.capacity = capacity
        self._items = []
        self._cursor = 0

    def add(self, exp, catalog=None, recommended=()):
        if len(self._items) < self.capacity:
            self._items.append(exp)
        else:
            self._items[self._cursor] = exp
            self._cursor = (self._cursor + 1) % self.capacity

    def sample(self, batch_size, rng):
        k = min(batch_size, len(self._items))
        idx = rng.choice(len(self._items), size=k, replace=False)
        return [self._items[i] for i in idx]

    def __len__(self):
        return len(self._items)


def epsilon_greedy(items, q_values, epsilon, rng):
    """Greedy with ties broken by lowest item id; explore uniformly w.p. epsilon."""
    if len(items) == 0:
        raise ValueError("empty candidate set")
    if epsilon > 0.0:
        if rng is None:
            raise ValueError("epsilon > 0 requires an rng")
        if rng.random() < epsilon:
            return int(items[rng.integers(len(items))])
    return int(np.asarray(items)[q_values == q_values.max()].min())


def select_action(params, state_hidden, candidates, epsilon, rng, center=False):
    """One epsilon-greedy pick for a given state, with the per-state scorer."""
    vecs = params.item_matrix_data()[params.source.rows(candidates)]
    return epsilon_greedy(candidates, score_candidates_alloc(params.qnet, state_hidden, vecs,
                                                             center), epsilon, rng)


def episode_per_state(params, env, graph, cfg, user, epsilon=0.0, rng=None):
    """One episode of `user` with the per-state forms: a one-state GRU step on
    each hit, the allocating scorer over each candidate set and an
    epsilon-greedy pick, which draws as the package's episode loop does.
    Returns the step records and, per pick, the gap between the two best Q
    values (inf for a single candidate)."""
    matrix = params.item_matrix_data()
    hidden = np.zeros(cfg.embedding_dim)
    state = reset(env.model, int(user), env.popularity)
    gaps = []
    while True:
        record = state.records[-1]
        if record.hit:
            hidden = gru_step_vec(params.gru, hidden, matrix[params.source.rows([record.item])[0]])
        if state.done:
            return state.records, gaps
        candidates, _ = build_candidates(env, graph, cfg, state.clicked, state.recommended)
        q = score_candidates_alloc(params.qnet, hidden, matrix[params.source.rows(candidates)],
                                   cfg.advantage_center)
        top = np.sort(q)[::-1]
        gaps.append(top[0] - top[1] if len(q) > 1 else np.inf)
        step(state, env.model, epsilon_greedy(candidates, q, epsilon, rng))


def fit_mf_loop(users, items, ratings, n_users, n_items, dim=20, epochs=50,
                learning_rate=0.01, reg=0.02, seed=0, rating_min=None, rating_max=None,
                hit_threshold=None, eta=0.1, horizon=32):
    """`kgrec.simulator.fit_mf` as one scalar SGD step per rating, in the
    order of each epoch's permutation, without argument checks."""
    users = np.asarray(users, dtype=np.int64)
    items = np.asarray(items, dtype=np.int64)
    ratings = np.asarray(ratings, dtype=np.float64)
    rng = np.random.default_rng(seed)
    p = rng.normal(0.0, 0.1, size=(n_users, dim))
    q = rng.normal(0.0, 0.1, size=(n_items, dim))
    bu = np.zeros(n_users)
    bi = np.zeros(n_items)
    mu = float(ratings.mean())
    lr = learning_rate
    for _ in range(epochs):
        for k in rng.permutation(users.size):
            u, i, r = users[k], items[k], ratings[k]
            err = mu + bu[u] + bi[i] + p[u] @ q[i] - r
            pu = p[u].copy()
            p[u] -= lr * (err * q[i] + reg * p[u])
            q[i] -= lr * (err * pu + reg * q[i])
            bu[u] -= lr * (err + reg * bu[u])
            bi[i] -= lr * (err + reg * bi[i])
    pred = mu + bu[users] + bi[items] + np.einsum("ij,ij->i", p[users], q[items])
    rmse = float(np.sqrt(((pred - ratings) ** 2).mean()))
    lo = float(ratings.min()) if rating_min is None else float(rating_min)
    hi = float(ratings.max()) if rating_max is None else float(rating_max)
    thr = 0.5 * (lo + hi) if hit_threshold is None else float(hit_threshold)
    return SimulatorModel(user_factors=p, item_factors=q, user_bias=bu, item_bias=bi,
                          global_mean=mu, rating_min=lo, rating_max=hi, hit_threshold=thr,
                          eta=eta, horizon=horizon, train_rmse=rmse)


def mf_loss_and_grads(user_factors, item_factors, user_bias, item_bias, global_mean,
                      users, items, ratings, reg):
    """Mean squared error of the biased-MF simulator with L2 penalty, and its
    gradients; the simulator itself fits by per-rating SGD.

    The penalty applies to the factor rows and biases of the observed
    pairs, weighted per observation as in the update rule.
    """
    users = np.asarray(users, dtype=np.int64)
    items = np.asarray(items, dtype=np.int64)
    ratings = np.asarray(ratings, dtype=np.float64)
    n = users.shape[0]
    pred = (global_mean + user_bias[users] + item_bias[items]
            + np.einsum("ij,ij->i", user_factors[users], item_factors[items]))
    err = pred - ratings
    p = user_factors[users]
    q = item_factors[items]
    loss = float((err**2).mean()
                 + reg * ((p * p).sum() + (q * q).sum()
                          + (user_bias[users]**2).sum() + (item_bias[items]**2).sum()) / n)
    du = np.zeros_like(user_factors)
    di = np.zeros_like(item_factors)
    dbu = np.zeros_like(user_bias)
    dbi = np.zeros_like(item_bias)
    w = 2.0 / n
    np.add.at(du, users, w * (err[:, None] * q + reg * p))
    np.add.at(di, items, w * (err[:, None] * p + reg * q))
    np.add.at(dbu, users, w * (err + reg * user_bias[users]))
    np.add.at(dbi, items, w * (err + reg * item_bias[items]))
    return loss, du, di, dbu, dbi


def read_curve(path):
    """Parse a `curve.csv` written by `kgrec.experiments.curve_csv_text`."""
    rows = read_rows(path, ",", (5,), CURVE_HEADER, CURVE_HEADER)
    return [CurvePoint(interactions=int(inter), reward=float(reward),
                       precision=float(precision), recall=float(recall))
            for _, (inter, reward, precision, recall, _) in rows]


def ingest_rows(config):
    """`kgrec.experiments.ingest` over one tuple per rating: the rows sorted
    by (timestamp, line), the filter and the first-seen ids over tuples,
    and the graph from `build_graph_rows`."""
    rows = []
    what = "user<TAB>item<TAB>rating[<TAB>timestamp]"
    for lineno, parts in read_rows(config.ratings, "\t", (3, 4), what):
        try:
            rating = float(parts[2])
            stamp = float(parts[3]) if len(parts) == 4 else 0.0
        except ValueError:
            raise ValueError(f"{config.ratings}:{lineno}: non-numeric rating or timestamp") from None
        if not (math.isfinite(rating) and math.isfinite(stamp)):
            raise ValueError(f"{config.ratings}:{lineno}: non-finite rating or timestamp")
        rows.append((stamp, lineno, parts[0], parts[1], rating))
    if not rows:
        raise ValueError(f"{config.ratings}: no interactions")
    rows.sort(key=lambda row: (row[0], row[1]))

    if config.min_user_interactions > 0:
        counts = {}
        for _, _, user, _, _ in rows:
            counts[user] = counts.get(user, 0) + 1
        rows = [row for row in rows if counts[row[2]] >= config.min_user_interactions]
        if not rows:
            raise ValueError(f"min_user_interactions={config.min_user_interactions} "
                             "filtered out every user")

    user_ids, item_ids = {}, {}
    users, items, ratings = [], [], []
    for _, _, user, item, rating in rows:
        users.append(user_ids.setdefault(user, len(user_ids)))
        items.append(item_ids.setdefault(item, len(item_ids)))
        if config.binarize_threshold is not None:
            rating = 1.0 if rating >= config.binarize_threshold else 0.0
        ratings.append(rating)

    graph = None
    unlinked_count = len(item_ids)
    if config.triples and config.links:
        triples = [tuple(parts) for _, parts in
                   read_rows(config.triples, "\t", (3,), "head<TAB>relation<TAB>tail")]
        links = {item_ids[item]: ent for item, ent in read_links(config.links).items()
                 if item in item_ids}
        graph = build_graph_rows(triples, links)
        unlinked_count = len(item_ids) - len(links)
    return Dataset(users=np.asarray(users, dtype=np.int64),
                   items=np.asarray(items, dtype=np.int64),
                   ratings=np.asarray(ratings, dtype=np.float64),
                   n_users=len(user_ids), n_items=len(item_ids), graph=graph,
                   unlinked_count=unlinked_count,
                   user_tokens=list(user_ids), item_tokens=list(item_ids))


def build_graph_rows(triples, links):
    """`kgrec.graph.build_graph` over a list of id tuples, one per triple."""
    ent_ids, rel_ids = {}, {}
    rows = []
    for h, r, t in triples:
        for tok in (h, t):
            if tok not in ent_ids:
                ent_ids[tok] = len(ent_ids)
        if r not in rel_ids:
            rel_ids[r] = len(rel_ids)
        rows.append((ent_ids[h], rel_ids[r], ent_ids[t]))
    if not rows:
        raise ValueError("empty graph: no triples")
    item_to_entity = {}
    for item, ent_tok in links.items():
        if ent_tok not in ent_ids:
            raise ValueError(f"dangling link: item {item!r} names unknown entity {ent_tok!r}")
        item_to_entity[item] = ent_ids[ent_tok]
    return KnowledgeGraph(np.array(rows, dtype=np.int64), len(ent_ids), len(rel_ids),
                          item_to_entity,
                          entity_tokens=[str(t) for t in ent_ids],
                          relation_tokens=[str(t) for t in rel_ids])
