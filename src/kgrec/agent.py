"""Dueling double-DQN agent over graph-aware item and state encodings.

The TD loss is taped and batched over rows (encode_rows, q_rows). Action
selection, target computation and evaluation run plain-numpy forward
passes of the same parameters (gru_step_np, score_candidates); the tests
hold them equal to the taped forms.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, asdict
from typing import Sequence

import numpy as np

from .autodiff import Tape, Tensor, glorot_uniform, sigmoid
from .encoder import GcnParameters, GruParameters, encode_rows, propagate_all
from .graph import KnowledgeGraph, candidate_items
from .optim import AdamState, adam_step
from .simulator import SimulatorModel, fit_mf, preference_counts, reset, step
from .textio import atomic_open
from .transe import TranseConfig, transe_pretrain


@dataclass
class Mlp:
    """Two fully-connected layers with a relu in between."""

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor

    @classmethod
    def init(cls, in_dim: int, hidden: int, rng: np.random.Generator) -> "Mlp":
        return cls(w1=glorot_uniform(rng, hidden, in_dim),
                   b1=Tensor(np.zeros(hidden), requires_grad=True),
                   w2=glorot_uniform(rng, 1, hidden),
                   b2=Tensor(np.zeros(1), requires_grad=True))

    def apply(self, x: Tensor, tape: Tape) -> Tensor:
        return tape.linear(tape.relu(tape.linear(x, self.w1, self.b1)), self.w2, self.b2)

    def forward_np(self, x: np.ndarray) -> np.ndarray:
        h = x @ self.w1.data.T + self.b1.data
        np.maximum(h, 0.0, out=h)
        return h @ self.w2.data.T + self.b2.data

    def tensors(self) -> list[Tensor]:
        return [self.w1, self.b1, self.w2, self.b2]

    def clone(self) -> "Mlp":
        return Mlp(*(Tensor(t.data.copy()) for t in self.tensors()))


@dataclass
class QNetParameters:
    """Dueling heads: Q(s, i) = V(input per value_input) + A(s || i)."""

    value: Mlp
    advantage: Mlp
    value_input: str = "state"

    def tensors(self) -> list[Tensor]:
        return self.value.tensors() + self.advantage.tensors()

    def clone(self) -> "QNetParameters":
        return QNetParameters(self.value.clone(), self.advantage.clone(), self.value_input)


@dataclass
class EmbeddingSource:
    """Item representation: a base table, optionally propagated over a graph.

    row_of_item maps raw item ids to rows of the (propagated) matrix;
    -1 marks items without a representation.
    """

    base: Tensor
    row_of_item: np.ndarray
    graph: KnowledgeGraph | None = None
    gcn: GcnParameters | None = None

    def matrix(self, tape: Tape) -> Tensor:
        if self.gcn is not None:
            if self.graph is None:
                raise ValueError("graph propagation requested without a graph")
            return propagate_all(self.graph, self.base, self.gcn, tape)
        return self.base

    def rows(self, items) -> np.ndarray:
        items = np.asarray(items, dtype=np.int64)
        rows = self.row_of_item[items]
        if rows.size and rows.min() < 0:
            missing = items[rows < 0][0]
            raise KeyError(f"item {int(missing)} has no embedding row")
        return rows

    def tensors(self) -> list[Tensor]:
        out = [self.base] if self.base.requires_grad else []
        if self.gcn is not None:
            out.extend(self.gcn.tensors())
        return out


@dataclass
class AgentParameters:
    source: EmbeddingSource
    gru: GruParameters
    qnet: QNetParameters
    version: int = 0
    _matrix_cache: tuple[int, np.ndarray] | None = field(default=None, repr=False, compare=False)

    def trainable(self) -> list[Tensor]:
        return self.source.tensors() + self.gru.tensors() + self.qnet.tensors()

    def item_matrix_data(self) -> np.ndarray:
        """Propagated item matrix for inference, cached per parameter version."""
        if self._matrix_cache is None or self._matrix_cache[0] != self.version:
            self._matrix_cache = (self.version, self.source.matrix(Tape()).data)
        return self._matrix_cache[1]


@dataclass(frozen=True)
class Experience:
    """One stored transition, including the follow-up candidate snapshot."""

    observation: tuple
    action: int
    reward: float
    next_observation: tuple
    next_candidates: tuple
    terminal: bool


class ReplayBuffer:
    """Fixed-capacity ring; sampling is uniform without replacement."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._items: list[Experience] = []
        self._cursor = 0

    def add(self, exp: Experience) -> None:
        if len(self._items) < self.capacity:
            self._items.append(exp)
        else:
            self._items[self._cursor] = exp
            self._cursor = (self._cursor + 1) % self.capacity

    def sample(self, batch_size: int, rng: np.random.Generator) -> list[Experience]:
        if not self._items:
            raise ValueError("cannot sample from an empty buffer")
        k = min(batch_size, len(self._items))
        idx = rng.choice(len(self._items), size=k, replace=False)
        return [self._items[i] for i in idx]

    def __len__(self) -> int:
        return len(self._items)


@dataclass
class TrainSettings:
    """The training keys a config file shares with TrainConfig, each declared
    here once with its default; flag combinations follow the ablation lattice."""

    gamma: float = 0.99
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    epsilon_decay_fraction: float = 0.2
    tau: float = 0.01
    batch_size: int = 128
    buffer_capacity: int = 10_000
    learning_rate: float = 1e-3
    hops: int = 2
    horizon: int = 32
    embedding_dim: int = 50
    hidden_width: int = 64
    updates_per_episode: int = 1
    value_input: str = "state"
    advantage_center: bool = False
    kg_embeddings: bool = True
    gcn_propagation: bool = True
    candidate_selection: bool = True
    eval_every: int = 1000
    eval_gamma: float | None = None
    transe_epochs: int = 100
    transe_margin: float = 1.0
    transe_negatives: int = 1
    transe_lr: float = 1e-3
    init_mf_epochs: int = 50
    init_mf_lr: float = 0.01
    init_mf_reg: float = 0.02


@dataclass
class TrainConfig(TrainSettings):
    """Agent and schedule knobs: the shared settings plus the parsed
    candidate size and the interaction budget."""

    candidate_size: int | None = 1000
    interaction_budget: int = 10_000

    def validate(self) -> None:
        if self.value_input not in ("state", "item"):
            raise ValueError(f"value_input must be 'state' or 'item', got {self.value_input!r}")
        if self.gcn_propagation and not self.kg_embeddings:
            raise ValueError("gcn_propagation requires kg_embeddings")
        if self.candidate_selection and not self.gcn_propagation:
            raise ValueError("candidate_selection requires gcn_propagation (ablation lattice)")
        if not 0.0 <= self.epsilon_end <= self.epsilon_start <= 1.0:
            raise ValueError("epsilon schedule must satisfy 0 <= end <= start <= 1")
        if self.candidate_size is not None and self.candidate_size < 1:
            raise ValueError("candidate_size must be positive or None")
        for name in ("horizon", "hops", "batch_size", "embedding_dim", "hidden_width",
                     "buffer_capacity", "interaction_budget", "eval_every"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("updates_per_episode", "init_mf_epochs"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        for name in ("learning_rate", "init_mf_lr", "init_mf_reg"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        for name in ("gamma", "eval_gamma", "tau"):
            value = getattr(self, name)
            if value is not None and not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        self.transe_config().validate()

    def transe_config(self) -> TranseConfig:
        """The KG pretraining settings: `dim` is embedding_dim, `learning_rate`
        is transe_lr, and each other field is the transe_ field of its name."""
        return TranseConfig(dim=self.embedding_dim, margin=self.transe_margin,
                            negatives=self.transe_negatives, epochs=self.transe_epochs,
                            learning_rate=self.transe_lr)

    def resolved_eval_gamma(self) -> float:
        return self.gamma if self.eval_gamma is None else self.eval_gamma


VARIANTS = {
    "full": (True, True, True),
    "no-cs": (True, True, False),
    "frozen-emb": (True, False, False),
    "mf-base": (False, False, False),
}


def variant_flags(name: str) -> tuple[bool, bool, bool]:
    """(kg_embeddings, gcn_propagation, candidate_selection) for a named variant."""
    try:
        return VARIANTS[name]
    except KeyError:
        raise ValueError(f"unknown variant {name!r}; known: {sorted(VARIANTS)}") from None


@dataclass
class Environment:
    """The simulated interaction world the agent trains and evaluates in.

    `items` is the recommendable action universe; `catalog` (defaults to
    `items`) is the full item set the preference denominators count over,
    which may be wider when some items carry no graph link.
    """

    model: SimulatorModel
    popularity: np.ndarray
    train_users: np.ndarray
    test_users: np.ndarray
    items: np.ndarray
    train_interactions: tuple[np.ndarray, np.ndarray, np.ndarray]
    catalog: np.ndarray | None = None
    _pref_cache: np.ndarray | None = field(default=None, repr=False, compare=False)
    _item_ids: tuple[np.ndarray, tuple] | None = field(default=None, repr=False, compare=False)

    def test_preference_counts(self) -> np.ndarray:
        if self._pref_cache is None:
            universe = self.items if self.catalog is None else self.catalog
            self._pref_cache = preference_counts(self.model, self.test_users, universe)
        return self._pref_cache

    def item_ids(self) -> tuple:
        """`items` as Python ints, in order; built once per `items` array, so
        every catalog fallback (and the replay buffer) shares the same ints."""
        if self._item_ids is None or self._item_ids[0] is not self.items:
            self._item_ids = (self.items, tuple(int(i) for i in self.items))
        return self._item_ids[1]


# -- Q values ----------------------------------------------------------


def q_rows(states: Tensor, items: Tensor, qnet: QNetParameters, tape: Tape) -> Tensor:
    """Batched Q for row-aligned state/item matrices; returns shape (B,)."""
    vin = states if qnet.value_input == "state" else items
    v = qnet.value.apply(vin, tape)
    a = qnet.advantage.apply(tape.concat_cols(states, items), tape)
    return tape.reshape(tape.add(v, a), (states.shape[0],))


def score_candidates(qnet: QNetParameters, state_vec: np.ndarray, cand_vecs: np.ndarray,
                     center: bool = False) -> np.ndarray:
    """Inference-path Q over a candidate block for one state.

    With `center`, the mean advantage over the candidate set is subtracted
    (identifiability correction); the greedy argmax is unaffected.
    """
    c = cand_vecs.shape[0]
    a = qnet.advantage.forward_np(
        np.concatenate([np.tile(state_vec, (c, 1)), cand_vecs], axis=1))[:, 0]
    if qnet.value_input == "state":
        v = qnet.value.forward_np(state_vec[None, :])[0, 0]
        q = v + a
    else:
        q = qnet.value.forward_np(cand_vecs)[:, 0] + a
    if center:
        q = q - a.mean()
    return q


def epsilon_greedy(items: Sequence[int], q_values: np.ndarray, epsilon: float,
                   rng: np.random.Generator | None) -> int:
    """Greedy with ties broken by lowest item id; explore uniformly w.p. epsilon."""
    if len(items) == 0:
        raise ValueError("empty candidate set")
    if epsilon > 0.0:
        if rng is None:
            raise ValueError("epsilon > 0 requires an rng")
        if rng.random() < epsilon:
            return int(items[rng.integers(len(items))])
    ids = np.asarray(items)
    best = q_values == q_values.max()
    return int(ids[best].min())


def select_action(params: AgentParameters, state_hidden: np.ndarray, candidates: Sequence[int],
                  epsilon: float, rng: np.random.Generator | None,
                  center: bool = False) -> int:
    matrix = params.item_matrix_data()
    vecs = matrix[params.source.rows(candidates)]
    return epsilon_greedy(candidates, score_candidates(params.qnet, state_hidden, vecs, center),
                          epsilon, rng)


# -- targets and loss --------------------------------------------------


def double_q_targets(rewards, terminals, online_q, target_q, gamma: float) -> np.ndarray:
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


def gru_step_np(gru: GruParameters, h: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Inference-path GRU update of one state; gru_step_rows on one row gives
    the same values up to the order of the bias addition."""
    z = sigmoid(gru.w_update.data @ x + gru.u_update.data @ h + gru.b_update.data)
    r = sigmoid(gru.w_reset.data @ x + gru.u_reset.data @ h + gru.b_reset.data)
    c = np.tanh(gru.w_cand.data @ x + gru.u_cand.data @ (r * h) + gru.b_cand.data)
    return (1.0 - z) * h + z * c


def compute_targets(batch: Sequence[Experience], params: AgentParameters,
                    target_qnet: QNetParameters, gamma: float,
                    center: bool = False) -> np.ndarray:
    """Eq.-style double-Q targets for a replay batch; constants (no gradient).

    The parameters are fixed for the call, so histories that share a
    prefix share its GRU fold: `folded` maps each history prefix seen in
    this call to its state, and only the unseen suffix is stepped.
    """
    matrix = params.item_matrix_data()
    rewards = [e.reward for e in batch]
    terminals = [e.terminal for e in batch]
    online_q: list[np.ndarray] = []
    target_q: list[np.ndarray] = []
    folded: dict[tuple, np.ndarray] = {(): np.zeros(params.gru.dim)}
    for e in batch:
        if e.terminal:
            online_q.append(np.empty(0))
            target_q.append(np.empty(0))
            continue
        if not e.next_candidates:
            raise ValueError("non-terminal experience with no next candidates")
        history = tuple(e.next_observation)
        rows = params.source.rows(history)
        n = len(history)
        while history[:n] not in folded:
            n -= 1
        h = folded[history[:n]]
        for m in range(n, len(history)):
            h = gru_step_np(params.gru, h, matrix[rows[m]])
            folded[history[:m + 1]] = h
        vecs = matrix[params.source.rows(e.next_candidates)]
        online_q.append(score_candidates(params.qnet, h, vecs, center))
        target_q.append(score_candidates(target_qnet, h, vecs, center))
    return double_q_targets(rewards, terminals, online_q, target_q, gamma)


def td_loss(batch: Sequence[Experience], params: AgentParameters, targets: np.ndarray,
            tape: Tape) -> Tensor:
    """Mean squared TD error; `targets` enter as constants."""
    matrix = params.source.matrix(tape)
    states = encode_rows(params.gru, matrix, params.source.row_of_item,
                         [e.observation for e in batch], tape)
    item_rows = params.source.rows([e.action for e in batch])
    items = tape.gather_rows(matrix, item_rows)
    q = q_rows(states, items, params.qnet, tape)
    resid = tape.sub(q, Tensor(np.asarray(targets, dtype=np.float64)))
    return tape.mean(tape.mul(resid, resid))


def soft_update(online: QNetParameters, target: QNetParameters, tau: float) -> None:
    """Polyak blend of the target heads toward the online heads, in place."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must be in [0, 1], got {tau}")
    for po, pt in zip(online.tensors(), target.tensors()):
        pt.data = tau * po.data + (1.0 - tau) * pt.data


# -- interaction plumbing ----------------------------------------------


def build_candidates(env: Environment, graph: KnowledgeGraph | None, cfg: TrainConfig,
                     clicked: Sequence[int], recommended: set) -> tuple:
    """Candidate items for the next step; falls back to the unseen catalog.

    With candidate selection on and a non-empty click history, the k-hop
    linked-item set (minus already recommended) is used; when that comes
    back empty, or selection is off, every unseen catalog item is offered.
    """
    if cfg.candidate_selection and graph is not None and clicked:
        seeds = [graph.item_to_entity[i] for i in clicked]
        max_size = cfg.candidate_size if cfg.candidate_size is not None else len(env.items)
        cs = candidate_items(graph, seeds, cfg.hops, max_size, exclude=recommended)
        if cs:
            return cs.items
    return tuple(i for i in env.item_ids() if i not in recommended)


def epsilon_at(interactions: int, cfg: TrainConfig) -> float:
    """Linear decay from epsilon_start to epsilon_end over the first
    epsilon_decay_fraction of the interaction budget."""
    span = cfg.epsilon_decay_fraction * cfg.interaction_budget
    if span <= 0:
        return cfg.epsilon_end
    frac = min(1.0, interactions / span)
    return cfg.epsilon_start + frac * (cfg.epsilon_end - cfg.epsilon_start)


def initialize_parameters(env: Environment, graph: KnowledgeGraph | None, cfg: TrainConfig,
                          seed: int) -> tuple[AgentParameters, QNetParameters]:
    """Fresh parameters per the ablation flags; returns (online, target heads).

    Item representation comes from translational KG pretraining when
    kg_embeddings is set (trainable only together with gcn_propagation),
    otherwise from a matrix-factorization fit of the training interactions
    (always trainable).
    """
    cfg.validate()
    ss = np.random.SeedSequence([int(seed), 0x1A])
    s_net, s_pre = ss.spawn(2)
    rng = np.random.default_rng(s_net)
    d = cfg.embedding_dim
    n_slots = int(np.max(env.items)) + 1 if len(env.items) else 0

    if cfg.kg_embeddings:
        if graph is None:
            raise ValueError("kg_embeddings requires a graph")
        entities, _, _ = transe_pretrain(graph, cfg.transe_config(), s_pre)
        base = Tensor(entities, requires_grad=cfg.gcn_propagation)
        row_of = np.full(n_slots, -1, dtype=np.int64)
        for item, entity in graph.item_to_entity.items():
            if 0 <= int(item) < n_slots:
                row_of[int(item)] = entity
        if np.any(row_of[env.items] < 0):
            raise ValueError("action universe contains items without a KG link")
        gcn = GcnParameters.init(d, cfg.hops, rng) if cfg.gcn_propagation else None
        source = EmbeddingSource(base=base, row_of_item=row_of,
                                 graph=graph if gcn is not None else None, gcn=gcn)
    else:
        u, i, r = env.train_interactions
        # the simulator's scale: the train ratings alone may all be equal
        mf = fit_mf(u, i, r, n_users=env.model.n_users, n_items=n_slots, dim=d,
                    epochs=cfg.init_mf_epochs, learning_rate=cfg.init_mf_lr,
                    reg=cfg.init_mf_reg, seed=s_pre, rating_min=env.model.rating_min,
                    rating_max=env.model.rating_max)
        base = Tensor(mf.item_factors, requires_grad=True)
        source = EmbeddingSource(base=base, row_of_item=np.arange(n_slots), graph=None, gcn=None)

    qnet = QNetParameters(value=Mlp.init(d, cfg.hidden_width, rng),
                          advantage=Mlp.init(2 * d, cfg.hidden_width, rng),
                          value_input=cfg.value_input)
    params = AgentParameters(source=source, gru=GruParameters.init(d, rng), qnet=qnet)
    return params, qnet.clone()


def _fold_hit(params: AgentParameters, matrix: np.ndarray, hidden: np.ndarray,
              record) -> np.ndarray:
    """The session state after a step: one GRU step on its item on a hit."""
    if not record.hit:
        return hidden
    return gru_step_np(params.gru, hidden, matrix[params.source.rows([record.item])[0]])


def run_training_episode(params: AgentParameters, env: Environment,
                         graph: KnowledgeGraph | None, cfg: TrainConfig, user: int,
                         epsilon: float, rng: np.random.Generator,
                         buffer: ReplayBuffer) -> list:
    """One simulated episode; every transition (popularity step included)
    is stored with its follow-up candidate snapshot."""
    matrix = params.item_matrix_data()
    state = reset(env.model, int(user), env.popularity)
    first = state.records[0]
    hidden = _fold_hit(params, matrix, np.zeros(cfg.embedding_dim), first)
    candidates = () if state.done else build_candidates(env, graph, cfg, state.clicked,
                                                        state.recommended)
    buffer.add(Experience(observation=(), action=first.item, reward=first.reward,
                          next_observation=tuple(state.clicked), next_candidates=candidates,
                          terminal=state.done))
    while not state.done:
        obs = tuple(state.clicked)
        vecs = matrix[params.source.rows(candidates)]
        scores = score_candidates(params.qnet, hidden, vecs, cfg.advantage_center)
        item = epsilon_greedy(candidates, scores, epsilon, rng)
        reward, _ = step(state, env.model, item)
        hidden = _fold_hit(params, matrix, hidden, state.records[-1])
        next_candidates = () if state.done else build_candidates(env, graph, cfg, state.clicked,
                                                                 state.recommended)
        buffer.add(Experience(observation=obs, action=item, reward=reward,
                              next_observation=tuple(state.clicked),
                              next_candidates=next_candidates, terminal=state.done))
        candidates = next_candidates
    return state.records


def evaluate_policy(params: AgentParameters | None, env: Environment,
                    graph: KnowledgeGraph | None, cfg: TrainConfig,
                    mode: str = "greedy", rng: np.random.Generator | None = None) -> list:
    """Roll one episode per test user; returns the per-user episode logs.

    mode "greedy" follows the learned Q deterministically; mode "random"
    picks uniformly over the unseen catalog (no graph restriction).
    """
    if mode not in ("greedy", "random"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "random" and rng is None:
        raise ValueError("random mode requires an rng")
    logs = []
    matrix = params.item_matrix_data() if params is not None else None
    for user in env.test_users:
        state = reset(env.model, int(user), env.popularity)
        hidden = np.zeros(cfg.embedding_dim)
        if mode == "greedy":
            hidden = _fold_hit(params, matrix, hidden, state.records[0])
        while not state.done:
            if mode == "random":
                unseen = [i for i in env.item_ids() if i not in state.recommended]
                item = int(unseen[rng.integers(len(unseen))])
            else:
                candidates = build_candidates(env, graph, cfg, state.clicked, state.recommended)
                item = select_action(params, hidden, candidates, 0.0, None,
                                     cfg.advantage_center)
            step(state, env.model, item)
            if mode == "greedy":
                hidden = _fold_hit(params, matrix, hidden, state.records[-1])
        logs.append(state.records)
    return logs


@dataclass
class CurvePoint:
    interactions: int
    reward: float
    precision: float
    recall: float


def train(env: Environment, graph: KnowledgeGraph | None, cfg: TrainConfig,
          seed: int) -> tuple[AgentParameters, QNetParameters, list[CurvePoint]]:
    """Interactive training over the train-user pool until the budget runs out.

    Per episode: act epsilon-greedily over the candidate sets, store every
    transition, then take `updates_per_episode` optimizer steps on sampled
    batches (double-Q targets, mean squared TD error, Adam over the state
    network, Q heads and trainable embeddings) and soft-update the target
    heads. Greedy evaluations on the held-out users are emitted as the
    learning curve at the configured cadence. An exhausted budget finishes
    the running episode, then halts.
    """
    from .metrics import average_reward, precision_at_horizon, recall_at_horizon

    cfg.validate()
    if env.model.horizon != cfg.horizon:
        raise ValueError(f"config horizon {cfg.horizon} != simulator horizon {env.model.horizon}")
    if len(env.items) < cfg.horizon:
        raise ValueError(f"need at least horizon={cfg.horizon} items, got {len(env.items)}")
    ss = np.random.SeedSequence([int(seed), 0x5EED])
    s_init, s_loop = ss.spawn(2)
    rng_loop = np.random.default_rng(s_loop)
    params, target = initialize_parameters(env, graph, cfg, int(s_init.generate_state(1)[0]))
    buffer = ReplayBuffer(cfg.buffer_capacity)
    adam = AdamState(learning_rate=cfg.learning_rate)
    trainable = params.trainable()
    eval_gamma = cfg.resolved_eval_gamma()
    pref = env.test_preference_counts()

    def emit(interactions: int) -> CurvePoint:
        logs = evaluate_policy(params, env, graph, cfg, mode="greedy")
        return CurvePoint(interactions=interactions,
                          reward=average_reward(logs, eval_gamma),
                          precision=precision_at_horizon(logs),
                          recall=recall_at_horizon(logs, pref))

    curve = [emit(0)]
    next_eval = cfg.eval_every
    interactions = 0
    if len(env.train_users) == 0:
        return params, target, curve
    while interactions < cfg.interaction_budget:
        for user in rng_loop.permutation(env.train_users):
            epsilon = epsilon_at(interactions, cfg)
            run_training_episode(params, env, graph, cfg, int(user), epsilon, rng_loop, buffer)
            interactions += cfg.horizon
            for _ in range(cfg.updates_per_episode):
                batch = buffer.sample(cfg.batch_size, rng_loop)
                targets = compute_targets(batch, params, target, cfg.gamma,
                                          cfg.advantage_center)
                tape = Tape()
                loss = td_loss(batch, params, targets, tape)
                grads = tape.backward(loss, wrt=trainable)
                adam_step(trainable, grads, adam)
                params.version += 1
            soft_update(params.qnet, target, cfg.tau)
            if interactions >= next_eval:
                curve.append(emit(interactions))
                next_eval = (interactions // cfg.eval_every + 1) * cfg.eval_every
            if interactions >= cfg.interaction_budget:
                break
    if curve[-1].interactions != interactions:
        curve.append(emit(interactions))
    return params, target, curve


# -- checkpoints --------------------------------------------------------


def save_checkpoint(path: str, params: AgentParameters, target: QNetParameters,
                    cfg: TrainConfig, config_hash: str = "", interactions: int = 0) -> None:
    """Atomic full-state snapshot; greedy behavior round-trips bit-exactly."""
    arrays: dict[str, np.ndarray] = {
        "base": params.source.base.data,
        "row_of_item": params.source.row_of_item,
    }
    if params.source.gcn is not None:
        for k, (w, b) in enumerate(params.source.gcn.layers):
            arrays[f"gcn_w{k}"] = w.data
            arrays[f"gcn_b{k}"] = b.data
    for name, tensor in zip(_GRU_FIELDS, params.gru.tensors()):
        arrays[f"gru_{name}"] = tensor.data
    for prefix, net in (("q", params.qnet), ("t", target)):
        for name, tensor in zip(_HEAD_FIELDS, net.tensors()):
            arrays[f"{prefix}_{name}"] = tensor.data
    meta = {
        "config": asdict(cfg),
        "config_hash": config_hash,
        "interactions": interactions,
        "version": params.version,
        "gcn_layers": 0 if params.source.gcn is None else params.source.gcn.hops,
        "base_trainable": params.source.base.requires_grad,
    }
    arrays["meta"] = np.array(json.dumps(meta))
    with atomic_open(path, "wb") as fh:
        np.savez(fh, **arrays)


_GRU_FIELDS = tuple(f.name for f in fields(GruParameters))
_HEAD_FIELDS = ("vw1", "vb1", "vw2", "vb2", "aw1", "ab1", "aw2", "ab2")


def load_checkpoint(path: str, graph: KnowledgeGraph | None = None):
    """Restore (params, target, cfg, meta) saved by save_checkpoint.

    meta carries config_hash, interactions and version."""
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(str(data["meta"]))
        cfg = TrainConfig(**meta["config"])
        base = Tensor(data["base"], requires_grad=bool(meta["base_trainable"]))
        gcn = None
        if meta["gcn_layers"]:
            if graph is None:
                raise ValueError("checkpoint uses graph propagation; pass the graph")
            layers = [(Tensor(data[f"gcn_w{k}"], requires_grad=True),
                       Tensor(data[f"gcn_b{k}"], requires_grad=True))
                      for k in range(meta["gcn_layers"])]
            gcn = GcnParameters(layers=layers)
        source = EmbeddingSource(base=base, row_of_item=data["row_of_item"].copy(),
                                 graph=graph if gcn is not None else None, gcn=gcn)
        gru = GruParameters(*(Tensor(data[f"gru_{name}"], requires_grad=True)
                              for name in _GRU_FIELDS))

        def heads(prefix: str, trainable: bool) -> QNetParameters:
            ts = [Tensor(data[f"{prefix}_{n}"], requires_grad=trainable) for n in _HEAD_FIELDS]
            return QNetParameters(value=Mlp(*ts[:4]), advantage=Mlp(*ts[4:]),
                                  value_input=cfg.value_input)

        params = AgentParameters(source=source, gru=gru, qnet=heads("q", True),
                                 version=int(meta["version"]))
        return params, heads("t", False), cfg, meta
