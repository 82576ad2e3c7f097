"""Dueling double-DQN agent over graph-aware item and state encodings.

The TD loss is taped and batched over rows: the GRU fold over the
histories is one record (encode_rows), the Q heads one op each (q_rows). One
episode loop serves training (epsilon-greedy, storing transitions) and
evaluation (greedy, all test users in lockstep, or uniform random).
Inference is batched numpy over the same parameters: one GRU row step
(gru_step_np) for every state that moved, and one score_candidates call
for many states' candidate sets, adding each state's half of the first
advantage layer to the item half a QScorer holds per parameter version.
The double-Q targets fold a replay batch as one padded GRU fold; the
online heads score the candidate sets and the target heads only each
sample's online pick (the whole set when the advantage is centered).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, asdict, replace
from typing import Collection, Iterable, Iterator, Sequence

import numpy as np

from .autodiff import Tape, Tensor, glorot_uniform
from .encoder import (GcnParameters, GruParameters, encode_rows, gru_step_np, padded_rows,
                      propagate_all)
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
    # (version, tape, matrix tensor, matrix values, online QScorer) of one version
    _cache: tuple | None = field(default=None, repr=False, compare=False)

    def trainable(self) -> list[Tensor]:
        return self.source.tensors() + self.gru.tensors() + self.qnet.tensors()

    def item_matrix_data(self) -> np.ndarray:
        """Propagated item matrix for inference, cached per parameter version."""
        if self._cache is None or self._cache[0] != self.version:
            tape = Tape()
            matrix = self.source.matrix(tape)
            self._cache = (self.version, tape, matrix, matrix.data, QScorer(self.qnet, matrix.data))
        return self._cache[3]

    def item_matrix(self) -> tuple[Tape, Tensor, np.ndarray, "QScorer"]:
        """This version's propagated item matrix (its tape, tensor and values)
        and the online heads over it: one propagation per version serves
        inference and, continued on that tape by td_loss, the update."""
        self.item_matrix_data()
        return self._cache[1:]


@dataclass(frozen=True, eq=False)
class Experience:
    """One transition, including the follow-up candidate set (empty when
    terminal); compared and hashed by identity, since its fields hold an
    array."""

    observation: tuple
    action: int
    reward: float
    next_observation: tuple
    next_candidates: np.ndarray
    terminal: bool


class ReplayBuffer:
    """Fixed-capacity ring; sampling is uniform without replacement.

    A transition whose next candidates fell back to the unseen catalog is
    kept as the ids recommended before that step (at most the horizon) and
    the catalog; reads rebuild its set as unseen_items(catalog, those ids),
    so memory does not grow with the catalog. Graph candidate sets are kept
    as given.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        # a transition as given or, for a catalog fallback, (the transition
        # holding the recommended ids in its set's place, the catalog)
        self._items: list[Experience | tuple[Experience, np.ndarray]] = []
        self._cursor = 0

    def add(self, exp: Experience, catalog: np.ndarray | None = None,
            recommended: Collection[int] = ()) -> None:
        """Store `exp`. When its next candidates are the catalog fallback,
        pass the `catalog` and the `recommended` ids the set excludes: the
        ids are stored in the set's place."""
        entry = exp if catalog is None else (
            replace(exp, next_candidates=np.fromiter(recommended, np.int64, len(recommended))),
            catalog)
        if len(self._items) < self.capacity:
            self._items.append(entry)
        else:
            self._items[self._cursor] = entry
            self._cursor = (self._cursor + 1) % self.capacity

    def _read(self, i: int) -> Experience:
        entry = self._items[i]
        if isinstance(entry, Experience):
            return entry
        exp, catalog = entry
        return replace(exp, next_candidates=unseen_items(catalog, exp.next_candidates))

    def sample(self, batch_size: int, rng: np.random.Generator) -> list[Experience]:
        if not self._items:
            raise ValueError("cannot sample from an empty buffer")
        k = min(batch_size, len(self._items))
        idx = rng.choice(len(self._items), size=k, replace=False)
        return [self._read(i) for i in idx]

    def __iter__(self) -> Iterator[Experience]:
        """The stored transitions, oldest first."""
        order = range(self._cursor, self._cursor + len(self._items))
        return (self._read(i % len(self._items)) for i in order)

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

    def test_preference_counts(self) -> np.ndarray:
        if self._pref_cache is None:
            universe = self.items if self.catalog is None else self.catalog
            self._pref_cache = preference_counts(self.model, self.test_users, universe)
        return self._pref_cache


# -- Q values ----------------------------------------------------------


def q_rows(states: Tensor, items: Tensor, qnet: QNetParameters, tape: Tape) -> Tensor:
    """Batched Q for row-aligned state/item matrices; returns shape (B,)."""
    vin = states if qnet.value_input == "state" else items
    v = qnet.value.apply(vin, tape)
    a = qnet.advantage.apply(tape.concat_cols(states, items), tape)
    return tape.reshape(tape.add(v, a), (states.shape[0],))


SCORE_BLOCK = 1024  # most candidate rows one hidden-layer block holds


class QScorer:
    """Q heads over one item matrix, with the item half of the first advantage
    layer (bias included) and, for value_input "item", the value head
    applied to every row once; scoring adds only each state's half."""

    def __init__(self, qnet: QNetParameters, matrix: np.ndarray):
        dim = matrix.shape[1]
        self.qnet = qnet
        self.item_hidden = matrix @ qnet.advantage.w1.data[:, dim:].T + qnet.advantage.b1.data
        self.item_value = (qnet.value.forward_np(matrix)[:, 0]
                           if qnet.value_input == "item" else None)


def score_candidates(scorer: QScorer, states: np.ndarray, rows: np.ndarray,
                     sizes: np.ndarray, center: bool = False) -> np.ndarray:
    """Inference-path Q over `rows`, the item-matrix rows of one candidate set
    per state, sizes[i] rows for states[i], in hidden-layer blocks of at
    most SCORE_BLOCK rows. With `center`, each set's mean advantage is
    subtracted (identifiability correction); the greedy argmax is unaffected.
    """
    adv = scorer.qnet.advantage
    owner = np.repeat(np.arange(len(sizes)), sizes)
    halves = states @ adv.w1.data[:, :states.shape[1]].T
    hidden, share = np.empty((2, min(len(rows), SCORE_BLOCK), halves.shape[1]))
    a = np.empty(len(rows))
    for lo in range(0, len(rows), SCORE_BLOCK):
        n = min(SCORE_BLOCK, len(rows) - lo)
        # rows and owners index valid rows, so "clip" only skips a buffered copy
        np.take(scorer.item_hidden, rows[lo:lo + n], axis=0, out=hidden[:n], mode="clip")
        np.take(halves, owner[lo:lo + n], axis=0, out=share[:n], mode="clip")
        hidden[:n] += share[:n]
        np.maximum(hidden[:n], 0.0, out=hidden[:n])
        np.matmul(hidden[:n], adv.w2.data[0], out=a[lo:lo + n])
    a += adv.b2.data[0]
    if scorer.qnet.value_input == "state":
        q = scorer.qnet.value.forward_np(states)[owner, 0] + a
    else:
        q = scorer.item_value[rows] + a
    if center:
        q -= np.repeat(np.add.reduceat(a, np.cumsum(sizes) - sizes) / sizes, sizes)
    return q


def segment_argmax(q: np.ndarray, sizes: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Per consecutive segment of `q` of the given sizes, the least key over
    the positions of its maximum: with positions as keys the first one, with
    item ids the lowest id."""
    starts = np.cumsum(sizes) - sizes
    top = np.maximum.reduceat(q, starts).repeat(sizes)
    return np.minimum.reduceat(np.where(q == top, keys, keys.max()), starts)


def candidate_groups(sets: Iterable[tuple[int, np.ndarray]]
                     ) -> Iterator[tuple[list[int], np.ndarray, np.ndarray]]:
    """Consecutive (key, candidate ids) pairs in groups of at most SCORE_BLOCK
    ids (a larger set alone), as (keys, concatenated ids, set sizes). `sets`
    is read lazily, one pair past the group it yields; no set may be empty."""
    keys, group, size = [], [], 0
    for key, ids in sets:
        if len(ids) == 0:
            raise ValueError(f"empty candidate set for {key}")
        if group and size + len(ids) > SCORE_BLOCK:
            yield keys, np.concatenate(group), np.array([len(c) for c in group])
            keys, group, size = [], [], 0
        keys.append(key)
        group.append(ids)
        size += len(ids)
    if group:
        yield keys, np.concatenate(group), np.array([len(c) for c in group])


# -- targets and loss --------------------------------------------------


def compute_targets(batch: Sequence[Experience], params: AgentParameters,
                    target_qnet: QNetParameters, gamma: float,
                    center: bool = False) -> np.ndarray:
    """Double-Q targets y = r + gamma * Q_target(s', a*), a* the online argmax
    (the first candidate among ties), and y = r on terminal samples; no
    gradient. The next states are one padded GRU fold, each step advancing
    the histories still running. The online heads score candidate_groups;
    the target heads then score one row per live sample, its a*. With
    `center` the target's mean advantage is over the whole set, so the
    target heads score the full sets instead.
    """
    y = np.array([e.reward for e in batch], dtype=np.float64)
    live = np.flatnonzero([not e.terminal for e in batch])
    _, _, matrix, online = params.item_matrix()
    clicks, running = padded_rows(params.source.row_of_item,
                                  [batch[k].next_observation for k in live])
    states = np.zeros((len(live), params.gru.dim))
    for on, row in zip(running, clicks):
        states[on] = gru_step_np(params.gru, states[on], matrix[row[on]])
    target = QScorer(target_qnet, matrix) if center else None
    picked = np.empty(len(live), dtype=np.int64)
    for keys, ids, sizes in candidate_groups(enumerate(batch[k].next_candidates for k in live)):
        rows = params.source.rows(ids)
        q_online = score_candidates(online, states[keys], rows, sizes, center)
        at = segment_argmax(q_online, sizes, np.arange(len(rows)))
        if center:
            y[live[keys]] += gamma * score_candidates(target, states[keys], rows, sizes, True)[at]
        picked[keys] = rows[at]
    if not center and len(live):
        y[live] += gamma * score_candidates(QScorer(target_qnet, matrix[picked]), states,
                                            np.arange(len(live)), np.ones(len(live), np.int64))
    return y


def td_loss(batch: Sequence[Experience], params: AgentParameters, targets: np.ndarray,
            tape: Tape) -> Tensor:
    """Mean squared TD error; `targets` enter as constants."""
    cached = params._cache
    matrix = (cached[2] if cached and cached[0] == params.version and cached[1] is tape
              else params.source.matrix(tape))
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


def unseen_items(items: np.ndarray, recommended: np.ndarray) -> np.ndarray:
    """`items` as int64, in order, without the `recommended` ids."""
    items = np.asarray(items, np.int64)
    keep = np.ones(int(items.max(initial=-1)) + 1, dtype=bool)
    keep[recommended[(recommended >= 0) & (recommended < keep.size)]] = False
    return items[keep[items]]


def build_candidates(env: Environment, graph: KnowledgeGraph | None, cfg: TrainConfig,
                     clicked: Sequence[int], recommended: Collection[int]
                     ) -> tuple[np.ndarray, bool]:
    """Candidate item ids (int64) for the next step, and whether they are
    the catalog fallback.

    With candidate selection on and a non-empty click history, the k-hop
    linked-item set (minus already recommended) is used; when that comes
    back empty, or selection is off, every unseen item is offered, in
    `env.items` order (unseen_items).
    """
    if cfg.candidate_selection and graph is not None and clicked:
        seeds = [graph.item_to_entity[i] for i in clicked]
        max_size = cfg.candidate_size if cfg.candidate_size is not None else len(env.items)
        cs = candidate_items(graph, seeds, cfg.hops, max_size, exclude=recommended)
        if cs:
            return cs.items, False
    return unseen_items(env.items, np.fromiter(recommended, np.int64, len(recommended))), True


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
        in_range = (graph.linked_items >= 0) & (graph.linked_items < n_slots)
        row_of[graph.linked_items[in_range]] = graph.linked_entities[in_range]
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


def _episodes(params: AgentParameters | None, env: Environment, graph: KnowledgeGraph | None,
              cfg: TrainConfig, users: Sequence[int], epsilon: float,
              rng: np.random.Generator | None, buffer: ReplayBuffer | None = None) -> list:
    """Episodes of `users` in lockstep; returns each one's step records.

    Each pass takes every episode's last step (first the popularity step of
    `reset`): with `params`, one GRU row step of the states that hit; then,
    user by user, the next candidates (over `graph` when given) and, with a
    `buffer`, the transition with that snapshot. The next item is uniform
    without `params`, else epsilon-greedy: exploration is drawn per user
    before any scoring, and greedy items (highest Q, lowest id among ties)
    come from scoring candidate_groups.
    """
    if epsilon > 0.0 and rng is None:
        raise ValueError("epsilon > 0 requires an rng")
    if params is not None:
        _, _, matrix, scorer = params.item_matrix()
    states = [reset(env.model, int(user), env.popularity) for user in users]
    hidden = np.zeros((len(states), cfg.embedding_dim))

    def offer(state) -> np.ndarray | None:
        """The state's transition; its candidates when Q picks the next item."""
        record, clicked = state.records[-1], tuple(state.clicked)
        candidates, fallback = ((np.empty(0, np.int64), False) if state.done else
                                build_candidates(env, graph, cfg, state.clicked,
                                                 state.recommended))
        if buffer is not None:  # a hit appended its item to the clicks
            buffer.add(Experience(clicked[:-1] if record.hit else clicked, record.item,
                                  record.reward, clicked, candidates, state.done),
                       env.items if fallback else None, state.recommended)
        if state.done:
            return None
        if params is None or (epsilon > 0.0 and rng.random() < epsilon):
            step(state, env.model, int(candidates[rng.integers(len(candidates))]))
            return None
        return candidates

    while True:
        # one simulator horizon, so every episode ends in the same pass
        finished = all(state.done for state in states)
        hits = [i for i, state in enumerate(states) if state.records[-1].hit and not state.done]
        if params is not None and hits:
            clicks = params.source.rows([states[i].records[-1].item for i in hits])
            hidden[hits] = gru_step_np(params.gru, hidden[hits], matrix[clicks])
        picks = ((i, c) for i, state in enumerate(states) if (c := offer(state)) is not None)
        for keys, ids, sizes in candidate_groups(picks):
            q = score_candidates(scorer, hidden[keys], params.source.rows(ids), sizes,
                                 cfg.advantage_center)
            for i, item in zip(keys, segment_argmax(q, sizes, ids)):
                step(states[i], env.model, int(item))
        if finished:
            return [state.records for state in states]


def run_training_episode(params: AgentParameters, env: Environment,
                         graph: KnowledgeGraph | None, cfg: TrainConfig, user: int,
                         epsilon: float, rng: np.random.Generator,
                         buffer: ReplayBuffer) -> list:
    """One simulated episode; every transition (popularity step included)
    is stored with its follow-up candidate snapshot."""
    return _episodes(params, env, graph, cfg, [user], epsilon, rng, buffer)[0]


def evaluate_policy(params: AgentParameters | None, env: Environment,
                    graph: KnowledgeGraph | None, cfg: TrainConfig,
                    mode: str = "greedy", rng: np.random.Generator | None = None) -> list:
    """Roll one episode per test user; returns the per-user episode logs.

    mode "greedy" follows the learned Q deterministically, all users in
    lockstep; mode "random" picks uniformly over the unseen catalog (no
    graph restriction), one user after another.
    """
    if mode not in ("greedy", "random"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "greedy" and params is None:
        raise ValueError("greedy mode requires parameters")
    if mode == "greedy":
        return _episodes(params, env, graph, cfg, env.test_users, 0.0, None)
    if rng is None:
        raise ValueError("random mode requires an rng")
    return [_episodes(None, env, None, cfg, [user], 0.0, rng)[0] for user in env.test_users]


@dataclass
class CurvePoint:
    interactions: int
    reward: float
    precision: float
    recall: float


class TrainResult(tuple):
    """train()'s (params, target heads, curve), with `final_logs`: the
    per-user greedy episodes the curve's last point was measured on."""

    def __new__(cls, params, target, curve, final_logs):
        result = super().__new__(cls, (params, target, curve))
        result.final_logs = final_logs
        return result


def train(env: Environment, graph: KnowledgeGraph | None, cfg: TrainConfig,
          seed: int) -> TrainResult:
    """Interactive training over the train-user pool until the budget runs out.

    Per episode: act epsilon-greedily over the candidate sets, store every
    transition, then take `updates_per_episode` optimizer steps on sampled
    batches (double-Q targets, mean squared TD error, Adam over the state
    network, Q heads and trainable embeddings) and soft-update the target
    heads. Greedy evaluations on the held-out users are emitted as the
    learning curve at the configured cadence; the last one's episodes are
    the result's `final_logs`. An exhausted budget finishes the running
    episode, then halts.
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
    logs = None

    def emit(interactions: int) -> CurvePoint:
        nonlocal logs
        logs = None  # one pass's episodes alive at a time
        logs = evaluate_policy(params, env, graph, cfg, mode="greedy")
        return CurvePoint(interactions=interactions,
                          reward=average_reward(logs, eval_gamma),
                          precision=precision_at_horizon(logs),
                          recall=recall_at_horizon(logs, pref))

    curve = [emit(0)]
    next_eval = cfg.eval_every
    interactions = 0
    while len(env.train_users) and interactions < cfg.interaction_budget:
        for user in rng_loop.permutation(env.train_users):
            epsilon = epsilon_at(interactions, cfg)
            run_training_episode(params, env, graph, cfg, int(user), epsilon, rng_loop, buffer)
            interactions += cfg.horizon
            for _ in range(cfg.updates_per_episode):
                batch = buffer.sample(cfg.batch_size, rng_loop)
                targets = compute_targets(batch, params, target, cfg.gamma,
                                          cfg.advantage_center)
                tape = params.item_matrix()[0]
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
    return TrainResult(params, target, curve, logs)


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
        unknown = sorted(set(meta["config"]) - {f.name for f in fields(TrainConfig)})
        if unknown:
            raise ValueError(f"{path}: unknown config keys {', '.join(unknown)}")
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
