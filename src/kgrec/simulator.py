"""Offline user simulator: biased matrix factorization plus streak shaping.

The fitted model plays the environment: its clamped raw prediction
decides hits, the [-1, 1] normalization is the instinctive reward, and a
sequential bonus eta * (c_p - c_n) rewards consecutive hits and punishes
consecutive misses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class SimulatorModel:
    """Biased-MF parameters plus the interaction protocol constants."""

    user_factors: np.ndarray
    item_factors: np.ndarray
    user_bias: np.ndarray
    item_bias: np.ndarray
    global_mean: float
    rating_min: float
    rating_max: float
    hit_threshold: float
    eta: float = 0.1
    horizon: int = 32
    train_rmse: float = float("nan")

    @property
    def n_users(self) -> int:
        return self.user_factors.shape[0]

    @property
    def n_items(self) -> int:
        return self.item_factors.shape[0]

    def predict_raw(self, user: int, item: int) -> float:
        """Unclamped prediction; unknown ids fall back to bias-only terms."""
        value = self.global_mean
        if 0 <= user < self.n_users:
            value += self.user_bias[user]
        if 0 <= item < self.n_items:
            value += self.item_bias[item]
        if 0 <= user < self.n_users and 0 <= item < self.n_items:
            value += float(self.user_factors[user] @ self.item_factors[item])
        return float(value)


@dataclass
class StepRecord:
    item: int
    raw: float
    normalized: float
    reward: float
    hit: bool


@dataclass
class EpisodeState:
    """Mutable per-episode bookkeeping; min(pos_streak, neg_streak) == 0 always."""

    user: int
    t: int = 0
    pos_streak: int = 0
    neg_streak: int = 0
    recommended: set = field(default_factory=set)
    clicked: list = field(default_factory=list)
    done: bool = False
    records: list[StepRecord] = field(default_factory=list)


def mf_loss_and_grads(user_factors, item_factors, user_bias, item_bias, global_mean,
                      users, items, ratings, reg):
    """Mean squared error with L2 penalty, and its gradients.

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


def fit_mf(users, items, ratings, n_users: int, n_items: int, dim: int = 20,
           epochs: int = 50, learning_rate: float = 0.01, reg: float = 0.02,
           seed: int = 0, rating_min: float | None = None, rating_max: float | None = None,
           hit_threshold: float | None = None, eta: float = 0.1, horizon: int = 32) -> SimulatorModel:
    """Fit the biased-MF simulator by per-observation stochastic gradient descent.

    Args:
        users, items, ratings: parallel observation arrays (dense ids).
        n_users, n_items: universe sizes (ids may exceed the observed set).
        rating_min/rating_max: raw scale bounds; derived from the data
            when omitted. hit_threshold defaults to the scale midpoint.

    Returns a SimulatorModel carrying the protocol constants.
    """
    users = np.asarray(users, dtype=np.int64)
    items = np.asarray(items, dtype=np.int64)
    ratings = np.asarray(ratings, dtype=np.float64)
    if not (users.shape == items.shape == ratings.shape) or users.ndim != 1 or users.size == 0:
        raise ValueError("fit_mf: users/items/ratings must be equal-length non-empty 1-D arrays")
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
    if not hi > lo:
        raise ValueError(f"degenerate rating scale: [{lo}, {hi}]")
    thr = 0.5 * (lo + hi) if hit_threshold is None else float(hit_threshold)
    return SimulatorModel(user_factors=p, item_factors=q, user_bias=bu, item_bias=bi,
                          global_mean=mu, rating_min=lo, rating_max=hi, hit_threshold=thr,
                          eta=eta, horizon=horizon, train_rmse=rmse)


def instinctive_reward(m: SimulatorModel, user: int, item: int):
    """Clamp the raw prediction, map affinely to [-1, 1], threshold for a hit.

    Returns (raw_clamped, normalized, hit); the hit compares the clamped
    raw value against hit_threshold on the raw scale.
    """
    raw = min(max(m.predict_raw(user, item), m.rating_min), m.rating_max)
    normalized = 2.0 * (raw - m.rating_min) / (m.rating_max - m.rating_min) - 1.0
    return raw, normalized, raw > m.hit_threshold


def step(state: EpisodeState, m: SimulatorModel, item: int):
    """Advance one interaction; returns (reward, state).

    Reward is r_ij + eta * (c_p - c_n) with the streak counters as they
    stood before this step; counters then update from the sign of the
    normalized feedback, and the history grows only on a hit.
    """
    if state.done:
        raise RuntimeError("episode is finished")
    if item in state.recommended:
        raise ValueError(f"item {item} was already recommended this episode")
    raw, normalized, hit = instinctive_reward(m, state.user, item)
    reward = normalized + m.eta * (state.pos_streak - state.neg_streak)
    if normalized > 0.0:
        state.pos_streak += 1
        state.neg_streak = 0
    else:
        state.neg_streak += 1
        state.pos_streak = 0
    state.recommended.add(item)
    if hit:
        state.clicked.append(item)
    state.records.append(StepRecord(item=item, raw=raw, normalized=normalized,
                                    reward=reward, hit=hit))
    state.t += 1
    if state.t >= m.horizon:
        state.done = True
    return reward, state


def reset(m: SimulatorModel, user: int, popularity) -> EpisodeState:
    """Fresh episode; the most popular item is delivered as step 0."""
    if not (0 <= user < m.n_users):
        raise IndexError(f"user {user} out of range")
    if len(popularity) == 0:
        raise ValueError("empty popularity table")
    state = EpisodeState(user=user)
    step(state, m, int(popularity[0]))
    return state


def split_users(users, fraction: float = 0.8, seed: int = 0):
    """Shuffled disjoint train/test split; train size is floor(fraction * n)."""
    users = np.asarray(users)
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(users.size)
    cut = int(np.floor(fraction * users.size))
    return users[order[:cut]].copy(), users[order[cut:]].copy()


def popularity_table(items, restrict_to=None) -> np.ndarray:
    """Items by descending interaction count, ties broken by ascending id."""
    items = np.asarray(items, dtype=np.int64)
    if restrict_to is not None:
        keep = np.isin(items, np.asarray(list(restrict_to), dtype=np.int64))
        items = items[keep]
    if items.size == 0:
        raise ValueError("popularity_table: no interactions")
    ids, counts = np.unique(items, return_counts=True)
    order = np.lexsort((ids, -counts))
    return ids[order]


def preference_counts(m: SimulatorModel, users, items) -> np.ndarray:
    """Per-user count of catalog items whose simulated rating clears the threshold."""
    users = np.asarray(users, dtype=np.int64)
    items = np.asarray(items, dtype=np.int64)
    raw = (m.global_mean + m.user_bias[users][:, None] + m.item_bias[items][None, :]
           + m.user_factors[users] @ m.item_factors[items].T)
    raw = np.clip(raw, m.rating_min, m.rating_max)
    return (raw > m.hit_threshold).sum(axis=1)

