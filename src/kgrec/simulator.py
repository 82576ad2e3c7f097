"""Offline user simulator: biased matrix factorization plus streak shaping.

The fitted model plays the environment: its clamped raw prediction
decides hits, the [-1, 1] normalization is the instinctive reward, and a
sequential bonus eta * (c_p - c_n) rewards consecutive hits and punishes
consecutive misses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .textio import check_range, within


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
        """Unclamped prediction; an id outside the model raises IndexError."""
        if not (0 <= user < self.n_users and 0 <= item < self.n_items):
            raise IndexError(f"(user {user}, item {item}) outside the model's "
                             f"{self.n_users} users and {self.n_items} items")
        value = self.global_mean + self.user_bias[user] + self.item_bias[item]
        return float(value + float(self.user_factors[user] @ self.item_factors[item]))


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


def _level_order(order: np.ndarray, users: np.ndarray, items: np.ndarray, n_users: int,
                 n_items: int):
    """Stable-sort a rating permutation by dependency level: (order, bounds).

    A rating's level is 1 + the larger of the levels of the previous rating
    of its user and of its item in `order` (0 when there is none). Level k
    (from 1) is the returned order[bounds[k - 1]:bounds[k]].
    """
    user_level, item_level = [0] * n_users, [0] * n_items
    levels = []
    for u, i in zip(users[order].tolist(), items[order].tolist()):
        a, b = user_level[u], item_level[i]
        level = user_level[u] = item_level[i] = (a if a > b else b) + 1
        levels.append(level)
    levels = np.array(levels)
    return order[np.argsort(levels, kind="stable")], np.bincount(levels).cumsum().tolist()


# the range of each scalar argument of fit_mf that the fit relies on
_FIT_MF_RANGES = {"dim": within(1), "epochs": within(0), "learning_rate": within(0),
                  "reg": within(0), "rating_min": within(), "rating_max": within(),
                  "hit_threshold": within(), "eta": within(), "horizon": within(1)}


def fit_mf(users, items, ratings, n_users: int, n_items: int, dim: int = 20,
           epochs: int = 50, learning_rate: float = 0.01, reg: float = 0.02,
           seed: int = 0, rating_min: float | None = None, rating_max: float | None = None,
           hit_threshold: float | None = None, eta: float = 0.1, horizon: int = 32) -> SimulatorModel:
    """Fit the biased-MF simulator by per-observation stochastic gradient descent.

    Each epoch visits the ratings in one random permutation, one SGD step
    per rating, applied one dependency level at a time (`_level_order`).
    No user or item repeats within a level and each row's ratings fall in
    increasing levels, so one vector step per level gives every factor and
    bias row its updates in permutation order: the bytes of the per-rating
    loop. The dot product is a stacked 1xd @ dx1 matmul, which numpy
    evaluates with the same dot as `p[u] @ q[i]`; `einsum` would round
    differently.

    Args:
        users, items, ratings: parallel observation arrays (dense ids).
        n_users, n_items: universe sizes (ids may exceed the observed set).
        rating_min/rating_max: raw scale bounds; derived from the data
            when omitted. hit_threshold defaults to the scale midpoint.

    Returns a SimulatorModel carrying the protocol constants.
    """
    args = locals()  # the arguments, by name
    users = np.asarray(users, dtype=np.int64)
    items = np.asarray(items, dtype=np.int64)
    ratings = np.asarray(ratings, dtype=np.float64)
    if not (users.shape == items.shape == ratings.shape) or users.ndim != 1 or users.size == 0:
        raise ValueError("fit_mf: users/items/ratings must be equal-length non-empty 1-D arrays")
    for name, ids, size_name, size in (("users", users, "n_users", n_users),
                                       ("items", items, "n_items", n_items)):
        if ids.min() < 0 or ids.max() >= size:
            raise ValueError(f"fit_mf: {name} must lie in [0, {size_name}={size}), "
                             f"got ids in [{ids.min()}, {ids.max()}]")
    for name, bounds in _FIT_MF_RANGES.items():
        check_range(f"fit_mf: {name}", args[name], bounds, fit_mf.__annotations__[name])
    if not np.isfinite(ratings).all():
        raise ValueError("fit_mf: ratings must be finite")
    lo = float(ratings.min()) if rating_min is None else float(rating_min)
    hi = float(ratings.max()) if rating_max is None else float(rating_max)
    if not hi > lo:
        raise ValueError(f"degenerate rating scale: [{lo}, {hi}]")
    rng = np.random.default_rng(seed)
    p = rng.normal(0.0, 0.1, size=(n_users, dim))
    q = rng.normal(0.0, 0.1, size=(n_items, dim))
    bu = np.zeros(n_users)
    bi = np.zeros(n_items)
    mu = float(ratings.mean())
    lr = learning_rate
    for _ in range(epochs):
        order, bounds = _level_order(rng.permutation(users.size), users, items, n_users, n_items)
        eu, ei, er = users[order], items[order], ratings[order]
        for start, stop in zip(bounds, bounds[1:]):
            u, i = eu[start:stop], ei[start:stop]
            pu, qi, bu_u, bi_i = p[u], q[i], bu[u], bi[i]
            dot = np.matmul(pu[:, None, :], qi[:, :, None])[:, 0, 0]
            err = mu + bu_u + bi_i + dot - er[start:stop]
            p[u] = pu - lr * (err[:, None] * qi + reg * pu)
            q[i] = qi - lr * (err[:, None] * pu + reg * qi)
            bu[u] = bu_u - lr * (err + reg * bu_u)
            bi[i] = bi_i - lr * (err + reg * bi_i)
    pred = mu + bu[users] + bi[items] + np.einsum("ij,ij->i", p[users], q[items])
    rmse = float(np.sqrt(((pred - ratings) ** 2).mean()))
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
    normalized feedback (exactly 0.0 counts as negative: it extends the
    negative streak and resets the positive one), and the history grows
    only on a hit.
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
    """Per-user count of catalog items whose simulated rating clears the
    threshold, with predict_raw's bytes: each pair's dot is a stacked 1xd @ dx1
    matmul, as in fit_mf. An id outside the model raises IndexError."""
    users = np.asarray(users, dtype=np.int64)
    items = np.asarray(items, dtype=np.int64)
    for name, ids, size in (("user", users, m.n_users), ("item", items, m.n_items)):
        bad = ids[(ids < 0) | (ids >= size)]
        if bad.size:
            raise IndexError(f"{name} {bad[0]} outside the model's {size} {name}s")
    raw = m.global_mean + m.user_bias[users][:, None] + m.item_bias[items][None, :]
    raw += np.matmul(m.user_factors[users][:, None, None, :],
                     m.item_factors[items][None, :, :, None])[:, :, 0, 0]
    return (np.clip(raw, m.rating_min, m.rating_max, out=raw) > m.hit_threshold).sum(axis=1)

