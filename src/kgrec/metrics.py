"""Episode-level evaluation measures and a paired significance test."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .textio import csv_text, flat_text

log = logging.getLogger(__name__)


def _check_logs(logs) -> int:
    if not logs:
        raise ValueError("no episode logs")
    horizon = len(logs[0])
    for ep in logs:
        if len(ep) != horizon:
            raise ValueError(f"ragged episode logs: {len(ep)} vs {horizon} steps")
    if horizon == 0:
        raise ValueError("empty episodes")
    return horizon


def episode_reward(records, gamma: float) -> float:
    """Discounted per-episode mean: (1/T) * sum_t gamma^t R_t, t 0-based."""
    t_len = len(records)
    return float(sum(gamma**t * rec.reward for t, rec in enumerate(records)) / t_len)


def average_reward(logs, gamma: float) -> float:
    """Discounted reward averaged over all users and steps."""
    _check_logs(logs)
    return float(np.mean([episode_reward(ep, gamma) for ep in logs]))


def precision_at_horizon(logs) -> float:
    """Fraction of recommended items the simulated user accepted."""
    horizon = _check_logs(logs)
    return float(np.mean([sum(1 for rec in ep if rec.hit) / horizon for ep in logs]))


def recall_at_horizon(logs, n_preferences) -> float:
    """Per-user hits over per-user preference counts, averaged over users.

    Users with zero preferences contribute zero and are flagged via the
    module logger.
    """
    _check_logs(logs)
    values, zero_users = _recalls(logs, n_preferences)
    if zero_users:
        log.warning("recall: %d user(s) with zero preferences contribute 0", zero_users)
    return float(np.mean(values))


def _recalls(logs, n_preferences) -> tuple[list, int]:
    """Per-user recall (0 without preferences), and how many users have none."""
    counts = np.asarray(n_preferences)
    if counts.shape != (len(logs),):
        raise ValueError(f"need one preference count per episode, got {counts.shape}")
    values = [sum(1 for rec in ep if rec.hit) / n_pref if n_pref > 0 else 0.0
              for ep, n_pref in zip(logs, counts)]
    return values, int((counts <= 0).sum())


def _average_ranks(values: np.ndarray) -> np.ndarray:
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size, dtype=np.float64)
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def wilcoxon_signed_rank(a, b) -> tuple[float, float]:
    """Two-sided Wilcoxon signed-rank test for paired samples.

    Parameters
    ----------
    a, b : array_like
        Paired measurements. Differences a - b of zero are dropped; ties
        among the remaining |differences| get average ranks.

    Returns
    -------
    statistic : float
        W+, the rank sum of the positive differences.
    pvalue : float
        Exact two-sided p (sign-flip distribution) for n <= 25 non-zero
        differences, normal approximation with continuity and tie
        corrections above. Identical samples give p = 1.

    Raises
    ------
    ValueError
        If fewer than 5 non-zero differences remain (and not all are zero).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"paired 1-D samples required, got {a.shape} and {b.shape}")
    d = a - b
    d = d[d != 0.0]
    if d.size == 0:
        return 0.0, 1.0
    n = d.size
    if n < 5:
        raise ValueError(f"need at least 5 non-zero differences, got {n}")
    ranks = _average_ranks(np.abs(d))
    w_plus = float(ranks[d > 0.0].sum())

    if n <= 25:
        # doubled ranks are integers even with .5 average ranks
        r2 = np.rint(2.0 * ranks).astype(np.int64)
        total = int(r2.sum())
        dist = np.zeros(total + 1)
        dist[0] = 1.0
        for r in r2:
            dist[r:] = dist[r:] + dist[:-r or None]
        dist /= 2.0**n
        w2 = int(round(2.0 * w_plus))
        p_le = float(dist[:w2 + 1].sum())
        p_ge = float(dist[w2:].sum())
        return w_plus, min(1.0, 2.0 * min(p_le, p_ge))

    mu = n * (n + 1) / 4.0
    _, tie_counts = np.unique(ranks, return_counts=True)
    var = n * (n + 1) * (2 * n + 1) / 24.0 - ((tie_counts**3 - tie_counts).sum()) / 48.0
    if var <= 0:
        return w_plus, 1.0
    shift = 0.5 if w_plus > mu else (-0.5 if w_plus < mu else 0.0)
    z = (w_plus - mu - shift) / math.sqrt(var)
    return w_plus, float(math.erfc(abs(z) / math.sqrt(2.0)))


@dataclass
class EvaluationReport:
    """Aggregate measures plus a per-user breakdown.

    per_user rows are (user id, reward, precision, recall); aggregates are
    exact means of the per-user columns.
    """

    average_reward: float
    precision: float
    recall: float
    gamma: float
    interactions: int = 0
    config_hash: str = ""
    zero_preference_users: int = 0
    per_user: list[tuple[int, float, float, float]] = field(default_factory=list)

    def flat_text(self) -> str:
        """Every field but per_user as `key = value` lines."""
        return flat_text((f.name, getattr(self, f.name)) for f in fields(self)
                         if f.name != "per_user")

    def per_user_csv(self) -> str:
        return csv_text("user,reward,precision,recall", self.per_user)


def build_report(users, logs, n_preferences, gamma: float, interactions: int = 0,
                 config_hash: str = "") -> EvaluationReport:
    """Assemble an EvaluationReport from per-user episode logs."""
    horizon = _check_logs(logs)
    recalls, zero_users = _recalls(logs, n_preferences)
    per_user = [(int(user), episode_reward(ep, gamma), sum(1 for rec in ep if rec.hit) / horizon,
                 float(recall)) for user, ep, recall in zip(users, logs, recalls)]
    return EvaluationReport(
        average_reward=float(np.mean([r for _, r, _, _ in per_user])),
        precision=float(np.mean([p for _, _, p, _ in per_user])),
        recall=float(np.mean([r for _, _, _, r in per_user])),
        gamma=gamma, interactions=interactions, config_hash=config_hash,
        zero_preference_users=zero_users, per_user=per_user)
