"""Reward/precision/recall measures and the signed-rank test."""

import logging
from dataclasses import dataclass

import numpy as np
import pytest

from kgrec.metrics import (EvaluationReport, _average_ranks, average_reward, build_report,
                           episode_reward, precision_at_horizon, recall_at_horizon,
                           wilcoxon_signed_rank)


@dataclass
class _Rec:
    reward: float
    hit: bool = False


def _ep(rewards, hits=None):
    hits = hits or [False] * len(rewards)
    return [_Rec(r, h) for r, h in zip(rewards, hits)]


def test_episode_reward_hand_values():
    # T=2, gamma=0.5, both rewards 0.5: (0.5 + 0.25) / 2
    assert episode_reward(_ep([0.5, 0.5]), gamma=0.5) == 0.375
    # gamma 0 keeps only the first step (0^0 = 1)
    assert episode_reward(_ep([0.8, 9.9, -3.0]), gamma=0.0) == 0.8 / 3
    # gamma 1 is the plain mean
    assert episode_reward(_ep([1.0, 2.0, 3.0]), gamma=1.0) == 2.0


def test_average_reward_is_mean_over_episodes():
    logs = [_ep([1.0, 1.0]), _ep([0.0, 0.0])]
    assert average_reward(logs, gamma=1.0) == 0.5


def test_precision_equals_hit_stream_reward_at_gamma_one():
    rng = np.random.default_rng(71)
    for _ in range(10):
        logs = []
        hit_logs = []
        for _ in range(4):
            hits = rng.random(6) < 0.4
            logs.append(_ep(rng.standard_normal(6).tolist(), hits.tolist()))
            hit_logs.append(_ep(hits.astype(float).tolist()))
        assert abs(precision_at_horizon(logs) - average_reward(hit_logs, 1.0)) < 1e-12


def test_log_validation():
    with pytest.raises(ValueError):
        average_reward([], 1.0)
    with pytest.raises(ValueError):
        average_reward([_ep([1.0]), _ep([1.0, 2.0])], 1.0)  # ragged
    with pytest.raises(ValueError):
        average_reward([[], []], 1.0)  # empty episodes


def test_recall_per_user_and_zero_preferences(caplog):
    logs = [_ep([0.0] * 4, [True, True, False, False]),
            _ep([0.0] * 4, [True, False, False, False])]
    got = recall_at_horizon(logs, np.array([4, 2]))
    assert got == (2 / 4 + 1 / 2) / 2
    with caplog.at_level(logging.WARNING, logger="kgrec.metrics"):
        got = recall_at_horizon(logs, np.array([0, 2]))
    assert got == (0.0 + 0.5) / 2
    assert "zero preferences" in caplog.text
    with pytest.raises(ValueError):
        recall_at_horizon(logs, np.array([1, 2, 3]))


def test_recall_with_one_preferred_item_and_its_hit_is_one(caplog):
    logs = [_ep([0.0] * 3, [False, True, False])]
    with caplog.at_level(logging.WARNING, logger="kgrec.metrics"):
        assert recall_at_horizon(logs, np.array([1])) == 1.0
    assert "zero preferences" not in caplog.text


def _average_ranks_oracle(values):
    """Average 1-based ranks, one tie run at a time."""
    n = values.size
    order = np.argsort(values, kind="stable")
    ranks = np.empty(n)
    sorted_values = values[order]
    i = 0
    while i < n:
        j = i
        while j + 1 < n and sorted_values[j + 1] == sorted_values[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def test_average_ranks_match_the_tie_run_loop():
    rng = np.random.default_rng(71)
    for _ in range(300):
        n = int(rng.integers(1, 60))
        # few distinct values, so most ranks are shared
        values = rng.integers(0, int(rng.integers(1, 8)), size=n) * rng.choice([0.5, 1.0, 3.25])
        ranks, ties = _average_ranks(values)
        assert ranks.tobytes() == _average_ranks_oracle(values).tobytes()
        assert ties.tolist() == np.unique(values, return_counts=True)[1].tolist()


def _wilcoxon_oracle(a, b):
    """Exact two-sided p by enumerating all sign assignments."""
    d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    d = d[d != 0.0]
    n = d.size
    ranks = _average_ranks_oracle(np.abs(d))
    w_plus = ranks[d > 0].sum()
    signs = (np.arange(2**n)[:, None] >> np.arange(n)) & 1  # every sign vector
    w_all = signs @ ranks
    p_le = np.mean(w_all <= w_plus + 1e-9)
    p_ge = np.mean(w_all >= w_plus - 1e-9)
    return w_plus, min(1.0, 2.0 * min(p_le, p_ge))


def test_wilcoxon_against_enumeration_oracle():
    rng = np.random.default_rng(72)
    done = 0
    while done < 200:
        n = int(rng.integers(5, 13))
        # integer grids force ties in |d| and some zero differences
        a = rng.integers(0, 6, size=n).astype(float)
        b = rng.integers(0, 6, size=n).astype(float)
        if np.count_nonzero(a - b) < 5:
            continue
        got_w, got_p = wilcoxon_signed_rank(a, b)
        want_w, want_p = _wilcoxon_oracle(a, b)
        assert got_w == want_w, f"W+ {got_w} vs {want_w}"
        assert abs(got_p - want_p) < 1e-12, f"p {got_p} vs {want_p}"
        done += 1


def test_wilcoxon_statistic_hand_case():
    # d = [1, -2, 3, -4, 5]: |d| ranks are 1..5, positive ranks 1+3+5
    a = np.array([1.0, 0.0, 3.0, 0.0, 5.0])
    b = np.array([0.0, 2.0, 0.0, 4.0, 0.0])
    w, _ = wilcoxon_signed_rank(a, b)
    assert w == 9.0


def test_wilcoxon_detects_consistent_shift():
    rng = np.random.default_rng(73)
    a = rng.standard_normal(20)
    _, p = wilcoxon_signed_rank(a, a + 1.0)
    assert p < 0.01


def test_wilcoxon_identical_and_small_samples():
    a = np.arange(8, dtype=float)
    assert wilcoxon_signed_rank(a, a.copy()) == (0.0, 1.0)
    with pytest.raises(ValueError):
        wilcoxon_signed_rank(np.array([1.0, 2.0, 3.0, 4.0]), np.zeros(4))
    with pytest.raises(ValueError):
        wilcoxon_signed_rank(np.zeros((2, 2)), np.zeros((2, 2)))
    # a NaN difference is neither zero nor signed; an infinite one has no rank
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            wilcoxon_signed_rank(np.array([1.0, 2.0, 3.0, 4.0, 5.0, bad]), np.zeros(6))
        with pytest.raises(ValueError, match="finite"):
            wilcoxon_signed_rank(np.zeros(6), np.array([1.0, 2.0, 3.0, 4.0, 5.0, bad]))
    # 4 non-zero diffs among 8 pairs is still too few
    b = a.copy()
    b[:4] += 1.0
    with pytest.raises(ValueError):
        wilcoxon_signed_rank(a, b)


def test_wilcoxon_large_sample_against_scipy():
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(74)
    for trial in range(5):
        a = rng.standard_normal(40)
        b = a + rng.standard_normal(40) * 0.7
        got_w, got_p = wilcoxon_signed_rank(a, b)
        try:
            ref = stats.wilcoxon(a, b, zero_method="wilcox", correction=True, method="approx")
        except TypeError:  # older scipy spells it mode=
            ref = stats.wilcoxon(a, b, zero_method="wilcox", correction=True, mode="approx")
        assert abs(got_p - ref.pvalue) < 1e-9, f"trial {trial}"


def test_build_report_and_serializations():
    logs = [_ep([1.0, 0.0], [True, False]), _ep([0.5, 0.5], [True, True])]
    report = build_report([10, 11], logs, np.array([2, 0]), gamma=1.0,
                          interactions=123, config_hash="abc123")
    assert report.per_user[0] == (10, 0.5, 0.5, 0.5)
    assert report.per_user[1] == (11, 0.5, 1.0, 0.0)  # zero-pref user
    assert report.zero_preference_users == 1
    assert report.average_reward == 0.5
    assert report.precision == 0.75
    assert report.recall == 0.25
    text = report.flat_text()
    assert "average_reward = 0.5\n" in text
    assert "interactions = 123" in text and "config_hash = abc123" in text
    csv = report.per_user_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "user,reward,precision,recall"
    assert lines[1].startswith("10,0.5,")
    # every numeric cell parses back as a float
    for line in lines[1:]:
        for cell in line.split(",")[1:]:
            float(cell)


def test_report_defaults():
    r = EvaluationReport(average_reward=0.0, precision=0.0, recall=0.0, gamma=0.9)
    assert r.interactions == 0 and r.config_hash == ""
    assert r.flat_text().endswith("\n")
