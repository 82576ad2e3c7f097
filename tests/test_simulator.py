"""Biased-MF world model and the episode protocol around it."""

import numpy as np
import pytest

from conftest import rel_error
from kgrec.simulator import (EpisodeState, SimulatorModel, fit_mf, instinctive_reward,
                             mf_loss_and_grads, popularity_table, preference_counts, reset,
                             split_users, step)


def _model(eta=0.1, horizon=8, hit_threshold=3.0, n_users=4, n_items=6, seed=0):
    rng = np.random.default_rng(seed)
    return SimulatorModel(user_factors=rng.standard_normal((n_users, 3)) * 0.5,
                          item_factors=rng.standard_normal((n_items, 3)) * 0.5,
                          user_bias=rng.standard_normal(n_users) * 0.2,
                          item_bias=rng.standard_normal(n_items) * 0.2,
                          global_mean=3.0, rating_min=1.0, rating_max=5.0,
                          hit_threshold=hit_threshold, eta=eta, horizon=horizon)


def _scripted_model(raws, eta, horizon, hit_threshold=3.0):
    """Factorless model whose raw prediction for item i is raws[i], any user."""
    n_items = len(raws)
    return SimulatorModel(user_factors=np.zeros((1, 1)),
                          item_factors=np.zeros((n_items, 1)),
                          user_bias=np.zeros(1),
                          item_bias=np.asarray(raws, dtype=np.float64) - 3.0,
                          global_mean=3.0, rating_min=1.0, rating_max=5.0,
                          hit_threshold=hit_threshold, eta=eta, horizon=horizon)


def test_mf_gradients_match_finite_differences():
    rng = np.random.default_rng(61)
    eps = 1e-6
    for trial in range(6):
        nu, ni, dim, n = 4, 5, 3, 10
        p = rng.standard_normal((nu, dim))
        q = rng.standard_normal((ni, dim))
        bu = rng.standard_normal(nu)
        bi = rng.standard_normal(ni)
        users = rng.integers(0, nu, size=n)
        items = rng.integers(0, ni, size=n)
        ratings = rng.uniform(1, 5, size=n)
        _, du, di, dbu, dbi = mf_loss_and_grads(p, q, bu, bi, 3.0, users, items, ratings, reg=0.1)
        for mat, grad in ((p, du), (q, di), (bu, dbu), (bi, dbi)):
            fd = np.zeros_like(mat)
            flat, fd_flat = mat.ravel(), fd.ravel()
            for i in range(flat.size):
                kept = flat[i]
                flat[i] = kept + eps
                hi = mf_loss_and_grads(p, q, bu, bi, 3.0, users, items, ratings, 0.1)[0]
                flat[i] = kept - eps
                lo = mf_loss_and_grads(p, q, bu, bi, 3.0, users, items, ratings, 0.1)[0]
                flat[i] = kept
                fd_flat[i] = (hi - lo) / (2 * eps)
            assert rel_error(grad, fd) < 1e-5, f"trial {trial}"


def test_fit_recovers_rank_one_structure():
    # ratings from a noiseless rank-1 model with biases; SGD should fit it
    rng = np.random.default_rng(62)
    nu, ni = 30, 20
    u_true = rng.uniform(0.5, 1.5, size=nu)
    i_true = rng.uniform(0.5, 1.5, size=ni)
    users, items = np.meshgrid(np.arange(nu), np.arange(ni), indexing="ij")
    users, items = users.ravel(), items.ravel()
    ratings = 2.0 + u_true[users] * i_true[items]
    m = fit_mf(users, items, ratings, nu, ni, dim=4, epochs=200,
               learning_rate=0.02, seed=3, rating_min=1.0, rating_max=5.0)
    assert m.train_rmse < 0.05
    sample = rng.choice(users.size, size=200, replace=False)
    preds = np.array([m.predict_raw(int(users[k]), int(items[k])) for k in sample])
    assert np.sqrt(np.mean((preds - ratings[sample]) ** 2)) < 0.05


def test_fit_is_deterministic_and_validates():
    users = np.array([0, 1, 0])
    items = np.array([0, 1, 1])
    ratings = np.array([4.0, 2.0, 3.0])
    a = fit_mf(users, items, ratings, 2, 2, dim=2, epochs=5, seed=9)
    b = fit_mf(users, items, ratings, 2, 2, dim=2, epochs=5, seed=9)
    assert np.array_equal(a.user_factors, b.user_factors)
    assert a.train_rmse == b.train_rmse
    with pytest.raises(ValueError):
        fit_mf([], [], [], 2, 2)
    with pytest.raises(ValueError):
        fit_mf(users, items, np.full(3, 2.0), 2, 2, epochs=1)  # degenerate scale


def test_default_scale_and_threshold_from_data():
    users = np.array([0, 0, 1])
    items = np.array([0, 1, 0])
    ratings = np.array([1.0, 5.0, 3.0])
    m = fit_mf(users, items, ratings, 2, 2, dim=2, epochs=1, seed=0)
    assert m.rating_min == 1.0 and m.rating_max == 5.0
    assert m.hit_threshold == 3.0  # scale midpoint


def test_predict_raw_bias_only_fallback():
    m = _model()
    known = m.predict_raw(0, 0)
    assert known != m.global_mean
    assert m.predict_raw(99, 0) == m.global_mean + m.item_bias[0]
    assert m.predict_raw(0, 99) == m.global_mean + m.user_bias[0]
    assert m.predict_raw(99, 99) == m.global_mean


def test_instinctive_reward_normalization():
    m = _scripted_model([5.0, 1.0, 3.0, 4.0], eta=0.0, horizon=8)
    raw, norm, hit = instinctive_reward(m, 0, 0)
    assert (raw, norm, hit) == (5.0, 1.0, True)
    raw, norm, hit = instinctive_reward(m, 0, 1)
    assert (raw, norm, hit) == (1.0, -1.0, False)
    raw, norm, hit = instinctive_reward(m, 0, 2)
    assert (raw, norm, hit) == (3.0, 0.0, False)  # threshold is strict
    raw, norm, hit = instinctive_reward(m, 0, 3)
    assert (raw, norm, hit) == (4.0, 0.5, True)


def test_step_uses_pre_step_streaks():
    # raws 4, 4, 4: rewards 0.5, 0.5 + eta, 0.5 + 2 eta
    eta = 0.25
    m = _scripted_model([4.0, 4.0, 4.0, 2.0, 2.0], eta=eta, horizon=5)
    state = EpisodeState(user=0)
    r0, _ = step(state, m, 0)
    r1, _ = step(state, m, 1)
    r2, _ = step(state, m, 2)
    assert (r0, r1, r2) == (0.5, 0.5 + eta, 0.5 + 2 * eta)
    # a miss resets the positive streak and starts charging the negative one
    r3, _ = step(state, m, 3)  # raw 2 -> norm -0.5, counters were (3, 0)
    assert r3 == -0.5 + eta * 3
    r4, _ = step(state, m, 4)  # counters now (0, 1)
    assert r4 == -0.5 - eta * 1


def test_streak_exclusivity_over_random_walk():
    rng = np.random.default_rng(63)
    m = _model(horizon=10_000, n_items=12_000)
    state = EpisodeState(user=1)
    for i in range(10_000):
        step(state, m, i)
        assert min(state.pos_streak, state.neg_streak) == 0


def test_eta_zero_reward_equals_normalized():
    m = _model(eta=0.0, horizon=12, n_items=20)
    state = reset(m, 2, popularity=np.arange(20))
    while not state.done:
        step(state, m, int(state.t) + 5)
    assert len(state.records) == m.horizon
    for rec in state.records:
        assert rec.reward == rec.normalized


def test_hit_and_streak_disagree_off_midpoint():
    # raw 3.4: above the scale midpoint (norm > 0, feeds the positive
    # streak) yet below the raw hit threshold 3.5 (no click recorded)
    m = _scripted_model([3.4], eta=0.1, horizon=4, hit_threshold=3.5)
    state = EpisodeState(user=0)
    step(state, m, 0)
    assert state.pos_streak == 1 and state.neg_streak == 0
    assert state.clicked == [] and not state.records[0].hit
    assert state.records[0].normalized > 0.0


def test_no_repeat_and_done_are_enforced():
    m = _model(horizon=2)
    state = EpisodeState(user=0)
    step(state, m, 3)
    with pytest.raises(ValueError):
        step(state, m, 3)
    step(state, m, 4)
    assert state.done
    with pytest.raises(RuntimeError):
        step(state, m, 5)


def test_reset_delivers_most_popular_item_as_step_zero():
    m = _model(horizon=4)
    state = reset(m, 0, popularity=np.array([5, 2, 0]))
    assert state.t == 1
    assert state.records[0].item == 5
    assert 5 in state.recommended
    with pytest.raises(IndexError):
        reset(m, 77, popularity=np.array([0]))
    with pytest.raises(ValueError):
        reset(m, 0, popularity=np.array([], dtype=np.int64))


def test_horizon_counts_the_popularity_step():
    m = _model(horizon=3, n_items=10)
    state = reset(m, 0, popularity=np.arange(10))
    steps = 0
    while not state.done:
        step(state, m, 6 + steps)
        steps += 1
    assert state.t == 3 and steps == 2  # reset consumed one of the three


def test_split_users_floor_and_determinism():
    users = np.arange(11)
    train, test = split_users(users, fraction=0.8, seed=4)
    assert train.size == 8 and test.size == 3  # floor(8.8)
    assert np.array_equal(np.sort(np.concatenate([train, test])), users)
    train2, test2 = split_users(users, fraction=0.8, seed=4)
    assert np.array_equal(train, train2) and np.array_equal(test, test2)
    train3, _ = split_users(users, fraction=0.8, seed=5)
    assert not np.array_equal(train, train3)
    with pytest.raises(ValueError):
        split_users(users, fraction=1.0)


def test_popularity_table_orders_and_restricts():
    items = np.array([3, 1, 3, 2, 1, 3, 7])
    table = popularity_table(items)
    assert table.tolist() == [3, 1, 2, 7]  # counts 3,2,1,1; ties by id
    table = popularity_table(items, restrict_to=[1, 2, 7])
    assert table.tolist() == [1, 2, 7]
    with pytest.raises(ValueError):
        popularity_table(np.array([], dtype=np.int64))


def test_preference_counts_match_brute_force():
    m = _model(n_users=6, n_items=9)
    users = np.array([1, 3, 5])
    items = np.arange(9)
    got = preference_counts(m, users, items)
    for row, u in enumerate(users):
        want = 0
        for i in items:
            raw = min(max(m.predict_raw(int(u), int(i)), m.rating_min), m.rating_max)
            want += raw > m.hit_threshold
        assert got[row] == want
