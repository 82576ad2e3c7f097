"""Biased-MF world model and the episode protocol around it."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import rel_error
from kgrec.simulator import (EpisodeState, SimulatorModel, _level_order, fit_mf,
                             instinctive_reward, popularity_table, preference_counts, reset,
                             split_users, step)
from oracles import fit_mf_loop, mf_loss_and_grads


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
    # each bad argument is named before the generator is built: the seed
    # "unused" would make np.random.default_rng raise a TypeError
    bad = [(dict(users=[-1, 0, 1], items=[0, -1, 1]), "users"),
           (dict(users=[0, 2, 1]), "users"),
           (dict(items=[0, -1, 1]), "items"),
           (dict(items=[0, 1, 2]), "items"),
           (dict(dim=0), "dim"),
           (dict(epochs=-2), "epochs"),
           (dict(learning_rate=float("nan")), "learning_rate"),
           (dict(learning_rate=-0.01), "learning_rate"),
           (dict(learning_rate=float("inf")), "learning_rate"),
           (dict(reg=-0.1), "reg"),
           (dict(reg=float("nan")), "reg"),
           (dict(ratings=[4.0, float("nan"), 3.0]), "ratings"),
           (dict(ratings=[4.0, 2.0, float("-inf")]), "ratings"),
           (dict(hit_threshold=float("nan")), "hit_threshold"),
           (dict(hit_threshold=float("inf")), "hit_threshold"),
           (dict(eta=float("nan")), "eta"),
           (dict(eta=float("-inf")), "eta"),
           (dict(horizon=0), "horizon"),
           (dict(horizon=-3), "horizon")]
    for change, name in bad:
        args = dict(users=users, items=items, ratings=ratings, n_users=2, n_items=2, dim=2,
                    epochs=5, learning_rate=0.01, reg=0.02, seed="unused")
        args.update(change)
        with pytest.raises(ValueError, match=name):
            fit_mf(**args)
    # boundary protocol constants are accepted
    model = fit_mf(users, items, ratings, 2, 2, dim=2, epochs=1, hit_threshold=-7.5, eta=0.0,
                   horizon=1)
    assert (model.hit_threshold, model.eta, model.horizon) == (-7.5, 0.0, 1)
    # a nan threshold used to give a model that never reports a hit
    with pytest.raises(ValueError, match="hit_threshold"):
        fit_mf([0, 1, 0], [0, 1, 1], [4.0, 2.0, 3.0], 2, 2, dim=2, epochs=1,
               hit_threshold=float("nan"))


@st.composite
def _mf_problems(draw):
    n = draw(st.integers(1, 60))
    # 1-4 ids repeat heavily and chain many ratings into deep levels; a
    # wide id range leaves few levels of many ratings each
    spans = [draw(st.one_of(st.integers(1, 4), st.integers(5, 2000))) for _ in range(2)]
    users, items = (draw(st.lists(st.integers(0, span - 1), min_size=n, max_size=n))
                    for span in spans)
    ratings = draw(st.lists(st.one_of(st.sampled_from([1.0, 3.0, 5.0]), st.floats(0.0, 5.0)),
                            min_size=n, max_size=n))
    return dict(users=users, items=items, ratings=ratings,
                n_users=spans[0] + draw(st.integers(0, 3)),
                n_items=spans[1] + draw(st.integers(0, 3)),
                dim=draw(st.integers(1, 64)), epochs=draw(st.integers(0, 5)),
                learning_rate=draw(st.one_of(st.just(0.01), st.floats(0.0, 0.1))),
                reg=draw(st.one_of(st.just(0.02), st.floats(0.0, 0.2))),
                seed=draw(st.integers(0, 2**32 - 1)))


def _problem(users, items, dim=16, epochs=5, **sizes):
    return dict(users=users, items=items, ratings=[1.0 + k % 5 for k in range(len(users))],
                n_users=max(users) + 3, n_items=max(items) + 2, dim=dim, epochs=epochs,
                learning_rate=0.01, reg=0.02, seed=11) | sizes


@settings(max_examples=150, deadline=None)
@given(_mf_problems())
@example(_problem([3], [1]))  # a single rating
@example(_problem([2] * 9, [4] * 9))  # every rating on one (user, item) pair
@example(_problem(list(range(40)), list(range(40)), dim=64))  # one level per epoch
@example(_problem([0] * 30, list(range(30))))  # one chain: a level per rating
@example(_problem([0, 1] * 15, list(range(30))))  # two chains, interleaved by the permutation
@example(_problem([0, 1, 0, 2], [1, 0, 0, 2], n_users=5000, n_items=3000))  # sparse ids
@example(_problem([0, 1, 2], [2, 1, 1], epochs=0))  # no epoch: the initial draw
def test_level_fit_matches_per_rating_loop_bitwise(problem):
    got = fit_mf(**problem, rating_min=0.0, rating_max=5.0)
    want = fit_mf_loop(**problem, rating_min=0.0, rating_max=5.0)
    for name in ("user_factors", "item_factors", "user_bias", "item_bias", "global_mean",
                 "train_rmse"):
        a, b = np.asarray(getattr(got, name)), np.asarray(getattr(want, name))
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


@st.composite
def _rating_sequences(draw):
    span = draw(st.integers(1, 6))
    pairs = draw(st.lists(st.tuples(st.integers(0, span - 1), st.integers(0, 2 * span - 1)),
                          min_size=1, max_size=50))
    return pairs, draw(st.permutations(range(len(pairs))))


@settings(max_examples=200, deadline=None)
@given(_rating_sequences())
def test_level_order_keeps_every_row_in_sequence_and_is_shortest(sequence):
    pairs, perm = sequence
    users, items = (np.array(ids) for ids in zip(*pairs))
    order, bounds = _level_order(np.array(perm), users, items, 6, 12)
    n = len(pairs)
    assert sorted(order.tolist()) == list(range(n))
    assert bounds[0] == 0 and bounds[-1] == n
    assert all(a < b for a, b in zip(bounds, bounds[1:]))  # no empty level
    # from here on a rating is its position in the permuted sequence
    users, items = users[perm], items[perm]
    at = np.argsort(perm)[order]
    level = np.zeros(n, dtype=np.int64)
    for k, (start, stop) in enumerate(zip(bounds, bounds[1:]), start=1):
        members = at[start:stop]
        assert np.all(np.diff(members) > 0)  # sequence order within a level
        assert len(set(users[members])) == len(set(items[members])) == len(members)
        level[members] = k
    # longest chain of ratings linked by a shared user or item that ends at
    # each rating, over every earlier rating rather than the last one per row
    chain = np.zeros(n, dtype=np.int64)
    for j in range(n):
        linked = (users[:j] == users[j]) | (items[:j] == items[j])
        assert np.all(level[:j][linked] < level[j])
        chain[j] = 1 + chain[:j][linked].max(initial=0)
    assert len(bounds) - 1 == chain.max()
    assert level.tolist() == chain.tolist()


def test_default_scale_and_threshold_from_data():
    users = np.array([0, 0, 1])
    items = np.array([0, 1, 0])
    ratings = np.array([1.0, 5.0, 3.0])
    m = fit_mf(users, items, ratings, 2, 2, dim=2, epochs=1, seed=0)
    assert m.rating_min == 1.0 and m.rating_max == 5.0
    assert m.hit_threshold == 3.0  # scale midpoint


def test_predict_raw_rejects_ids_outside_the_model():
    m = _model()
    # mean, user bias, item bias, then the dot product, in that order
    want = m.global_mean + m.user_bias[1] + m.item_bias[2]
    assert m.predict_raw(1, 2) == float(want + float(m.user_factors[1] @ m.item_factors[2]))
    for user, item in ((4, 0), (0, 6), (-1, 0), (0, -1), (99, 99)):
        with pytest.raises(IndexError, match=rf"user {user}, item {item}"):
            m.predict_raw(user, item)


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


def test_zero_feedback_counts_as_a_miss_for_the_streaks():
    # raw 3.0 is the scale midpoint: normalized feedback exactly 0.0
    eta = 0.25
    m = _scripted_model([4.0, 3.0, 3.0], eta=eta, horizon=3)
    state = EpisodeState(user=0)
    step(state, m, 0)
    r1, _ = step(state, m, 1)  # counters were (1, 0)
    assert (state.records[1].normalized, r1) == (0.0, eta)
    assert (state.pos_streak, state.neg_streak) == (0, 1)
    r2, _ = step(state, m, 2)  # counters were (0, 1)
    assert r2 == -eta
    assert (state.pos_streak, state.neg_streak) == (0, 2)


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


def _hits(m, users, items):
    """Per user, the items whose instinctive_reward is a hit: step's rule."""
    return [sum(instinctive_reward(m, int(u), int(i))[2] for i in items) for u in users]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_users=st.integers(1, 4), n_items=st.integers(1, 6),
       dim=st.integers(1, 64))
def test_preference_counts_are_the_hits_of_instinctive_reward(seed, n_users, n_items, dim):
    """With the threshold on each pair's predict_raw rating and one ulp below
    it, the counts equal step's hits: each pair's rating in preference_counts
    has predict_raw's bytes (the scale is wide enough that nothing clamps)."""
    rng = np.random.default_rng(seed)
    m = SimulatorModel(user_factors=rng.standard_normal((n_users, dim)),
                       item_factors=rng.standard_normal((n_items, dim)),
                       user_bias=rng.standard_normal(n_users),
                       item_bias=rng.standard_normal(n_items),
                       global_mean=3.0, rating_min=-1e3, rating_max=1e3, hit_threshold=0.0)
    users, items = np.arange(n_users), np.arange(n_items)
    assert preference_counts(m, users, items).tolist() == _hits(m, users, items)
    for u in range(n_users):
        for i in range(n_items):
            rating = m.predict_raw(u, i)
            for m.hit_threshold in (rating, np.nextafter(rating, -np.inf)):
                assert preference_counts(m, users, items).tolist() == _hits(m, users, items)


def test_preference_counts_follow_step_where_a_gemm_rounds_differently():
    """A (users x d) @ (d x items) product rounds some ratings of this model
    differently from predict_raw's per-pair dot; with the threshold on the
    lower of a differing pair's two ratings, only one form scores that pair a
    hit, and the counts must take step's."""
    rng = np.random.default_rng(29)
    n_users, n_items, dim = 40, 100, 50
    m = SimulatorModel(user_factors=rng.standard_normal((n_users, dim)) * 0.3,
                       item_factors=rng.standard_normal((n_items, dim)) * 0.3,
                       user_bias=rng.standard_normal(n_users) * 0.2,
                       item_bias=rng.standard_normal(n_items) * 0.2,
                       global_mean=3.0, rating_min=-1e3, rating_max=1e3, hit_threshold=3.0)
    gemm = (m.global_mean + m.user_bias[:, None] + m.item_bias[None, :]
            + m.user_factors @ m.item_factors.T)
    per_pair = np.array([[m.predict_raw(u, i) for i in range(n_items)] for u in range(n_users)])
    differ = np.argwhere(gemm != per_pair)
    if not len(differ):
        pytest.skip("this BLAS rounds the gemm as the per-pair dot")
    u, i = differ[0]
    m.hit_threshold = min(gemm[u, i], per_pair[u, i])
    users, items = np.arange(n_users), np.arange(n_items)
    assert preference_counts(m, users, items).tolist() == _hits(m, users, items)


@pytest.mark.parametrize("users, items, needle", [
    ([-1], [0], "user -1"), ([4], [0], "user 4"), ([0], [-2], "item -2"), ([0], [6], "item 6"),
])
def test_preference_counts_reject_ids_outside_the_model(users, items, needle):
    with pytest.raises(IndexError, match=f"^{needle} outside the model"):
        preference_counts(_model(), users, items)
