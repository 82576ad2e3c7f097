"""Agent tests: dueling heads, double-Q targets, replay, schedules,
variant wiring, training smoke runs and checkpoint round trips."""

import gc
import json
import os
import re
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kgrec.agent as agent_module
import kgrec.experiments as experiments_module
import kgrec.transe as transe_module
from conftest import finite_difference, rel_error
from kgrec.agent import (
    AgentParameters,
    EmbeddingSource,
    Environment,
    Experience,
    Mlp,
    QNetParameters,
    QScorer,
    ReplayBuffer,
    SCORE_BLOCK,
    TrainConfig,
    VARIANTS,
    build_candidates,
    compute_targets,
    epsilon_at,
    evaluate_policy,
    initialize_parameters,
    load_checkpoint,
    q_rows,
    run_training_episode,
    save_checkpoint,
    score_candidates,
    segment_argmax,
    soft_update,
    td_loss,
    train,
    unseen_items,
    variant_flags,
)
from kgrec.autodiff import Tape, Tensor
from kgrec.encoder import GcnParameters, GruParameters
from kgrec.experiments import build_environment, curve_csv_text, ingest, parse_config_text
from kgrec.graph import build_graph
from kgrec.simulator import fit_mf, preference_counts
from kgrec.synth import SynthSpec, generate, write_dataset
from kgrec.transe import TranseConfig
from oracles import (ReplayBufferArrays, candidate_items_bfs, catalog_fallback_isin,
                     compute_targets_per_sample, double_q_targets, episode_per_state,
                     epsilon_greedy, fit_mf_loop, encode_rows_taped, fold_history_np, q_value,
                     score_candidates_alloc, select_action, transe_loss_and_grads_add_at)


def _qnet(rng, dim, hidden=5, value_input="state"):
    qnet = QNetParameters(value=Mlp.init(dim, hidden, rng),
                          advantage=Mlp.init(2 * dim, hidden, rng),
                          value_input=value_input)
    # nudge the zero-initialized biases so zero-history states do not sit
    # exactly on the relu kink (finite differences straddle it otherwise)
    for t in qnet.tensors():
        t.data = t.data + rng.standard_normal(t.data.shape) * 0.1
    return qnet


def _ring_graph(n_items):
    # e0 -> e1 -> ... -> e0, one relation; item k linked to entity ek.
    triples = [(f"e{k}", "next", f"e{(k + 1) % n_items}") for k in range(n_items)]
    return build_graph(triples, {k: f"e{k}" for k in range(n_items)})


def _tiny_world(horizon=4, n_items=8, n_users=6, eta=0.1, seed=0):
    rng = np.random.default_rng(seed)
    users = np.repeat(np.arange(n_users), n_items)
    items = np.tile(np.arange(n_items), n_users)
    ratings = np.round(rng.uniform(1.0, 5.0, size=users.size) * 2) / 2
    model = fit_mf(users, items, ratings, n_users=n_users, n_items=n_items,
                   dim=4, epochs=8, seed=3, rating_min=1.0, rating_max=5.0,
                   eta=eta, horizon=horizon)
    return Environment(model=model, popularity=np.arange(n_items),
                       train_users=np.arange(n_users - 2),
                       test_users=np.arange(n_users - 2, n_users),
                       items=np.arange(n_items),
                       train_interactions=(users, items, ratings))


def _cfg(**kw):
    base = dict(horizon=4, embedding_dim=4, hidden_width=8, hops=1,
                candidate_size=4, batch_size=8, buffer_capacity=64,
                interaction_budget=32, eval_every=16, learning_rate=0.01,
                transe_epochs=2, init_mf_epochs=3)
    base.update(kw)
    return TrainConfig(**base)


def _mf_cfg(**kw):
    return _cfg(kg_embeddings=False, gcn_propagation=False,
                candidate_selection=False, **kw)


# -- double-Q targets ----------------------------------------------------


def test_double_q_uses_online_argmax_not_target_max():
    # online prefers the second candidate; the target net happens to value
    # the first one much higher. Decoupled selection must yield -0.5, the
    # single-net max would yield 5.
    y = double_q_targets([0.0], [False],
                         [np.array([1.0, 2.0])], [np.array([10.0, -1.0])],
                         gamma=0.5)
    assert y.shape == (1,)
    assert y[0] == -0.5


def test_double_q_terminal_and_tie_handling():
    y = double_q_targets([0.7, 1.0], [True, False],
                         [np.empty(0), np.array([3.0, 3.0])],
                         [np.empty(0), np.array([2.0, 9.0])],
                         gamma=0.9)
    assert y[0] == 0.7  # terminal: reward passes through untouched
    assert y[1] == 1.0 + 0.9 * 2.0  # tie broken toward the first candidate


def test_double_q_rejects_bad_candidate_arrays():
    with pytest.raises(ValueError):
        double_q_targets([0.0], [False], [np.empty(0)], [np.empty(0)], 0.9)
    with pytest.raises(ValueError):
        double_q_targets([0.0], [False],
                         [np.array([1.0, 2.0])], [np.array([1.0])], 0.9)


# -- dueling heads -------------------------------------------------------


@pytest.mark.parametrize("value_input", ["state", "item"])
def test_q_value_is_sum_of_heads(value_input):
    rng = np.random.default_rng(11)
    qnet = _qnet(rng, dim=4, value_input=value_input)
    s = rng.standard_normal(4)
    i = rng.standard_normal(4)
    tape = Tape()
    q = q_value(Tensor(s), Tensor(i), qnet, tape)
    vin = s if value_input == "state" else i
    v = qnet.value.forward_np(vin[None, :])[0, 0]
    a = qnet.advantage.forward_np(np.concatenate([s, i])[None, :])[0, 0]
    assert q.shape == ()
    assert abs(float(q.data) - (v + a)) <= 1e-12


@pytest.mark.parametrize("value_input", ["state", "item"])
def test_q_rows_matches_scalar_path(value_input):
    rng = np.random.default_rng(12)
    qnet = _qnet(rng, dim=3, value_input=value_input)
    states = rng.standard_normal((5, 3))
    items = rng.standard_normal((5, 3))
    tape = Tape()
    batched = q_rows(Tensor(states), Tensor(items), qnet, tape)
    assert batched.shape == (5,)
    for r in range(5):
        t2 = Tape()
        one = q_value(Tensor(states[r]), Tensor(items[r]), qnet, t2)
        assert abs(batched.data[r] - float(one.data)) <= 1e-12


def _score_one(qnet, h, vecs, center=False):
    """score_candidates on one state whose candidates are all rows of `vecs`."""
    return score_candidates(QScorer(qnet, vecs), h[None, :], np.arange(len(vecs)),
                            np.array([len(vecs)]), center)


@pytest.mark.parametrize("value_input", ["state", "item"])
def test_score_candidates_matches_taped_q(value_input):
    rng = np.random.default_rng(13)
    qnet = _qnet(rng, dim=4, value_input=value_input)
    h = rng.standard_normal(4)
    vecs = rng.standard_normal((6, 4))
    scores = _score_one(qnet, h, vecs)
    assert scores.shape == (6,)
    for c in range(6):
        tape = Tape()
        q = q_value(Tensor(h), Tensor(vecs[c]), qnet, tape)
        assert abs(scores[c] - float(q.data)) <= 1e-12


def test_advantage_centering_shifts_scores_not_argmax():
    rng = np.random.default_rng(14)
    qnet = _qnet(rng, dim=4)
    h = rng.standard_normal(4)
    vecs = rng.standard_normal((7, 4))
    plain = _score_one(qnet, h, vecs, center=False)
    centered = _score_one(qnet, h, vecs, center=True)
    a = qnet.advantage.forward_np(
        np.concatenate([np.tile(h, (7, 1)), vecs], axis=1))[:, 0]
    assert np.argmax(plain) == np.argmax(centered)
    np.testing.assert_allclose(centered, plain - a.mean(), atol=1e-12)


def _check_sets_against_per_state(qnet, states, matrix, sets, center):
    rows = np.concatenate(sets)
    got = score_candidates(QScorer(qnet, matrix), states, rows, np.array([len(c) for c in sets]),
                           center)
    assert got.shape == rows.shape
    start = 0
    for i, cands in enumerate(sets):
        want = score_candidates_alloc(qnet, states[i], matrix[cands], center)
        np.testing.assert_allclose(got[start:start + len(cands)], want, rtol=0, atol=1e-12)
        start += len(cands)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), value_input=st.sampled_from(["state", "item"]), center=st.booleans(),
       dim=st.integers(1, 6), hidden=st.integers(1, 9), n_rows=st.integers(1, 24),
       seed=st.integers(0, 2**32 - 1))
def test_batched_scoring_matches_per_state_form(data, value_input, center, dim, hidden,
                                                n_rows, seed):
    rng = np.random.default_rng(seed)
    matrix = rng.standard_normal((n_rows, dim)) * 3.0
    n_states = data.draw(st.integers(1, 6))
    sets = [rng.integers(0, n_rows, size=data.draw(st.integers(1, 2 * n_rows)))
            for _ in range(n_states)]
    _check_sets_against_per_state(_qnet(rng, dim, hidden, value_input),
                                  rng.standard_normal((n_states, dim)), matrix, sets, center)


@pytest.mark.parametrize("rows", [2000, 1999])
def test_scoring_blocks_match_per_state_form_at_wide_world_shapes(rows):
    # sets longer than SCORE_BLOCK cross blocks, and a block can hold parts
    # of several sets
    rng = np.random.default_rng(17)
    qnet = _qnet(rng, dim=16, hidden=32)
    matrix = rng.standard_normal((2000, 16))
    states = rng.standard_normal((3, 16))
    sets = [rng.permutation(2000)[:rows], rng.permutation(2000)[:7], rng.permutation(2000)]
    assert rows > SCORE_BLOCK
    for center in (False, True):
        _check_sets_against_per_state(qnet, states, matrix, sets, center)


def test_segment_argmax_tie_rules():
    q = np.array([1.0, 3.0, 3.0, 0.5, 2.0, 7.0, 7.0, 1.0])
    sizes = np.array([3, 1, 4])
    # the double-Q rule: the first position among a set's maxima
    assert segment_argmax(q, sizes, np.arange(len(q))).tolist() == [1, 3, 5]
    # the greedy rule: the lowest item id among a set's maxima
    ids = np.array([9, 5, 4, 8, 6, 3, 2, 1])
    assert segment_argmax(q, sizes, ids).tolist() == [4, 8, 2]
    # the largest key can win too, alone or tied
    assert segment_argmax(np.array([0.0, 1.0]), np.array([2]), np.array([3, 9])).tolist() == [9]
    everything_ties = segment_argmax(np.zeros(4), np.array([4]), np.array([7, 3, 9, 5]))
    assert everything_ties.tolist() == [3]


def test_soft_update_blends_and_validates():
    rng = np.random.default_rng(15)
    online = _qnet(rng, dim=3)
    target = _qnet(rng, dim=3)
    before = [t.data.copy() for t in target.tensors()]

    soft_update(online, target, 0.0)
    for t, b in zip(target.tensors(), before):
        assert np.array_equal(t.data, b)

    soft_update(online, target, 0.3)
    for t, o, b in zip(target.tensors(), online.tensors(), before):
        np.testing.assert_allclose(t.data, 0.3 * o.data + 0.7 * b, atol=1e-15)

    soft_update(online, target, 1.0)
    for t, o in zip(target.tensors(), online.tensors()):
        assert np.array_equal(t.data, o.data)

    for bad in (-0.1, 1.5):
        with pytest.raises(ValueError):
            soft_update(online, target, bad)


# -- action selection ----------------------------------------------------


def test_greedy_tie_breaks_toward_lowest_item_id():
    assert epsilon_greedy((7, 3, 9), np.array([1.0, 1.0, 0.0]), 0.0, None) == 3
    assert epsilon_greedy((7, 3, 9), np.array([1.0, 1.0, 1.0]), 0.0, None) == 3
    assert epsilon_greedy((7, 3, 9), np.array([0.0, 0.0, 2.0]), 0.0, None) == 9


def test_epsilon_greedy_validation():
    with pytest.raises(ValueError):
        epsilon_greedy((), np.empty(0), 0.0, None)
    with pytest.raises(ValueError):
        epsilon_greedy((1, 2), np.array([0.0, 1.0]), 0.5, None)
    # epsilon zero needs no generator
    assert epsilon_greedy((1, 2), np.array([0.0, 1.0]), 0.0, None) == 2
    # nor does the episode loop's pick, which needs one to explore
    env = _tiny_world()
    params, _ = initialize_parameters(env, None, _mf_cfg(), seed=0)
    with pytest.raises(ValueError, match="rng"):
        run_training_episode(params, env, None, _mf_cfg(), 0, 0.5, None, ReplayBuffer(8))


def test_epsilon_greedy_exploration_frequency():
    # P(greedy item) = (1 - eps) + eps / C; seeded, so the bound is stable.
    rng = np.random.default_rng(16)
    items = (0, 1, 2, 3)
    q = np.array([0.0, 0.0, 1.0, 0.0])
    eps, n = 0.5, 8000
    picks = np.array([epsilon_greedy(items, q, eps, rng) for _ in range(n)])
    p = (1 - eps) + eps / len(items)
    sigma = np.sqrt(p * (1 - p) / n)
    assert abs(np.mean(picks == 2) - p) < 3.5 * sigma
    for item in (0, 1, 3):  # exploration reaches every candidate
        assert np.any(picks == item)


# -- replay buffer -------------------------------------------------------


def _exp(action):
    return Experience(observation=(), action=action, reward=0.0,
                      next_observation=(), next_candidates=(), terminal=True)


def test_replay_ring_overwrites_oldest():
    buf = ReplayBuffer(3)
    for k in range(5):
        buf.add(_exp(k))
    assert len(buf) == 3
    assert [e.action for e in buf] == [2, 3, 4]  # oldest first
    rng = np.random.default_rng(0)
    got = {e.action for e in buf.sample(10, rng)}
    assert got == {2, 3, 4}
    buf.add(_exp(5))
    assert [e.action for e in buf] == [3, 4, 5]
    got = {e.action for e in buf.sample(10, rng)}
    assert got == {3, 4, 5}


def test_replay_sampling_without_replacement():
    buf = ReplayBuffer(10)
    for k in range(6):
        buf.add(_exp(k))
    rng = np.random.default_rng(1)
    for _ in range(20):
        batch = buf.sample(4, rng)
        actions = [e.action for e in batch]
        assert len(actions) == 4
        assert len(set(actions)) == 4


def test_experience_compares_and_hashes_by_identity():
    a, b = (Experience(observation=(1,), action=2, reward=0.5, next_observation=(1, 2),
                       next_candidates=np.array([3, 4]), terminal=False) for _ in range(2))
    assert a == a and a != b
    assert [a, b].index(b) == 1 and b in [a, b]
    assert hash(a) == hash(a) and len({a, b, a}) == 2


def _transition_bytes(e):
    return (e.observation, e.action, np.float64(e.reward).tobytes(), e.next_observation,
            e.next_candidates.dtype.str, e.next_candidates.tobytes(), e.terminal)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), variant=st.sampled_from(["full", "no-cs", "mf-base"]),
       capacity=st.integers(1, 40), episodes=st.integers(1, 12),
       epsilon=st.sampled_from([0.0, 0.5, 1.0]), batch_size=st.integers(1, 50))
def test_replay_samples_match_the_array_buffer(seed, variant, capacity, episodes, epsilon,
                                               batch_size):
    env = _tiny_world()
    kg, gcn, cs = variant_flags(variant)
    graph = _ring_graph(8) if kg else None
    cfg = _cfg(kg_embeddings=kg, gcn_propagation=gcn, candidate_selection=cs,
               candidate_size=2)
    params, _ = initialize_parameters(env, graph, cfg, seed=1)
    compact, arrays = ReplayBuffer(capacity), ReplayBufferArrays(capacity)
    for buf in (compact, arrays):  # the same episodes, wrapping the ring when longer
        rng = np.random.default_rng(seed)
        for k in range(episodes):
            user = int(env.train_users[k % len(env.train_users)])
            run_training_episode(params, env, graph, cfg, user, epsilon, rng, buf)
    assert len(compact) == len(arrays) == min(capacity, episodes * cfg.horizon)
    rng_a, rng_b = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    for _ in range(3):
        got, want = compact.sample(batch_size, rng_a), arrays.sample(batch_size, rng_b)
        assert [_transition_bytes(e) for e in got] == [_transition_bytes(e) for e in want]
    assert rng_a.bit_generator.state == rng_b.bit_generator.state


def test_replay_memory_does_not_grow_with_the_catalog():
    n_items, horizon = 1000, 16
    env = _tiny_world(horizon=horizon, n_items=n_items)
    graph = _ring_graph(n_items)
    cfg = _cfg(candidate_selection=False, horizon=horizon)
    params, _ = initialize_parameters(env, graph, cfg, seed=1)
    rng = np.random.default_rng(0)
    run_training_episode(params, env, graph, cfg, 0, 0.5, rng, ReplayBuffer(1))  # warm caches
    held = {}
    for make in (ReplayBuffer, ReplayBufferArrays):
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            buf = make(1000)
            for user in np.tile(env.train_users, 4):
                run_training_episode(params, env, graph, cfg, int(user), 0.5, rng, buf)
            gc.collect()
            held[make] = (tracemalloc.get_traced_memory()[0] - before) / len(buf)
        finally:
            tracemalloc.stop()
        del buf
    # every set fell back to the catalog: about 8 B per catalog item each when kept whole
    assert held[ReplayBufferArrays] > 6 * n_items
    assert held[ReplayBuffer] < 1024


def test_replay_validation():
    with pytest.raises(ValueError):
        ReplayBuffer(0)
    buf = ReplayBuffer(2)
    with pytest.raises(ValueError):
        buf.sample(1, np.random.default_rng(0))


# -- schedules and config ------------------------------------------------


def test_epsilon_schedule_is_linear_then_flat():
    cfg = TrainConfig(interaction_budget=1000, epsilon_start=1.0,
                      epsilon_end=0.1, epsilon_decay_fraction=0.2)
    assert epsilon_at(0, cfg) == 1.0
    assert abs(epsilon_at(100, cfg) - 0.55) <= 1e-12
    assert abs(epsilon_at(200, cfg) - 0.1) <= 1e-12
    assert abs(epsilon_at(900, cfg) - 0.1) <= 1e-12
    zero = TrainConfig(epsilon_decay_fraction=0.0, epsilon_end=0.07)
    assert epsilon_at(0, zero) == 0.07


def test_config_validation_lattice():
    with pytest.raises(ValueError):
        TrainConfig(kg_embeddings=False, gcn_propagation=True).validate()
    with pytest.raises(ValueError):
        TrainConfig(kg_embeddings=False, gcn_propagation=False,
                    candidate_selection=True).validate()
    with pytest.raises(ValueError):
        TrainConfig(epsilon_start=0.1, epsilon_end=0.5).validate()
    with pytest.raises(ValueError):
        TrainConfig(horizon=0).validate()
    with pytest.raises(ValueError):
        TrainConfig(candidate_size=0).validate()
    with pytest.raises(ValueError):
        TrainConfig(value_input="both").validate()
    TrainConfig(candidate_size=None).validate()
    TrainConfig(kg_embeddings=True, gcn_propagation=False,
                candidate_selection=False).validate()


@pytest.mark.parametrize("field, value, named", [
    ("embedding_dim", 0, "embedding_dim"), ("transe_epochs", -3, "epochs"),
    ("transe_negatives", 0, "negatives"), ("transe_lr", float("nan"), "transe_lr"),
    ("transe_lr", -1e-3, "transe_lr"), ("transe_margin", float("inf"), "margin"),
    ("hidden_width", 0, "hidden_width"), ("learning_rate", float("nan"), "learning_rate"),
    ("learning_rate", -1e-3, "learning_rate"), ("learning_rate", float("inf"), "learning_rate"),
    ("eval_every", 0, "eval_every"), ("interaction_budget", 0, "interaction_budget"),
    ("buffer_capacity", 0, "buffer_capacity"), ("updates_per_episode", -1, "updates_per_episode"),
    ("gamma", 1.5, "gamma"), ("gamma", float("nan"), "gamma"), ("eval_gamma", -0.1, "eval_gamma"),
    ("eval_gamma", float("nan"), "eval_gamma"), ("tau", 2.0, "tau"),
    ("init_mf_epochs", -1, "init_mf_epochs"), ("init_mf_lr", float("nan"), "init_mf_lr"),
    ("init_mf_reg", -0.1, "init_mf_reg"),
])
def test_config_rejects_bad_embedding_settings(field, value, named):
    with pytest.raises(ValueError, match=f"{named} must be"):
        TrainConfig(**{field: value}).validate()


def test_transe_config_maps_fields():
    cfg = TrainConfig(embedding_dim=7, transe_margin=2.0, transe_negatives=3, transe_epochs=4,
                      transe_lr=0.5)
    assert cfg.transe_config() == TranseConfig(dim=7, margin=2.0, negatives=3, epochs=4,
                                               learning_rate=0.5)


def test_variant_flags_table():
    assert VARIANTS["full"] == (True, True, True)
    assert variant_flags("no-cs") == (True, True, False)
    assert variant_flags("frozen-emb") == (True, False, False)
    assert variant_flags("mf-base") == (False, False, False)
    with pytest.raises(ValueError, match="mf-base"):
        variant_flags("nope")


# -- parameter wiring per variant ----------------------------------------


def test_initialize_full_variant_trains_embeddings_and_gcn():
    env = _tiny_world()
    graph = _ring_graph(8)
    params, target = initialize_parameters(env, graph, _cfg(), seed=0)
    assert params.source.gcn is not None
    assert params.source.base.requires_grad
    # base + 2 gcn tensors per hop + 9 gru + 8 head tensors
    assert len(params.trainable()) == 1 + 2 * 1 + 9 + 8
    for po, pt in zip(params.qnet.tensors(), target.tensors()):
        assert po is not pt
        assert np.array_equal(po.data, pt.data)


def test_initialize_frozen_variant_excludes_base():
    env = _tiny_world()
    graph = _ring_graph(8)
    cfg = _cfg(gcn_propagation=False, candidate_selection=False)
    params, _ = initialize_parameters(env, graph, cfg, seed=0)
    assert params.source.gcn is None
    assert not params.source.base.requires_grad
    assert params.source.base not in params.trainable()
    assert len(params.trainable()) == 9 + 8


def test_initialize_mf_variant_needs_no_graph():
    env = _tiny_world()
    params, _ = initialize_parameters(env, None, _mf_cfg(), seed=0)
    assert params.source.gcn is None
    assert params.source.graph is None
    assert params.source.base.requires_grad
    assert np.array_equal(params.source.row_of_item, np.arange(8))
    assert len(params.trainable()) == 1 + 9 + 8


def test_initialize_rejects_unlinked_actions():
    env = _tiny_world()
    # links cover items 0..6 only; item 7 stays dangling
    triples = [(f"e{k}", "next", f"e{(k + 1) % 8}") for k in range(8)]
    graph = build_graph(triples, {k: f"e{k}" for k in range(7)})
    with pytest.raises(ValueError, match="without a KG link"):
        initialize_parameters(env, graph, _cfg(), seed=0)
    with pytest.raises(ValueError, match="graph"):
        initialize_parameters(env, None, _cfg(), seed=0)


def test_item_matrix_cache_follows_version():
    env = _tiny_world()
    params, _ = initialize_parameters(env, None, _mf_cfg(), seed=0)
    m1 = params.item_matrix_data()
    assert params.item_matrix_data() is m1
    params.source.base.data = params.source.base.data + 1.0
    assert params.item_matrix_data() is m1  # stale until the version moves
    params.version += 1
    m2 = params.item_matrix_data()
    assert m2 is not m1
    np.testing.assert_allclose(m2, m1 + 1.0, atol=1e-15)


def test_replace_does_not_carry_the_item_matrix_cache():
    env = _tiny_world()
    params, _ = initialize_parameters(env, None, _mf_cfg(), seed=0)
    matrix = params.item_matrix_data()
    heads = params.qnet.clone()
    for t in heads.tensors():
        t.data = t.data + 1.0
    other = replace(params, qnet=heads)
    scorer = other.item_matrix()[3]
    assert scorer.qnet is heads
    assert scorer.item_hidden.tobytes() == QScorer(heads, matrix).item_hidden.tobytes()


def test_replace_does_not_carry_the_preference_cache():
    env = _tiny_world()
    everything = env.test_preference_counts()
    want = preference_counts(env.model, env.test_users, np.arange(2))
    assert want.tolist() != everything.tolist()  # the narrower catalog counts fewer
    assert replace(env, catalog=np.arange(2)).test_preference_counts().tolist() == want.tolist()


# -- the item lookup -----------------------------------------------------


def _gapped_source(rng, dim=3):
    """Items 0, 1 and 3 on rows 0, 1 and 2 of a 3-row table; item 2 has none."""
    base = Tensor(rng.standard_normal((3, dim)), requires_grad=True)
    return EmbeddingSource(base=base, row_of_item=np.array([0, 1, -1, 2]))


@pytest.mark.parametrize("item", [-1, 4, 7])
def test_rows_of_an_item_outside_the_map_raise_naming_it(item):
    source = _gapped_source(np.random.default_rng(0))
    assert source.rows([3, 0, 1]).tolist() == [2, 0, 1]
    for missing in (item, 2):
        with pytest.raises(KeyError, match=f"^'item {missing} has no embedding row'$"):
            source.rows([0, missing, 2, 1])


@pytest.mark.parametrize("item", [2, -1, 7])
def test_a_history_item_without_a_row_raises_in_the_loss_and_the_targets(item):
    rng = np.random.default_rng(23)
    params = AgentParameters(source=_gapped_source(rng), gru=GruParameters.init(3, rng),
                             qnet=_qnet(rng, 3))
    target = params.qnet.clone()
    good = Experience(observation=(0,), action=1, reward=0.5, next_observation=(0, 1),
                      next_candidates=(3, 0), terminal=False)
    assert np.isfinite(compute_targets([good], params, target, 0.9)).all()
    assert np.isfinite(td_loss([good], params, np.zeros(1), Tape()).data)
    bad = replace(good, observation=(0, item), next_observation=(0, item, 1))
    needle = f"^'item {item} has no embedding row'$"
    with pytest.raises(KeyError, match=needle):
        compute_targets([good, bad], params, target, 0.9)
    with pytest.raises(KeyError, match=needle):
        td_loss([good, bad], params, np.zeros(2), Tape())


@pytest.mark.parametrize("row_of, needle", [
    (np.array([0, 5, -3]), "maps item 1 to row 5, not -1 or a row of the 3-row item table"),
    (np.array([0, -3]), "maps item 1 to row -3"),
    (np.array([0.0, 1.0]), "must be a 1-D integer array, got float64"),
    (np.array([[0, 1]]), r"must be a 1-D integer array, got int64\[1, 2\]"),
], ids=["past-the-table", "below-minus-one", "float", "2-D"])
def test_a_map_that_is_not_rows_of_the_table_fails_when_built(row_of, needle):
    with pytest.raises(ValueError, match=f"^row_of_item {needle}"):
        EmbeddingSource(base=Tensor(np.zeros((3, 2))), row_of_item=row_of)


# -- candidate construction ----------------------------------------------


def test_build_candidates_khop_and_fallback():
    env = _tiny_world()
    graph = _ring_graph(8)
    cfg = _cfg(hops=1, candidate_size=10)
    # no clicks yet: full unseen catalog, sorted
    got, fallback = build_candidates(env, graph, cfg, [], set())
    assert fallback and np.array_equal(got, np.arange(8))
    got, fallback = build_candidates(env, graph, cfg, [], {2, 5})
    assert fallback and np.array_equal(got, [0, 1, 3, 4, 6, 7])
    # one click on item 0: the ring offers exactly its 1-hop successor
    linked, fallback = build_candidates(env, graph, cfg, [0], set())
    assert not fallback and linked.dtype == np.int64 and np.array_equal(linked, [1])
    # everything the graph reaches is already shown -> catalog fallback
    got, fallback = build_candidates(env, graph, cfg, [0], {1})
    assert fallback and np.array_equal(got, [0, 2, 3, 4, 5, 6, 7])


def test_build_candidates_truncation_and_unbounded():
    env = _tiny_world()
    graph = _ring_graph(8)
    by_hops, _ = build_candidates(env, graph, _cfg(hops=3, candidate_size=2), [0], set())
    assert np.array_equal(by_hops, [1, 2])  # nearer hops win the cut
    unbounded, _ = build_candidates(env, graph, _cfg(hops=3, candidate_size=None), [0], set())
    assert np.array_equal(unbounded, [1, 2, 3])


def test_build_candidates_selection_off_uses_catalog():
    env = _tiny_world()
    graph = _ring_graph(8)
    cfg = _cfg(candidate_selection=False)
    got, fallback = build_candidates(env, graph, cfg, [0], {0})
    assert fallback and np.array_equal(got, np.arange(1, 8))


def test_catalog_fallback_is_items_order_array():
    env = _tiny_world()
    env.items = np.array([1005, 1000, 1007, 1003, 1001, 1006, 1002, 1004], dtype=np.int32)
    cfg = _cfg(candidate_selection=False)
    got, _ = build_candidates(env, None, cfg, [], {1003, 1007, 99})
    assert got.dtype == np.int64 and got.ndim == 1
    assert got.tolist() == [1005, 1000, 1001, 1006, 1002, 1004]  # `env.items` order
    everything, _ = build_candidates(env, None, cfg, [], set())
    assert everything.dtype == np.int64 and everything.tolist() == env.items.tolist()
    assert build_candidates(env, None, cfg, [], set(env.items.tolist()))[0].size == 0
    env.items = np.arange(4)  # a new items array is picked up
    assert np.array_equal(build_candidates(env, None, cfg, [], {2})[0], [0, 1, 3])


@settings(max_examples=200, deadline=None)
@given(items=st.lists(st.integers(0, 70), unique=True, max_size=40),
       shown=st.sets(st.integers(-3, 90), max_size=50), dtype=st.sampled_from([np.int32, np.int64]))
def test_catalog_fallback_matches_isin_form(items, shown, dtype):
    env = _tiny_world()
    env.items = np.array(items, dtype=dtype)
    got, fallback = build_candidates(env, None, _cfg(candidate_selection=False), [], shown)
    want = catalog_fallback_isin(env.items, shown)
    assert fallback and got.dtype == np.int64 and got.tolist() == want.tolist()
    # the replay's rebuild from the shown ids as an array
    again = unseen_items(env.items, np.array(sorted(shown), dtype=np.int64))
    assert again.dtype == np.int64 and again.tobytes() == got.tobytes()


# -- targets and loss ----------------------------------------------------


def _manual_source(rng, n_rows, dim):
    base = Tensor(rng.standard_normal((n_rows, dim)), requires_grad=True)
    return EmbeddingSource(base=base, row_of_item=np.arange(n_rows))


def test_compute_targets_matches_manual_double_q():
    rng = np.random.default_rng(21)
    dim = 3
    source = _manual_source(rng, 5, dim)
    params = AgentParameters(source=source,
                             gru=GruParameters.init(dim, rng),
                             qnet=_qnet(rng, dim))
    target = params.qnet.clone()
    for t in target.tensors():
        t.data = t.data + rng.standard_normal(t.data.shape) * 0.1
    batch = [
        Experience(observation=(0,), action=1, reward=0.5,
                   next_observation=(0, 1), next_candidates=(2, 3, 4),
                   terminal=False),
        Experience(observation=(2,), action=3, reward=-0.25,
                   next_observation=(2,), next_candidates=(), terminal=True),
    ]
    got = compute_targets(batch, params, target, gamma=0.9)

    matrix = params.item_matrix_data()
    h = fold_history_np(params.gru, matrix, params.source.rows((0, 1)))
    vecs = matrix[params.source.rows((2, 3, 4))]
    qo = score_candidates_alloc(params.qnet, h, vecs)
    qt = score_candidates_alloc(target, h, vecs)
    want0 = 0.5 + 0.9 * qt[int(np.argmax(qo))]
    np.testing.assert_allclose(got, [want0, -0.25], atol=1e-12)

    broken = [Experience(observation=(), action=0, reward=0.0,
                         next_observation=(0,), next_candidates=(),
                         terminal=False)]
    with pytest.raises(ValueError):
        compute_targets(broken, params, target, gamma=0.9)


def test_compute_targets_folds_the_batch_in_one_padded_pass(monkeypatch):
    rng = np.random.default_rng(22)
    dim = 3
    params = AgentParameters(source=_manual_source(rng, 5, dim),
                             gru=GruParameters.init(dim, rng), qnet=_qnet(rng, dim))
    target = params.qnet.clone()
    histories = [(), (0,), (0, 1), (0, 1), (0, 1, 2), (1, 0), (2,), (0,)]
    batch = [Experience(observation=(), action=0, reward=0.1 * i, next_observation=h,
                        next_candidates=(3, 4, 1), terminal=False)
             for i, h in enumerate(histories)]
    batch.append(Experience(observation=(0,), action=2, reward=1.0, next_observation=(0, 2),
                            next_candidates=(), terminal=True))
    want = compute_targets_per_sample(batch, params, target, 0.9, center=True)

    steps = []
    step_rows = agent_module.gru_step_np
    monkeypatch.setattr(agent_module, "gru_step_np",
                        lambda gru, h, x: steps.append(len(h)) or step_rows(gru, h, x))
    got = compute_targets(batch, params, target, 0.9, center=True)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    # one row block per step of the longest history, over the histories still running
    assert steps == [7, 4, 1]


def _gapped(params, e):
    """The gap between the online heads' two best Q values over e's next set."""
    matrix = params.item_matrix_data()
    h = fold_history_np(params.gru, matrix, params.source.rows(e.next_observation))
    q = np.sort(score_candidates_alloc(params.qnet, h, matrix[params.source.rows(
        e.next_candidates)]))
    return q[-1] - q[-2] if len(q) > 1 else np.inf


@settings(max_examples=100, deadline=None)
@given(data=st.data(), value_input=st.sampled_from(["state", "item"]), center=st.booleans(),
       n_items=st.integers(2, 30), seed=st.integers(0, 2**32 - 1))
def test_batched_targets_match_per_sample_form(data, value_input, center, n_items, seed):
    rng = np.random.default_rng(seed)
    dim = data.draw(st.integers(1, 5))
    params = AgentParameters(source=_manual_source(rng, n_items, dim),
                             gru=GruParameters.init(dim, rng),
                             qnet=_qnet(rng, dim, data.draw(st.integers(1, 8)), value_input))
    target = _qnet(rng, dim, params.qnet.value.w1.shape[0], value_input)
    item = st.integers(0, n_items - 1)
    batch = [Experience(observation=(), action=0, reward=float(rng.normal()),
                        next_observation=tuple(data.draw(st.lists(item, max_size=6))),
                        next_candidates=np.array(data.draw(st.lists(item, min_size=1,
                                                                    max_size=400, unique=True))),
                        terminal=data.draw(st.booleans()))
             for _ in range(data.draw(st.integers(0, 12)))]
    got = compute_targets(batch, params, target, 0.9, center)
    want = compute_targets_per_sample(batch, params, target, 0.9, center)
    assert got.shape == want.shape
    for k, e in enumerate(batch):
        if e.terminal or _gapped(params, e) > 1e-9:
            assert abs(got[k] - want[k]) <= 1e-12


def test_targets_over_several_candidate_groups_match_per_sample_form():
    rng = np.random.default_rng(24)
    params = AgentParameters(source=_manual_source(rng, 300, 6), gru=GruParameters.init(6, rng),
                             qnet=_qnet(rng, 6, 8))
    target = _qnet(rng, 6, 8)
    batch = [Experience(observation=(), action=0, reward=float(rng.normal()),
                        next_observation=tuple(rng.integers(0, 300, k % 7)),
                        next_candidates=rng.choice(300, int(rng.integers(50, 300)), replace=False),
                        terminal=k % 5 == 4)
             for k in range(40)]
    sets = [e.next_candidates for e in batch if not e.terminal]
    assert sum(map(len, sets)) > 4 * SCORE_BLOCK
    got = compute_targets(batch, params, target, 0.9)
    want = compute_targets_per_sample(batch, params, target, 0.9)
    for k, e in enumerate(batch):
        if e.terminal or _gapped(params, e) > 1e-9:
            assert abs(got[k] - want[k]) <= 1e-12


def test_target_heads_score_one_row_per_live_sample(monkeypatch):
    rng = np.random.default_rng(25)
    params = AgentParameters(source=_manual_source(rng, 40, 4), gru=GruParameters.init(4, rng),
                             qnet=_qnet(rng, 4))
    target = _qnet(rng, 4)
    batch = [Experience(observation=(), action=0, reward=0.1 * k,
                        next_observation=tuple(rng.integers(0, 40, k % 3)),
                        next_candidates=rng.choice(40, 5 + 3 * k, replace=False),
                        terminal=k % 4 == 3)
             for k in range(10)]
    live_sets = [len(e.next_candidates) for e in batch if not e.terminal]
    calls = []  # per score_candidates call: which heads, rows, sets
    scored = agent_module.score_candidates

    def spy(scorer, states, rows, sizes, center=False):
        heads = "online" if scorer.qnet is params.qnet else "target"
        calls.append((heads, len(rows), len(sizes)))
        return scored(scorer, states, rows, sizes, center)

    monkeypatch.setattr(agent_module, "score_candidates", spy)
    compute_targets(batch, params, target, 0.9)
    online = [c for c in calls if c[0] == "online"]
    assert sum(rows for _, rows, _ in online) == sum(live_sets)
    assert [c for c in calls if c[0] == "target"] == [("target", len(live_sets), len(live_sets))]

    calls.clear()
    ended = [Experience((), 0, 0.5 * k, (), np.empty(0, np.int64), True) for k in range(3)]
    assert compute_targets(ended, params, target, 0.9).tolist() == [0.0, 0.5, 1.0]
    assert calls == []

    # centering subtracts the target's mean advantage over the whole set
    compute_targets(batch, params, target, 0.9, center=True)
    scored = {heads: sum(rows for h, rows, _ in calls if h == heads)
              for heads in ("online", "target")}
    assert scored == {"online": sum(live_sets), "target": sum(live_sets)}


@pytest.mark.parametrize("value_input", ["state", "item"])
def test_targets_at_wide_world_shapes_match_per_sample_form(monkeypatch, value_input):
    # sets of about 2,000 ids, each alone in a group that spans two blocks
    rng = np.random.default_rng(26)
    n_items, dim = 2500, 16
    params = AgentParameters(source=_manual_source(rng, n_items, dim),
                             gru=GruParameters.init(dim, rng),
                             qnet=_qnet(rng, dim, 32, value_input))
    target = _qnet(rng, dim, 32, value_input)
    batch = [Experience(observation=(), action=0, reward=float(rng.normal()),
                        next_observation=tuple(rng.integers(0, n_items, k % 5)),
                        next_candidates=rng.choice(n_items, int(rng.integers(1900, 2048)),
                                                   replace=False),
                        terminal=k % 6 == 5)
             for k in range(12)]
    assert all(SCORE_BLOCK < len(e.next_candidates) <= 2 * SCORE_BLOCK for e in batch)
    matrix = params.item_matrix_data()  # builds this version's online QScorer
    picked = []
    scorer = agent_module.QScorer
    monkeypatch.setattr(agent_module, "QScorer",
                        lambda qnet, matrix: picked.append(matrix) or scorer(qnet, matrix))
    got = compute_targets(batch, params, target, 0.9)
    want = compute_targets_per_sample(batch, params, target, 0.9)
    live = [k for k, e in enumerate(batch) if not e.terminal]
    assert len(picked) == 1 and len(picked[0]) == len(live)
    for k, e in enumerate(batch):
        if e.terminal:
            assert got[k] == e.reward
        elif _gapped(params, e) > 1e-9:
            assert abs(got[k] - want[k]) <= 1e-12
            h = fold_history_np(params.gru, matrix, params.source.rows(e.next_observation))
            rows = params.source.rows(e.next_candidates)
            best = rows[int(np.argmax(score_candidates_alloc(params.qnet, h, matrix[rows])))]
            assert np.array_equal(picked[0][live.index(k)], matrix[best])


def _fd_batch():
    return [
        Experience(observation=(), action=1, reward=0.3,
                   next_observation=(1,), next_candidates=(0, 2), terminal=False),
        Experience(observation=(0,), action=2, reward=-0.2,
                   next_observation=(0, 2), next_candidates=(1, 3), terminal=False),
        Experience(observation=(1, 2), action=0, reward=0.5,
                   next_observation=(1, 2, 0), next_candidates=(), terminal=True),
    ]


def test_td_loss_gradients_match_finite_differences():
    rng = np.random.default_rng(22)
    dim = 3
    params = AgentParameters(source=_manual_source(rng, 4, dim),
                             gru=GruParameters.init(dim, rng),
                             qnet=_qnet(rng, dim, hidden=4))
    batch = _fd_batch()
    targets = np.array([0.3, -0.2, 0.5])
    trainable = params.trainable()

    tape = Tape()
    grads = tape.backward(td_loss(batch, params, targets, tape), wrt=trainable)

    def loss():
        return float(td_loss(batch, params, targets, Tape()).data)

    fd = finite_difference(loss, trainable)
    for t in trainable:
        assert rel_error(grads[t], fd[t]) <= 1e-4


def test_td_loss_gradients_flow_through_propagation():
    rng = np.random.default_rng(23)
    dim = 3
    graph = _ring_graph(4)
    base = Tensor(rng.standard_normal((4, dim)) + 0.5, requires_grad=True)
    source = EmbeddingSource(base=base, row_of_item=np.arange(4), graph=graph,
                             gcn=GcnParameters.init(dim, 1, rng))
    params = AgentParameters(source=source,
                             gru=GruParameters.init(dim, rng),
                             qnet=_qnet(rng, dim, hidden=4))
    batch = _fd_batch()
    targets = np.array([0.1, 0.0, -0.4])
    trainable = params.trainable()
    assert len(trainable) == 1 + 2 + 9 + 8

    tape = Tape()
    grads = tape.backward(td_loss(batch, params, targets, tape), wrt=trainable)

    def loss():
        return float(td_loss(batch, params, targets, Tape()).data)

    fd = finite_difference(loss, trainable)
    for t in trainable:
        assert rel_error(grads[t], fd[t]) <= 1e-4


# -- episodes and training -----------------------------------------------


@pytest.mark.parametrize("with_graph", [False, True])
@pytest.mark.parametrize("epsilon", [0.0, 0.3, 1.0])
def test_training_episode_fills_buffer_with_chained_transitions(epsilon, with_graph):
    env = _tiny_world()
    graph = _ring_graph(8) if with_graph else None
    cfg = _cfg() if with_graph else _mf_cfg()
    params, _ = initialize_parameters(env, graph, cfg, seed=1)
    buf = ReplayBuffer(64)
    records = run_training_episode(params, env, graph, cfg, user=0, epsilon=epsilon,
                                   rng=np.random.default_rng(2), buffer=buf)
    assert len(records) == cfg.horizon
    assert len(buf) == cfg.horizon
    batch = list(buf)
    assert batch[0].observation == ()
    assert batch[0].action == int(env.popularity[0])
    actions = [e.action for e in batch]
    assert len(set(actions)) == len(actions)  # no-repeat protocol
    assert actions == [r.item for r in records]
    for prev, nxt in zip(batch, batch[1:]):
        assert prev.next_observation == nxt.observation
        # the stored snapshot is the set the next action was chosen from
        assert nxt.action in prev.next_candidates
    for e in batch:
        assert e.next_candidates.dtype == np.int64
    for e in batch[:-1]:
        assert not e.terminal
        assert len(e.next_candidates)
    assert batch[-1].terminal
    assert len(batch[-1].next_candidates) == 0
    assert all(type(r.item) is int for r in records)


def test_train_is_deterministic_per_seed():
    env = _tiny_world()
    cfg = _mf_cfg()
    p1, t1, c1 = train(env, None, cfg, seed=5)
    p2, t2, c2 = train(env, None, cfg, seed=5)
    assert [(p.interactions, p.reward, p.precision, p.recall) for p in c1] == \
           [(p.interactions, p.reward, p.precision, p.recall) for p in c2]
    for a, b in zip(p1.trainable(), p2.trainable()):
        assert np.array_equal(a.data, b.data)
    for a, b in zip(t1.tensors(), t2.tensors()):
        assert np.array_equal(a.data, b.data)

    p3, _, c3 = train(env, None, cfg, seed=6)
    same_curve = all(x.reward == y.reward for x, y in zip(c1, c3))
    same_weights = all(np.array_equal(a.data, b.data)
                       for a, b in zip(p1.trainable(), p3.trainable()))
    assert not (same_curve and same_weights)


def test_train_curve_cadence_and_budget():
    env = _tiny_world()
    _, _, curve = train(env, None, _mf_cfg(), seed=7)
    assert [p.interactions for p in curve] == [0, 16, 32]
    for p in curve:
        assert np.isfinite(p.reward)
        assert 0.0 <= p.precision <= 1.0
        assert 0.0 <= p.recall <= 1.0


def test_train_rejects_mismatched_horizon_and_small_catalogs():
    env = _tiny_world(horizon=4)
    with pytest.raises(ValueError, match="horizon"):
        train(env, None, _mf_cfg(horizon=8), seed=0)
    short = _tiny_world(horizon=4)
    short.items = np.arange(2)
    with pytest.raises(ValueError, match="items"):
        train(short, None, _mf_cfg(), seed=0)


def test_full_variant_trains_end_to_end():
    env = _tiny_world()
    graph = _ring_graph(8)
    cfg = _cfg(candidate_size=6, interaction_budget=16)
    params, _, curve = train(env, graph, cfg, seed=0)
    assert params.source.gcn is not None
    assert curve[0].interactions == 0
    assert curve[-1].interactions == 16


def test_train_propagates_once_per_parameter_version(monkeypatch):
    # inference and the TD loss of one version share a single GCN
    # propagation: the loss continues that version's tape
    calls = []
    real = agent_module.propagate_all

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(agent_module, "propagate_all", counted)
    env = _tiny_world()
    cfg = _cfg(interaction_budget=64, eval_every=20)
    params, _, curve = train(env, _ring_graph(8), cfg, seed=0)
    assert params.version == 64 // cfg.horizon * cfg.updates_per_episode
    assert len(calls) == params.version + 1
    # the budget is no multiple of eval_every: a closing evaluation ends the curve
    assert [p.interactions for p in curve] == [0, 20, 40, 60, 64]


def test_cached_paths_reproduce_reference_training(tmp_path, monkeypatch):
    # the same world and training with the wave-scheduled simulator fit, the
    # cached graph rows, the ordered TransE scatter and the one-record GRU
    # fold swapped for their plain reference forms
    paths = write_dataset(str(tmp_path / "world"),
                          generate(SynthSpec(clusters=3, items_per_cluster=8, users=60,
                                             home_ratings_per_user=2, out_ratings_per_user=2,
                                             also_viewed_rate=0.1, seed=5)))
    config = parse_config_text(
        "horizon = 12\nhops = 2\ncandidate_size = 5\nembedding_dim = 6\nhidden_width = 8\n"
        "batch_size = 32\nbudget = 960\neval_every = 320\nlearning_rate = 0.01\n"
        "transe_epochs = 10\nsim_dim = 6\nsim_epochs = 10\n"
        + "".join(f"{key} = {path}\n" for key, path in paths.items()))
    ds = ingest(config)
    env = build_environment(ds, config)
    cfg = config.train_config()
    _, _, curve = train(env, ds.graph, cfg, seed=3)

    found = []

    def reference_candidates(*args, **kwargs):
        cs = candidate_items_bfs(*args, **kwargs)
        found.append(bool(cs))
        return cs

    fits = []

    def reference_fit(*args, **kwargs):
        fits.append(kwargs)
        return fit_mf_loop(*args, **kwargs)

    monkeypatch.setattr(experiments_module, "fit_mf", reference_fit)
    monkeypatch.setattr(agent_module, "fit_mf", reference_fit)
    monkeypatch.setattr(agent_module, "candidate_items", reference_candidates)
    monkeypatch.setattr(transe_module, "transe_loss_and_grads", transe_loss_and_grads_add_at)
    folds = []

    def reference_fold(*args):
        folds.append(args)
        return encode_rows_taped(*args)

    monkeypatch.setattr(agent_module, "encode_rows", reference_fold)
    _, _, reference = train(build_environment(ds, config), ds.graph, cfg, seed=3)
    # the world was refitted by the loop, the TD losses were taped per op,
    # and both the linked candidates and the catalog fallback were exercised
    assert fits and folds
    assert any(found) and not all(found)
    assert curve_csv_text(curve, 3) == curve_csv_text(reference, 3)


# -- evaluation ----------------------------------------------------------


def test_evaluate_policy_modes_and_validation():
    env = _tiny_world()
    graph = _ring_graph(8)
    cfg = _cfg()
    params, _ = initialize_parameters(env, graph, cfg, seed=3)
    a = evaluate_policy(params, env, graph, cfg)
    b = evaluate_policy(params, env, graph, cfg)
    assert [[r.item for r in log] for log in a] == [[r.item for r in log] for log in b]
    assert len(a) == len(env.test_users)
    for log in a:
        assert len(log) == cfg.horizon

    rand = evaluate_policy(None, env, None, cfg, mode="random",
                           rng=np.random.default_rng(4))
    for log in rand:
        items = [r.item for r in log]
        assert len(items) == cfg.horizon
        assert len(set(items)) == len(items)
        assert all(i in set(int(x) for x in env.items) for i in items)

    # random mode picks over the unseen catalog, never over k-hop candidates
    assert cfg.candidate_selection
    with_graph = evaluate_policy(None, env, graph, cfg, mode="random",
                                 rng=np.random.default_rng(4))
    assert [[r.item for r in log] for log in with_graph] == \
           [[r.item for r in log] for log in rand]

    with pytest.raises(ValueError):
        evaluate_policy(params, env, graph, cfg, mode="softmax")
    with pytest.raises(ValueError):
        evaluate_policy(None, env, None, cfg, mode="random", rng=None)
    with pytest.raises(ValueError, match="greedy"):
        evaluate_policy(None, env, graph, cfg, mode="greedy")
    env.items = np.arange(cfg.horizon - 1)  # the catalog runs out before the horizon
    with pytest.raises(ValueError, match="empty candidate set"):
        evaluate_policy(params, env, None, cfg)


def _agree_until_near_tie(got, want, gaps):
    """Records must agree up to the first pick whose two best Q values lie
    within 1e-9 (where rounding may pick the other one), that pick included
    when it is not near a tie."""
    near = [k for k, gap in enumerate(gaps) if gap <= 1e-9]
    upto = 1 + (near[0] if near else len(gaps))
    assert [r.item for r in got[:upto]] == [r.item for r in want[:upto]]
    if not near:
        assert got == want


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), with_graph=st.booleans(), center=st.booleans(),
       value_input=st.sampled_from(["state", "item"]), n_items=st.integers(8, 40))
def test_lockstep_greedy_matches_per_user_episodes(seed, with_graph, center, value_input,
                                                   n_items):
    env = _tiny_world(n_items=n_items, n_users=9, seed=seed % 1000)
    graph = _ring_graph(n_items) if with_graph else None
    kw = dict(advantage_center=center, value_input=value_input, candidate_size=5)
    cfg = _cfg(**kw) if with_graph else _mf_cfg(**kw)
    params, _ = initialize_parameters(env, graph, cfg, seed=seed)
    rng = np.random.default_rng(seed)
    for t in params.gru.tensors() + params.qnet.tensors():  # off the zero-bias start
        t.data = t.data + rng.standard_normal(t.data.shape) * 0.3
    logs = evaluate_policy(params, env, graph, cfg)
    assert len(logs) == len(env.test_users)
    for user, got in zip(env.test_users, logs):
        _agree_until_near_tie(got, *episode_per_state(params, env, graph, cfg, user))


def test_lockstep_greedy_over_several_candidate_groups_matches_per_user_episodes():
    env = _tiny_world(n_items=40, n_users=60)
    env.test_users = np.arange(60)  # 60 catalog-wide sets of up to 40 ids per step
    cfg = _mf_cfg(advantage_center=True)
    params, _ = initialize_parameters(env, None, cfg, seed=5)
    rng = np.random.default_rng(5)
    for t in params.gru.tensors() + params.qnet.tensors():
        t.data = t.data + rng.standard_normal(t.data.shape) * 0.3
    assert len(env.test_users) * (len(env.items) - cfg.horizon) > 2 * SCORE_BLOCK
    for user, got in zip(env.test_users, evaluate_policy(params, env, None, cfg)):
        _agree_until_near_tie(got, *episode_per_state(params, env, None, cfg, user))


@pytest.mark.parametrize("with_graph", [False, True])
@pytest.mark.parametrize("epsilon", [0.0, 0.3, 1.0])
def test_training_episode_draws_as_the_per_state_episode(epsilon, with_graph):
    env = _tiny_world()
    graph = _ring_graph(8) if with_graph else None
    cfg = _cfg() if with_graph else _mf_cfg()
    params, _ = initialize_parameters(env, graph, cfg, seed=4)
    for user in env.train_users:
        rng_a, rng_b = np.random.default_rng(user), np.random.default_rng(user)
        got = run_training_episode(params, env, graph, cfg, int(user), epsilon, rng_a,
                                   ReplayBuffer(64))
        _agree_until_near_tie(got, *episode_per_state(params, env, graph, cfg, user,
                                                      epsilon, rng_b))
        # the same draws, in the same order
        assert rng_a.bit_generator.state == rng_b.bit_generator.state


def test_environment_counts_preferences_over_catalog():
    env = _tiny_world()
    scoped = Environment(model=env.model, popularity=env.popularity,
                         train_users=env.train_users, test_users=env.test_users,
                         items=np.arange(4), train_interactions=env.train_interactions,
                         catalog=np.arange(8))
    full = env.test_preference_counts()
    narrowed = Environment(model=env.model, popularity=env.popularity,
                           train_users=env.train_users, test_users=env.test_users,
                           items=np.arange(4),
                           train_interactions=env.train_interactions)
    assert np.array_equal(scoped.test_preference_counts(), full)
    assert np.all(narrowed.test_preference_counts() <= full)


# -- checkpoints ---------------------------------------------------------


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    env = _tiny_world()
    graph = _ring_graph(8)
    cfg = _cfg(candidate_size=6, interaction_budget=16)
    params, target, _ = train(env, graph, cfg, seed=1)
    path = str(tmp_path / "agent.npz")
    save_checkpoint(path, params, target, cfg, config_hash="abc123",
                    interactions=4242)

    loaded, ltarget, lcfg, meta = load_checkpoint(path, graph=graph)
    assert asdict(lcfg) == asdict(cfg)
    assert meta["config_hash"] == "abc123"
    assert meta["interactions"] == 4242
    assert meta["version"] == params.version
    assert np.array_equal(loaded.source.base.data, params.source.base.data)
    assert np.array_equal(loaded.source.row_of_item, params.source.row_of_item)
    for a, b in zip(loaded.gru.tensors(), params.gru.tensors()):
        assert np.array_equal(a.data, b.data)
    for a, b in zip(loaded.qnet.tensors(), params.qnet.tensors()):
        assert np.array_equal(a.data, b.data)
        assert a.requires_grad
    for a, b in zip(ltarget.tensors(), target.tensors()):
        assert np.array_equal(a.data, b.data)
        assert not a.requires_grad
    assert loaded.source.base.requires_grad == params.source.base.requires_grad

    # greedy behaviour survives the round trip on random states
    rng = np.random.default_rng(9)
    for _ in range(100):
        hidden = rng.standard_normal(cfg.embedding_dim)
        k = int(rng.integers(2, 7))
        cands = tuple(int(x) for x in rng.choice(8, size=k, replace=False))
        assert (select_action(params, hidden, cands, 0.0, None)
                == select_action(loaded, hidden, cands, 0.0, None))

    # only the checkpoint itself is left behind
    assert sorted(os.listdir(tmp_path)) == ["agent.npz"]


def test_checkpoint_with_propagation_requires_graph(tmp_path):
    env = _tiny_world()
    graph = _ring_graph(8)
    cfg = _cfg()
    params, target = initialize_parameters(env, graph, cfg, seed=2)
    path = str(tmp_path / "agent.npz")
    save_checkpoint(path, params, target, cfg)
    with pytest.raises(ValueError, match="graph"):
        load_checkpoint(path)


def test_checkpoint_round_trip_without_graph(tmp_path):
    env = _tiny_world()
    cfg = _mf_cfg()
    params, target = initialize_parameters(env, None, cfg, seed=2)
    path = str(tmp_path / "mf.npz")
    save_checkpoint(path, params, target, cfg)
    loaded, _, _, meta = load_checkpoint(path)
    assert not meta["config"]["gcn_propagation"]
    assert loaded.source.gcn is None
    assert np.array_equal(loaded.source.base.data, params.source.base.data)


def _checkpoint_with_meta(tmp_path, meta_text) -> str:
    """A saved checkpoint whose meta array is replaced by `meta_text`, or,
    given a function, by the JSON of what it makes of the saved meta."""
    env = _tiny_world()
    cfg = _mf_cfg()
    params, target = initialize_parameters(env, None, cfg, seed=2)
    path = str(tmp_path / "mf.npz")
    save_checkpoint(path, params, target, cfg)
    with np.load(path) as data:
        arrays = dict(data)
    if callable(meta_text):
        meta_text = json.dumps(meta_text(json.loads(str(arrays["meta"]))))
    arrays["meta"] = np.array(meta_text)
    np.savez(path, **arrays)
    return path


def test_checkpoint_names_unknown_config_keys(tmp_path):
    def extended(meta):
        meta["config"].update(dropout=0.5, beta=1)
        return meta

    path = _checkpoint_with_meta(tmp_path, extended)
    with pytest.raises(ValueError) as err:
        load_checkpoint(path)
    assert path in str(err.value) and "beta, dropout" in str(err.value)


def test_checkpoint_names_a_meta_that_is_not_json(tmp_path):
    path = _checkpoint_with_meta(tmp_path, "{config: oops")
    with pytest.raises(ValueError, match=f"^{re.escape(path)}: checkpoint meta is not JSON"):
        load_checkpoint(path)


def test_checkpoint_names_a_meta_that_is_no_json_object(tmp_path):
    path = _checkpoint_with_meta(tmp_path, lambda meta: [meta])
    with pytest.raises(ValueError,
                       match=f"^{re.escape(path)}: checkpoint meta is not a JSON object$"):
        load_checkpoint(path)


@pytest.mark.parametrize("key, value", [("gamma", float("nan")), ("gamma", "0.9"),
                                        ("epsilon_decay_fraction", -1.0)])
def test_checkpoint_validates_its_config(tmp_path, key, value):
    def bad(meta):
        meta["config"][key] = value
        return meta

    path = _checkpoint_with_meta(tmp_path, bad)
    with pytest.raises(ValueError, match=f"^{re.escape(path)}: {key} must be"):
        load_checkpoint(path)


# the mf-base layout: the table p0, the GRU p1-p9, the heads p10-p17 and
# the target heads p18-p25
@pytest.mark.parametrize("drop", ["p0", "p8", "p25", "row_of_item", "meta", "config",
                                  "interactions", "config_hash", "version"])
def test_checkpoint_names_a_missing_array_or_meta_key(tmp_path, drop):
    env = _tiny_world()
    cfg = _mf_cfg()
    params, target = initialize_parameters(env, None, cfg, seed=2)
    path = str(tmp_path / "mf.npz")
    save_checkpoint(path, params, target, cfg)
    with np.load(path) as data:
        arrays = dict(data)
    meta = json.loads(str(arrays["meta"]))
    if drop in meta:
        del meta[drop]
        arrays["meta"] = np.array(json.dumps(meta))
    else:
        del arrays[drop]
    np.savez(path, **arrays)
    with pytest.raises(ValueError, match=f"^{re.escape(path)}: no '{drop}' in the checkpoint$"):
        load_checkpoint(path)


def _edited_checkpoint(tmp_path, edit) -> str:
    """A saved full-variant checkpoint (hops 2, embedding_dim 8, hidden_width
    8: the table p0, the GCN p1-p4, the GRU p5-p13, the heads p14-p21, the
    target heads p22-p29) after `edit(arrays, meta)` changed it in place."""
    cfg = _cfg(hops=2, embedding_dim=8, hidden_width=8)
    params, target = initialize_parameters(_tiny_world(), _ring_graph(8), cfg, seed=2)
    path = str(tmp_path / "agent.npz")
    save_checkpoint(path, params, target, cfg)
    with np.load(path) as data:
        arrays = dict(data)
    meta = json.loads(str(arrays["meta"]))
    edit(arrays, meta)
    arrays["meta"] = np.array(json.dumps(meta))
    np.savez(path, **arrays)
    return path


def _set_config(key, value):
    return lambda arrays, meta: meta["config"].update({key: value})


def _set_array(key, value):
    return lambda arrays, meta: arrays.update({key: value(arrays)})


@pytest.mark.parametrize("edit, key", [
    (_set_config("hops", 3), "p7"),  # a third hop's weights where the GRU's lie
    (_set_config("hops", 1), "p5"),
    (_set_config("embedding_dim", 16), "p0"),
    (_set_config("hidden_width", 4), "p14"),
    (_set_config("hops", 2.5), "hops"),
    (_set_array("p30", lambda arrays: np.zeros(3)), "p30"),
    (_set_array("row_of_item", lambda arrays: arrays["row_of_item"] * 1.0), "row_of_item"),
    (_set_array("row_of_item", lambda arrays: arrays["row_of_item"] + 8), "row_of_item"),
    (_set_array("row_of_item", lambda arrays: arrays["row_of_item"] - 9), "row_of_item"),
    (_set_array("p3", lambda arrays: np.full((8, 8), np.nan)), "p3"),
    (_set_array("p3", lambda arrays: np.ones((8, 8), np.float32)), "p3"),
], ids=["hops-3", "hops-1", "embedding_dim-16", "hidden_width-4", "hops-2.5", "extra-p30",
        "float-row_of_item", "row_of_item-past-p0", "row_of_item-below-minus-one", "nan-p3",
        "float32-p3"])
def test_checkpoint_that_disagrees_with_its_config_fails_naming_the_key(tmp_path, edit, key):
    path = _edited_checkpoint(tmp_path, edit)
    with pytest.raises(ValueError, match=rf"^{re.escape(path)}: {key}\b"):
        load_checkpoint(path, graph=_ring_graph(8))


def test_checkpoint_in_the_per_part_format_fails_naming_p0(tmp_path):
    def per_part(arrays, meta):
        for k in range(30):
            arrays[f"part{k}"] = arrays.pop(f"p{k}")
        meta.update(gcn_layers=2, base_trainable=True)

    path = _edited_checkpoint(tmp_path, per_part)
    with pytest.raises(ValueError, match=f"^{re.escape(path)}: no 'p0' in the checkpoint$"):
        load_checkpoint(path, graph=_ring_graph(8))


def test_initialization_and_loading_build_through_one_function(tmp_path, monkeypatch):
    built = []
    build = agent_module.build_parameters
    monkeypatch.setattr(agent_module, "build_parameters",
                        lambda *args: built.append(args[0]) or build(*args))
    path = _edited_checkpoint(tmp_path, lambda arrays, meta: None)
    _, _, cfg, _ = load_checkpoint(path, graph=_ring_graph(8))
    assert built == [cfg, cfg]


@pytest.mark.parametrize("content", [b"not an archive\n", "npy"])
def test_checkpoint_names_a_file_that_is_no_archive(tmp_path, content):
    path = str(tmp_path / "agent.npz")
    with open(path, "wb") as fh:
        if content == "npy":
            np.save(fh, np.zeros(3))
        else:
            fh.write(content)
    with pytest.raises(ValueError, match=f"^{re.escape(path)}: not a checkpoint archive"):
        load_checkpoint(path)


def _checkpoint_arrays(params, target):
    source = params.source
    tensors = [source.base, *(source.gcn.tensors() if source.gcn else ()),
               *params.gru.tensors(), *params.qnet.tensors(), *target.tensors()]
    return ([(a.dtype.str, a.shape, a.tobytes()) for a in
             [source.row_of_item] + [t.data for t in tensors]],
            [t.requires_grad for t in tensors])


@settings(max_examples=15, deadline=None)
@given(variant=st.sampled_from(["full", "no-cs", "mf-base"]),
       value_input=st.sampled_from(["state", "item"]), hops=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_checkpoint_round_trip_property(tmp_path_factory, variant, value_input, hops, seed):
    env = _tiny_world()
    kg, gcn, cs = variant_flags(variant)
    graph = _ring_graph(8) if kg else None
    cfg = _cfg(kg_embeddings=kg, gcn_propagation=gcn, candidate_selection=cs,
               value_input=value_input, hops=hops)
    params, target = initialize_parameters(env, graph, cfg, seed=seed % 1000)
    rng = np.random.default_rng(seed)
    for t in params.trainable() + target.tensors():  # off the initial values
        t.data = t.data + rng.standard_normal(t.data.shape) * 0.3
    params.version = int(rng.integers(0, 10_000))
    path = str(tmp_path_factory.mktemp("ckpt") / "agent.npz")
    save_checkpoint(path, params, target, cfg, config_hash="h", interactions=77)
    loaded, ltarget, lcfg, meta = load_checkpoint(path, graph=graph)
    assert _checkpoint_arrays(loaded, ltarget) == _checkpoint_arrays(params, target)
    assert lcfg == cfg
    assert meta == {"config": asdict(cfg), "config_hash": "h", "interactions": 77,
                    "version": params.version}
    assert (evaluate_policy(loaded, env, graph, lcfg)
            == evaluate_policy(params, env, graph, cfg))
