"""Agent tests: dueling heads, double-Q targets, replay, schedules,
variant wiring, training smoke runs and checkpoint round trips."""

import os
from dataclasses import asdict

import numpy as np
import pytest

import kgrec.agent as agent_module
import kgrec.transe as transe_module
from conftest import finite_difference, rel_error
from kgrec.agent import (
    AgentParameters,
    EmbeddingSource,
    Environment,
    Experience,
    Mlp,
    QNetParameters,
    ReplayBuffer,
    TrainConfig,
    VARIANTS,
    build_candidates,
    compute_targets,
    double_q_targets,
    epsilon_at,
    epsilon_greedy,
    evaluate_policy,
    initialize_parameters,
    load_checkpoint,
    q_rows,
    run_training_episode,
    save_checkpoint,
    score_candidates,
    select_action,
    soft_update,
    td_loss,
    train,
    variant_flags,
)
from kgrec.autodiff import Tape, Tensor, sigmoid
from kgrec.encoder import GcnParameters, GruParameters
from kgrec.experiments import build_environment, curve_csv_text, ingest, parse_config_text
from kgrec.graph import build_graph
from kgrec.simulator import fit_mf
from kgrec.synth import SynthSpec, generate, write_dataset
from kgrec.transe import TranseConfig
from oracles import (candidate_items_bfs, compute_targets_per_sample, fold_history_np,
                     q_value, sigmoid_masked, transe_loss_and_grads_add_at)


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


@pytest.mark.parametrize("value_input", ["state", "item"])
def test_score_candidates_matches_taped_q(value_input):
    rng = np.random.default_rng(13)
    qnet = _qnet(rng, dim=4, value_input=value_input)
    h = rng.standard_normal(4)
    vecs = rng.standard_normal((6, 4))
    scores = score_candidates(qnet, h, vecs)
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
    plain = score_candidates(qnet, h, vecs, center=False)
    centered = score_candidates(qnet, h, vecs, center=True)
    a = qnet.advantage.forward_np(
        np.concatenate([np.tile(h, (7, 1)), vecs], axis=1))[:, 0]
    assert np.argmax(plain) == np.argmax(centered)
    np.testing.assert_allclose(centered, plain - a.mean(), atol=1e-12)


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
    rng = np.random.default_rng(0)
    got = {e.action for e in buf.sample(10, rng)}
    assert got == {2, 3, 4}
    buf.add(_exp(5))
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
    ("transe_negatives", 0, "negatives"), ("transe_lr", float("nan"), "learning_rate"),
    ("transe_lr", -1e-3, "learning_rate"), ("transe_margin", float("inf"), "margin"),
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


# -- candidate construction ----------------------------------------------


def test_build_candidates_khop_and_fallback():
    env = _tiny_world()
    graph = _ring_graph(8)
    cfg = _cfg(hops=1, candidate_size=10)
    # no clicks yet: full unseen catalog, sorted
    assert build_candidates(env, graph, cfg, [], set()) == tuple(range(8))
    assert build_candidates(env, graph, cfg, [], {2, 5}) == (0, 1, 3, 4, 6, 7)
    # one click on item 0: the ring offers exactly its 1-hop successor
    assert build_candidates(env, graph, cfg, [0], set()) == (1,)
    # everything the graph reaches is already shown -> catalog fallback
    got = build_candidates(env, graph, cfg, [0], {1})
    assert got == (0, 2, 3, 4, 5, 6, 7)


def test_build_candidates_truncation_and_unbounded():
    env = _tiny_world()
    graph = _ring_graph(8)
    by_hops = build_candidates(env, graph, _cfg(hops=3, candidate_size=2), [0], set())
    assert by_hops == (1, 2)  # nearer hops win the cut
    unbounded = build_candidates(env, graph, _cfg(hops=3, candidate_size=None), [0], set())
    assert unbounded == (1, 2, 3)


def test_build_candidates_selection_off_uses_catalog():
    env = _tiny_world()
    graph = _ring_graph(8)
    cfg = _cfg(candidate_selection=False)
    assert build_candidates(env, graph, cfg, [0], {0}) == tuple(range(1, 8))


def test_catalog_fallback_shares_item_ids():
    env = _tiny_world()
    env.items = np.arange(1000, 1008)
    cfg = _cfg(candidate_selection=False)
    first = build_candidates(env, None, cfg, [], {1003})
    again = build_candidates(env, None, cfg, [], set())
    assert first == (1000, 1001, 1002, 1004, 1005, 1006, 1007)
    assert all(type(i) is int for i in again)
    assert first[0] is again[0]  # one int object per item, not one per fallback
    env.items = np.arange(4)  # a new items array is picked up
    assert build_candidates(env, None, cfg, [], {2}) == (0, 1, 3)


# -- targets and loss ----------------------------------------------------


def test_sigmoid_matches_masked_form_bitwise():
    tiny = np.finfo(np.float64).smallest_subnormal
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, tiny, -tiny,
                        1e-310, -1e-310, 1e-300, -1e-300, 1e3, -1e3, 709.8, -745.2, 36.0, -36.0])
    rng = np.random.default_rng(4)
    x = np.concatenate([special, rng.standard_normal(997) * 12.0, rng.standard_normal(64)])
    got = sigmoid(x)
    want = sigmoid_masked(x)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


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
    qo = score_candidates(params.qnet, h, vecs)
    qt = score_candidates(target, h, vecs)
    want0 = 0.5 + 0.9 * qt[int(np.argmax(qo))]
    np.testing.assert_allclose(got, [want0, -0.25], atol=1e-12)

    broken = [Experience(observation=(), action=0, reward=0.0,
                         next_observation=(0,), next_candidates=(),
                         terminal=False)]
    with pytest.raises(ValueError):
        compute_targets(broken, params, target, gamma=0.9)


def test_compute_targets_folds_each_prefix_once(monkeypatch):
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
    step_once = agent_module.gru_step_np
    monkeypatch.setattr(agent_module, "gru_step_np",
                        lambda *args: steps.append(args) or step_once(*args))
    got = compute_targets(batch, params, target, 0.9, center=True)
    assert np.array_equal(got, want)
    # one step per distinct non-empty prefix: (0,) (0, 1) (0, 1, 2) (1,) (1, 0) (2,)
    assert len(steps) == 6


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


def test_training_episode_fills_buffer_with_chained_transitions():
    env = _tiny_world()
    cfg = _mf_cfg()
    params, _ = initialize_parameters(env, None, cfg, seed=1)
    buf = ReplayBuffer(64)
    records = run_training_episode(params, env, None, cfg, user=0, epsilon=0.3,
                                   rng=np.random.default_rng(2), buffer=buf)
    assert len(records) == cfg.horizon
    assert len(buf) == cfg.horizon
    batch = buf._items
    assert batch[0].observation == ()
    assert batch[0].action == int(env.popularity[0])
    actions = [e.action for e in batch]
    assert len(set(actions)) == len(actions)  # no-repeat protocol
    for prev, nxt in zip(batch, batch[1:]):
        assert prev.next_observation == nxt.observation
    for e in batch[:-1]:
        assert not e.terminal
        assert e.next_candidates
    assert batch[-1].terminal
    assert batch[-1].next_candidates == ()


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


def test_cached_paths_reproduce_reference_training(tmp_path, monkeypatch):
    # the same training with the cached graph rows, the shared prefix folds,
    # the unmasked sigmoid and the ordered TransE scatter swapped for their
    # plain reference forms
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

    monkeypatch.setattr(agent_module, "candidate_items", reference_candidates)
    monkeypatch.setattr(agent_module, "compute_targets", compute_targets_per_sample)
    monkeypatch.setattr(agent_module, "sigmoid", sigmoid_masked)
    monkeypatch.setattr(transe_module, "transe_loss_and_grads", transe_loss_and_grads_add_at)
    _, _, reference = train(env, ds.graph, cfg, seed=3)
    # both the linked candidates and the catalog fallback were exercised
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

    with pytest.raises(ValueError):
        evaluate_policy(params, env, graph, cfg, mode="softmax")
    with pytest.raises(ValueError):
        evaluate_policy(None, env, None, cfg, mode="random", rng=None)


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
    assert meta["gcn_layers"] == 0
    assert loaded.source.gcn is None
    assert np.array_equal(loaded.source.base.data, params.source.base.data)
