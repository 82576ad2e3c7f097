"""Acceptance gate: nine numbered criteria over the full stack.

Criteria 4-6 train the agent variants on a pinned clustered world
(5 clusters x 10 items, 200 train / 50 test users, T=16, eta=0.1) and
share one memoized run matrix; the reward threshold used by the
sample-efficiency criterion was measured once on a pilot of this exact
setup and is pinned below, with an in-test rederivation cross-check.
Each test prints one [criterion N] PASS/FAIL line (visible under -s).
"""

import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import finite_difference, rel_error
from kgrec.agent import (
    AgentParameters,
    EmbeddingSource,
    Experience,
    Mlp,
    QNetParameters,
    VARIANTS,
    evaluate_policy,
    load_checkpoint,
    q_rows,
    save_checkpoint,
    soft_update,
    td_loss,
    train,
)
from kgrec.autodiff import Tape, Tensor
from kgrec.encoder import GcnParameters, GruParameters, propagate_all
from kgrec.experiments import (
    build_environment,
    curve_csv_text,
    ingest,
    interactions_to_threshold,
    parse_config_text,
)
from kgrec.graph import KnowledgeGraph, candidate_items, k_hop_sets
from kgrec.metrics import (
    average_reward,
    episode_reward,
    precision_at_horizon,
    recall_at_horizon,
    wilcoxon_signed_rank,
)
from kgrec.simulator import (
    EpisodeState,
    SimulatorModel,
    fit_mf,
    step,
)
from kgrec.synth import SynthSpec, generate, write_dataset
from kgrec.transe import transe_loss_and_grads
from oracles import double_q_targets, gru_step, mf_loss_and_grads, q_value, select_action

SEEDS = (0, 1, 2)

# measured once via a pilot run of this exact configuration:
# random-policy mean + 50% of the full-variant gap (criterion 5's bar)
THRESHOLD = 0.10939201292430442
PIN_RANDOM = (-0.002015080721346181, 0.01933140915726012, 0.0031713929245403205)

WORLD = SynthSpec(clusters=5, items_per_cluster=10, users=250,
                  home_ratings_per_user=2, out_ratings_per_user=2,
                  noise=0.5, also_viewed_rate=0.6, seed=1)

CONFIG = """
ratings = {ratings}
triples = {triples}
links = {links}
out_dir = {out}
seeds = 0, 1, 2
seed = 7
eta = 0.1
horizon = 16
hops = 3
candidate_size = 20
embedding_dim = 16
hidden_width = 32
batch_size = 64
buffer_capacity = 4000
budget = 8000
eval_every = 500
learning_rate = 0.003
epsilon_decay_fraction = 0.2
transe_epochs = 200
transe_lr = 0.01
sim_dim = 16
sim_epochs = 40
"""


def _verdict(criterion: int, ok: bool, detail: str) -> None:
    badge = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {badge}: {detail}", flush=True)
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="session")
def lab(tmp_path_factory):
    root = tmp_path_factory.mktemp("accept")
    paths = write_dataset(str(root / "world"), generate(WORLD))
    config = parse_config_text(CONFIG.format(out=str(root / "out"), **paths))
    config.validate()
    ds = ingest(config)
    env = build_environment(ds, config)
    assert len(env.train_users) == 200 and len(env.test_users) == 50
    memo = {}

    def tcfg(variant, size):
        kg, gcn, cs = VARIANTS[variant]
        token = "all" if size is None else str(size)
        return replace(config, kg_embeddings=kg, gcn_propagation=gcn,
                       candidate_selection=cs, candidate_size=token).train_config()

    def run(variant, size, seed):
        key = (variant, "all" if size is None else str(size), seed)
        if key not in memo:
            cfg = tcfg(variant, size)
            memo[key] = train(env, ds.graph if cfg.kg_embeddings else None, cfg, seed)
        return memo[key]

    def random_reward(seed):
        cfg = tcfg("full", 20)
        logs = evaluate_policy(None, env, None, cfg, mode="random",
                               rng=np.random.default_rng(10_000 + seed))
        return average_reward(logs, cfg.resolved_eval_gamma())

    return SimpleNamespace(env=env, graph=ds.graph, tcfg=tcfg, run=run,
                           random_reward=random_reward)


# -- criterion 1: gradient suite -----------------------------------------


def _nudged_qnet(rng, dim, hidden=4):
    qnet = QNetParameters(value=Mlp.init(dim, hidden, rng),
                          advantage=Mlp.init(2 * dim, hidden, rng))
    for t in qnet.tensors():
        t.data = t.data + rng.standard_normal(t.data.shape) * 0.1
    return qnet


def _random_toy_graph(rng, n_ent):
    rows = []
    for h in range(n_ent):
        for t in rng.choice(n_ent, size=int(rng.integers(1, 4)), replace=False):
            rows.append((h, int(rng.integers(0, 2)), int(t)))
    return KnowledgeGraph(np.array(rows), n_ent, 2, {i: i for i in range(n_ent)})


def _check_taped(build, tensors):
    tape = Tape()
    grads = tape.backward(build(tape), wrt=tensors)
    fd = finite_difference(lambda: float(build(Tape()).data), tensors)
    return max(rel_error(grads[t], fd[t]) for t in tensors)


def _gcn_instance(rng):
    d = 3
    g = _random_toy_graph(rng, int(rng.integers(4, 9)))
    base = Tensor(rng.standard_normal((g.n_entities, d)) + 0.5, requires_grad=True)
    gcn = GcnParameters.init(d, int(rng.integers(1, 3)), rng)
    weights = rng.standard_normal((g.n_entities, d))

    def build(tape):
        out = propagate_all(g, base, gcn, tape)
        return tape.sum(tape.mul(out, Tensor(weights)))

    return build, [base] + gcn.tensors()


def _gru_instance(rng):
    d = 3
    gru = GruParameters.init(d, rng)
    xs = [Tensor(rng.standard_normal(d), requires_grad=True) for _ in range(3)]
    weights = rng.standard_normal(d)

    def build(tape):
        h = Tensor(np.zeros(d))
        for x in xs:
            h = gru_step(gru, h, x, tape)
        return tape.sum(tape.mul(h, Tensor(weights)))

    return build, gru.tensors() + xs


def _heads_instance(rng):
    d = 3
    qnet = _nudged_qnet(rng, d)
    states = Tensor(rng.standard_normal((4, d)), requires_grad=True)
    items = Tensor(rng.standard_normal((4, d)), requires_grad=True)
    weights = rng.standard_normal(4)

    def build(tape):
        q = q_rows(states, items, qnet, tape)
        return tape.sum(tape.mul(q, Tensor(weights)))

    return build, qnet.tensors() + [states, items]


def _fd_plain(fn, arrays, eps=1e-6):
    out = []
    for arr in arrays:
        grad = np.zeros_like(arr)
        flat, gflat = arr.ravel(), grad.ravel()
        for idx in range(flat.size):
            keep = flat[idx]
            flat[idx] = keep + eps
            hi = fn()
            flat[idx] = keep - eps
            lo = fn()
            flat[idx] = keep
            gflat[idx] = (hi - lo) / (2.0 * eps)
        out.append(grad)
    return out


def _transe_instance(rng):
    # resample until each pair is clear of the hinge boundary and the
    # distance kinks, so central differences see a smooth function
    while True:
        entities = rng.standard_normal((6, 4))
        relations = rng.standard_normal((2, 4))
        pos = np.stack([rng.integers(0, 6, 3), rng.integers(0, 2, 3),
                        rng.integers(0, 6, 3)], axis=1)
        neg = pos.copy()
        neg[:, 2] = rng.integers(0, 6, 3)
        d_p = np.linalg.norm(entities[pos[:, 0]] + relations[pos[:, 1]]
                             - entities[pos[:, 2]], axis=1)
        d_n = np.linalg.norm(entities[neg[:, 0]] + relations[neg[:, 1]]
                             - entities[neg[:, 2]], axis=1)
        if (np.all(np.abs(1.0 + d_p - d_n) > 1e-3)
                and np.all(d_p > 1e-3) and np.all(d_n > 1e-3)):
            break

    _, de, dr = transe_loss_and_grads(entities, relations, pos, neg, 1.0)
    fd_e, fd_r = _fd_plain(
        lambda: transe_loss_and_grads(entities, relations, pos, neg, 1.0)[0],
        [entities, relations])
    return max(rel_error(de, fd_e), rel_error(dr, fd_r))


def _mf_instance(rng):
    nu, ni, d, n = 4, 5, 3, 8
    uf = rng.standard_normal((nu, d)) * 0.3
    itf = rng.standard_normal((ni, d)) * 0.3
    ub = rng.standard_normal(nu) * 0.2
    ib = rng.standard_normal(ni) * 0.2
    users = rng.integers(0, nu, n)
    items = rng.integers(0, ni, n)
    ratings = rng.uniform(1.0, 5.0, n)

    _, du, di, dbu, dbi = mf_loss_and_grads(uf, itf, ub, ib, 3.0,
                                            users, items, ratings, reg=0.1)
    fds = _fd_plain(lambda: mf_loss_and_grads(uf, itf, ub, ib, 3.0,
                                              users, items, ratings, reg=0.1)[0],
                    [uf, itf, ub, ib])
    return max(rel_error(g, f) for g, f in zip((du, di, dbu, dbi), fds))


def _td_instance(rng, with_gcn):
    d = 3
    if with_gcn:
        g = _random_toy_graph(rng, 4)
        source = EmbeddingSource(
            base=Tensor(rng.standard_normal((4, d)) + 0.5, requires_grad=True),
            row_of_item=np.arange(4), graph=g, gcn=GcnParameters.init(d, 1, rng))
    else:
        source = EmbeddingSource(
            base=Tensor(rng.standard_normal((4, d)), requires_grad=True),
            row_of_item=np.arange(4))
    params = AgentParameters(source=source, gru=GruParameters.init(d, rng),
                             qnet=_nudged_qnet(rng, d))
    batch = []
    for _ in range(3):
        hist = tuple(rng.choice(4, size=int(rng.integers(0, 4)), replace=False).tolist())
        batch.append(Experience(observation=hist, action=int(rng.integers(0, 4)),
                                reward=float(rng.normal()), next_observation=hist,
                                next_candidates=(0,), terminal=True))
    targets = rng.standard_normal(3)
    trainable = params.trainable()
    tape = Tape()
    grads = tape.backward(td_loss(batch, params, targets, tape), wrt=trainable)
    fd = finite_difference(lambda: float(td_loss(batch, params, targets, Tape()).data),
                           trainable)
    return max(rel_error(grads[t], fd[t]) for t in trainable)


def test_criterion_1_gradient_suite():
    rng = np.random.default_rng(101)
    t0 = time.monotonic()
    worst = 0.0
    for trial in range(20):
        for maker in (_gcn_instance, _gru_instance, _heads_instance):
            build, tensors = maker(rng)
            worst = max(worst, _check_taped(build, tensors))
        worst = max(worst, _transe_instance(rng))
        worst = max(worst, _mf_instance(rng))
        worst = max(worst, _td_instance(rng, with_gcn=trial % 2 == 0))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-4 and elapsed < 60.0
    _verdict(1, ok, f"6 trainable paths x 20 instances, "
                    f"worst rel err {worst:.2e} (bar 1e-4), {elapsed:.1f}s (bar 60s)")


# -- criterion 2: equation fixtures --------------------------------------


def _scripted_model(raws, eta):
    raws = np.asarray(raws, dtype=np.float64)
    return SimulatorModel(user_factors=np.zeros((1, 1)),
                          item_factors=np.zeros((len(raws), 1)),
                          user_bias=np.zeros(1), item_bias=raws - 3.0,
                          global_mean=3.0, rating_min=1.0, rating_max=5.0,
                          hit_threshold=3.5, eta=eta, horizon=len(raws))


def test_criterion_2_equation_fixtures():
    tol = 1e-12
    checks = []
    rng = np.random.default_rng(102)

    # dueling sum: Q = V + A in both value-input modes
    for mode in ("state", "item"):
        qnet = _nudged_qnet(rng, 4)
        qnet.value_input = mode
        s, i = rng.standard_normal(4), rng.standard_normal(4)
        tape = Tape()
        q = float(q_value(Tensor(s), Tensor(i), qnet, tape).data)
        vin = s if mode == "state" else i
        v = qnet.value.forward_np(vin[None, :])[0, 0]
        a = qnet.advantage.forward_np(np.concatenate([s, i])[None, :])[0, 0]
        checks.append(abs(q - (v + a)) <= tol)

    # decoupled target: argmax by the online net, value by the target net
    y = double_q_targets([0.0], [False], [np.array([1.0, 2.0])],
                         [np.array([10.0, -1.0])], gamma=0.5)
    checks.append(abs(y[0] - (-0.5)) <= tol)

    # soft target blend at tau = 0.25
    online, target = _nudged_qnet(rng, 3), _nudged_qnet(rng, 3)
    before = [t.data.copy() for t in target.tensors()]
    soft_update(online, target, 0.25)
    checks.append(all(
        np.max(np.abs(t.data - (0.25 * o.data + 0.75 * b))) <= tol
        for t, o, b in zip(target.tensors(), online.tensors(), before)))

    # sequential reward: instinct + eta * (positive - negative streak)
    m = _scripted_model([4.0, 4.0, 4.0, 2.0, 2.0], eta=0.25)
    state = EpisodeState(user=0)
    rewards = [step(state, m, item)[0] for item in range(5)]
    want = [0.5, 0.75, 1.0, 0.25, -0.75]
    checks.append(all(abs(g - w) <= tol for g, w in zip(rewards, want)))

    # evaluation metrics on hand-sized logs
    rec = lambda r, h: SimpleNamespace(reward=r, hit=h)
    ep_a = [rec(1.0, True), rec(0.5, False), rec(0.25, True), rec(0.0, False)]
    ep_b = [rec(0.5, True), rec(0.5, True), rec(0.5, True), rec(0.5, False)]
    checks.append(abs(episode_reward(ep_a, 0.5) - (1.0 + 0.25 + 0.0625) / 4) <= tol)
    checks.append(abs(average_reward([ep_a, ep_b], 0.0) - (0.25 + 0.125) / 2) <= tol)
    checks.append(abs(precision_at_horizon([ep_a, ep_b]) - (0.5 + 0.75) / 2) <= tol)
    checks.append(abs(recall_at_horizon([ep_a, ep_b], [4, 2]) - (0.5 + 1.5) / 2) <= tol)

    _verdict(2, all(checks),
             f"{sum(checks)}/{len(checks)} fixtures exact to 1e-12 "
             f"(double-Q target {float(y[0])!r}, not 5.0)")


# -- criterion 3: graph oracles ------------------------------------------


def _succ_oracle(triples, n_ent):
    succ = {h: set() for h in range(n_ent)}
    for h, _, t in triples:
        succ[int(h)].add(int(t))
    return succ


def _layers_oracle(succ, seeds, k):
    layers, frontier = [], set(seeds)
    for _ in range(k):
        nxt = set()
        for h in frontier:
            nxt |= succ[h]
        layers.append(nxt)
        frontier = nxt
    return layers


def test_criterion_3_graph_oracles():
    rng = np.random.default_rng(103)
    t0 = time.monotonic()
    for trial in range(100):
        n_ent = int(rng.integers(3, 201))
        n_tri = int(rng.integers(1, 2 * n_ent))
        triples = np.stack([rng.integers(0, n_ent, n_tri),
                            rng.integers(0, 3, n_tri),
                            rng.integers(0, n_ent, n_tri)], axis=1)
        n_items = int(rng.integers(1, min(n_ent, 30) + 1))
        linked = rng.choice(n_ent, size=n_items, replace=False)
        g = KnowledgeGraph(triples, n_ent, 3, {int(i): int(e)
                                               for i, e in enumerate(linked)})
        succ = _succ_oracle(triples, n_ent)

        for ent in rng.choice(n_ent, size=min(n_ent, 25), replace=False):
            assert sorted(g.neighbors(int(ent)).tolist()) == sorted(succ[int(ent)])

        k = int(rng.integers(1, 4))
        seeds = set(rng.choice(n_ent, size=int(rng.integers(1, 4)),
                               replace=False).tolist())
        layers = _layers_oracle(succ, seeds, k)
        assert k_hop_sets(g, seeds, k) == layers, f"trial {trial}"

        max_size = int(rng.integers(1, 41))
        n_excl = int(rng.integers(0, min(2, n_items) + 1))
        exclude = set(int(i) for i in rng.choice(n_items, size=n_excl, replace=False))
        got = candidate_items(g, seeds, k, max_size, exclude=exclude)
        first_hop = {}
        for hop, layer in enumerate(layers, start=1):
            for ent in layer:
                first_hop.setdefault(ent, hop)
        want = sorted((hop, g.entity_to_item[e]) for e, hop in first_hop.items()
                      if e in g.entity_to_item and g.entity_to_item[e] not in exclude)
        want = want[:max_size]
        assert list(got.items) == [it for _, it in want], f"trial {trial}"
        assert list(got.hops) == [h for h, _ in want], f"trial {trial}"
    elapsed = time.monotonic() - t0
    _verdict(3, elapsed < 60.0,
             f"neighbors/k-hop/candidates match oracles on 100 graphs "
             f"(<=200 nodes, k<=3), {elapsed:.1f}s (bar 60s)")


# -- criterion 4: learning signal over random ----------------------------


def test_criterion_4_learning_signal(lab):
    t0 = time.monotonic()
    random_rewards = [lab.random_reward(sd) for sd in SEEDS]
    for got, pin in zip(random_rewards, PIN_RANDOM):
        assert abs(got - pin) < 1e-9, f"random baseline drifted: {got!r} vs pin {pin!r}"
    finals = [lab.run("full", 20, sd)[2][-1].reward for sd in SEEDS]
    rmean = float(np.mean(random_rewards))
    fmean = float(np.mean(finals))
    derived = rmean + 0.5 * (fmean - rmean)
    assert abs(derived - THRESHOLD) < 1e-9, \
        f"pilot threshold drifted: derived {derived!r} vs pinned {THRESHOLD!r}"
    gain = (fmean - rmean) / abs(rmean)
    elapsed = time.monotonic() - t0
    ok = gain >= 0.30 and elapsed < 900.0
    _verdict(4, ok, f"full {fmean:.4f} vs random {rmean:.4f} over 3 seeds, "
                    f"relative gain {100 * gain:.0f}% (bar 30%), {elapsed:.0f}s (bar 900s)")


# -- criterion 5: sample-efficiency ordering -----------------------------


def test_criterion_5_sample_efficiency_ordering(lab):
    crossings = {}
    for variant in ("full", "no-cs", "mf-base"):
        crossings[variant] = [
            interactions_to_threshold(lab.run(variant, 20, sd)[2], THRESHOLD)
            for sd in SEEDS]

    inf = float("inf")
    to_x = lambda c: inf if c is None else float(c)
    ordered, worst_violation = [], 0.0
    for i in range(len(SEEDS)):
        chain = [to_x(crossings[v][i]) for v in ("full", "no-cs", "mf-base")]
        ordered.append(chain[0] <= chain[1] <= chain[2])
        if not ordered[-1]:
            for a, b in zip(chain, chain[1:]):
                if a > b:
                    rel = inf if b <= 0 or a == inf else (a - b) / b
                    worst_violation = max(worst_violation, rel)
    n_ordered = sum(ordered)
    ok = n_ordered >= 2 and (n_ordered == 3 or worst_violation <= 0.20)
    fmt = lambda cs: "[" + ", ".join("-" if c is None else str(c) for c in cs) + "]"
    _verdict(5, ok, f"interactions to threshold {THRESHOLD:.4f}: "
                    f"full={fmt(crossings['full'])} no-cs={fmt(crossings['no-cs'])} "
                    f"mf-base={fmt(crossings['mf-base'])}, ordered in {n_ordered}/3 seeds")


# -- criterion 6: candidate-size sweep -----------------------------------


def test_criterion_6_candidate_size_sweep(lab):
    sizes = (5, 10, 20, 50, None)
    interior, rows = [], []
    for sd in SEEDS:
        finals = [lab.run("full", s, sd)[2][-1].reward for s in sizes]
        best = max(finals)
        interior.append(best > finals[0] and best > finals[-1])
        rows.append("seed {}: {}".format(
            sd, "/".join(f"{v:.3f}" for v in finals)))
    n_interior = sum(interior)
    _verdict(6, n_interior >= 2,
             f"sweep {{5,10,20,50,all}} final rewards {'; '.join(rows)}; "
             f"max strictly interior in {n_interior}/3 seeds (bar 2/3)")


# -- criterion 7: simulator contracts ------------------------------------


def test_criterion_7_simulator_contracts():
    rng = np.random.default_rng(107)
    n_obs = 400
    users = rng.integers(0, 30, n_obs)
    items = rng.integers(0, 40, n_obs)
    ratings = rng.uniform(1.0, 5.0, n_obs)

    # eta=0 collapses the reward to the normalized instinctive feedback
    flat = fit_mf(users, items, ratings, 30, 40, dim=4, epochs=10, seed=1,
                  eta=0.0, horizon=16)
    eta_zero_ok = True
    for user in (0, 7, 29):
        state = EpisodeState(user=user)
        for item in rng.permutation(40)[:16]:
            step(state, flat, int(item))
        eta_zero_ok &= all(rec.reward == rec.normalized for rec in state.records)
        eta_zero_ok &= state.done

    # positive/negative streak counters are mutually exclusive
    seq = fit_mf(users, items, ratings, 30, 40, dim=4, epochs=10, seed=2,
                 eta=0.1, horizon=25)
    steps = 0
    exclusive = True
    while steps < 10_000:
        state = EpisodeState(user=int(rng.integers(0, 30)))
        for item in rng.permutation(40)[:25]:
            step(state, seq, int(item))
            exclusive &= not (state.pos_streak > 0 and state.neg_streak > 0)
            steps += 1

    # the default protocol horizon is 32 steps, enforced by the episode
    default = fit_mf(users, items, ratings, 30, 40, dim=4, epochs=5, seed=3)
    horizon_ok = default.horizon == 32
    state = EpisodeState(user=0)
    for item in range(32):
        step(state, default, item)
    horizon_ok &= state.done and state.t == 32
    try:
        step(state, default, 33)
        horizon_ok = False
    except RuntimeError:
        pass

    ok = eta_zero_ok and exclusive and horizon_ok
    _verdict(7, ok, f"eta=0 reward==instinct {eta_zero_ok}, streak exclusivity "
                    f"over {steps} steps {exclusive}, T=32 default {horizon_ok}")


# -- criterion 8: determinism --------------------------------------------


def test_criterion_8_determinism(lab, tmp_path):
    _, _, curve_a = lab.run("full", 20, 0)
    params, target, curve_b = train(lab.env, lab.graph, lab.tcfg("full", 20), 0)
    bytes_a = curve_csv_text(curve_a, 0).encode("utf-8")
    bytes_b = curve_csv_text(curve_b, 0).encode("utf-8")
    curves_ok = bytes_a == bytes_b

    cfg = lab.tcfg("full", 20)
    path = str(tmp_path / "agent.npz")
    save_checkpoint(path, params, target, cfg, interactions=curve_b[-1].interactions)
    loaded, _, _, _ = load_checkpoint(path, graph=lab.graph)
    rng = np.random.default_rng(108)
    item_pool = np.asarray(lab.env.items)
    agreement = 0
    for _ in range(100):
        hidden = rng.standard_normal(cfg.embedding_dim)
        k = int(rng.integers(2, 12))
        cands = tuple(int(x) for x in rng.choice(item_pool, size=k, replace=False))
        a = select_action(params, hidden, cands, 0.0, None)
        b = select_action(loaded, hidden, cands, 0.0, None)
        agreement += a == b
    ok = curves_ok and agreement == 100
    _verdict(8, ok, f"curve CSV byte-identical across reruns: {curves_ok}; "
                    f"checkpoint greedy agreement {agreement}/100 random states")


# -- criterion 9: Wilcoxon against exact enumeration ---------------------


def _wilcoxon_oracle(a, b):
    d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    d = d[d != 0.0]
    n = d.size
    order = np.argsort(np.abs(d), kind="stable")
    ranks = np.empty(n)
    sorted_abs = np.abs(d)[order]
    i = 0
    while i < n:
        j = i
        while j + 1 < n and sorted_abs[j + 1] == sorted_abs[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    w_plus = ranks[d > 0].sum()
    signs = (np.arange(2 ** n)[:, None] >> np.arange(n)) & 1
    w_all = signs @ ranks
    p_le = np.mean(w_all <= w_plus + 1e-9)
    p_ge = np.mean(w_all >= w_plus - 1e-9)
    return w_plus, min(1.0, 2.0 * min(p_le, p_ge))


def test_criterion_9_wilcoxon_exact():
    rng = np.random.default_rng(109)
    done, worst = 0, 0.0
    while done < 200:
        n = int(rng.integers(5, 13))
        a = rng.integers(0, 6, n).astype(float)
        b = rng.integers(0, 6, n).astype(float)
        if np.count_nonzero(a - b) < 5:
            continue
        got_w, got_p = wilcoxon_signed_rank(a, b)
        want_w, want_p = _wilcoxon_oracle(a, b)
        assert got_w == want_w, f"W+ {got_w} vs {want_w}"
        worst = max(worst, abs(got_p - want_p))
        done += 1
    same = np.array([0.3, 1.2, -0.7, 0.0, 2.2, 0.5])
    stat, p = wilcoxon_signed_rank(same, same)
    identical_ok = stat == 0.0 and p == 1.0
    ok = worst < 1e-12 and identical_ok
    _verdict(9, ok, f"200 enumeration trials (n<=12), worst |p diff| {worst:.1e}; "
                    f"identical inputs give p=1: {identical_ok}")
