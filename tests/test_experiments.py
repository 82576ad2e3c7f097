"""Experiment layer tests: config parsing, ingestion, environment
assembly, run artifacts, comparisons, sweeps and the CLI surface."""

import logging
import re
import os
from dataclasses import asdict, fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import kgrec.agent as agent_module
import kgrec.experiments as experiments_module
from kgrec import cli
from kgrec.agent import CurvePoint, TrainConfig, VARIANTS, evaluate_policy, load_checkpoint
from kgrec.experiments import (
    ExperimentConfig,
    build_environment,
    compare,
    comparison_text,
    curve_csv_text,
    ingest,
    interactions_to_threshold,
    parse_config,
    parse_config_text,
    parse_sizes,
    run_experiment,
    sweep_candidates,
)
from kgrec.metrics import build_report
from kgrec.synth import SynthSpec, generate, write_dataset
from oracles import read_curve


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    root = tmp_path_factory.mktemp("world")
    spec = SynthSpec(clusters=3, items_per_cluster=4, users=12,
                     out_ratings_per_user=2, seed=0)
    return write_dataset(str(root), generate(spec))


def _config_text(paths, out_dir, **kw):
    base = {
        "ratings": paths["ratings"],
        "triples": paths["triples"],
        "links": paths["links"],
        "out_dir": out_dir,
        "seeds": "0,1",
        "seed": 3,
        "eta": 0.1,
        "horizon": 4,
        "hops": 2,
        "candidate_size": 6,
        "budget": 16,
        "eval_every": 8,
        "embedding_dim": 4,
        "hidden_width": 8,
        "batch_size": 8,
        "buffer_capacity": 64,
        "transe_epochs": 2,
        "sim_dim": 4,
        "sim_epochs": 5,
        "init_mf_epochs": 2,
    }
    base.update(kw)
    return "".join(f"{k} = {v}\n" for k, v in base.items())


def _tiny_config(paths, out_dir, **kw):
    return parse_config_text(_config_text(paths, out_dir, **kw))


# -- config parsing ------------------------------------------------------


def test_defaults_without_any_keys():
    cfg = parse_config_text("")
    assert cfg.eta == 0.1
    assert cfg.seeds == (0, 1, 2)
    assert cfg.candidate_size == "1000"
    assert cfg.eval_gamma is None
    assert cfg.kg_embeddings is True


def test_parse_handles_comments_bools_none_and_tuples():
    cfg = parse_config_text(
        "eta = 0.2  # exploration setting\n"
        "\n"
        "kg_embeddings = no\n"
        "gcn_propagation = 0\n"
        "candidate_selection = false\n"
        "eval_gamma = none\n"
        "rating_min = auto\n"
        "seeds = 4, 5 ,6\n"
        "candidate_size = all\n"
    )
    assert cfg.eta == 0.2
    assert cfg.kg_embeddings is False and cfg.gcn_propagation is False
    assert cfg.candidate_selection is False
    assert cfg.eval_gamma is None and cfg.rating_min is None
    assert cfg.seeds == (4, 5, 6)
    assert cfg.candidate_size == "all"
    assert cfg.train_config().candidate_size is None


def test_canonical_text_round_trips(world, tmp_path):
    cfg = _tiny_config(world, str(tmp_path / "out"))
    again = parse_config_text(cfg.canonical_text())
    assert again == cfg
    assert again.config_hash() == cfg.config_hash()


def test_config_hash_tracks_values_not_key_order(world, tmp_path):
    out = str(tmp_path / "out")
    a = parse_config_text(_config_text(world, out))
    lines = _config_text(world, out).strip().splitlines()
    b = parse_config_text("\n".join(reversed(lines)))
    assert a.config_hash() == b.config_hash()
    c = parse_config_text(_config_text(world, out, budget=32))
    assert c.config_hash() != a.config_hash()


def test_variant_flag_combinations_hash_distinctly(world, tmp_path):
    hashes = set()
    for kg, gcn, cs in VARIANTS.values():
        cfg = _tiny_config(world, str(tmp_path / "out"),
                           kg_embeddings=str(kg).lower(),
                           gcn_propagation=str(gcn).lower(),
                           candidate_selection=str(cs).lower())
        hashes.add(cfg.config_hash())
    assert len(hashes) == len(VARIANTS)


@pytest.mark.parametrize("text,needle", [
    ("wat = 1\n", "unknown key"),
    ("eta = 0.1\neta = 0.2\n", "duplicate"),
    ("just words\n", "key = value"),
    ("budget = soon\n", "cannot parse"),
    ("kg_embeddings = maybe\n", "cannot parse"),
    ("seeds = 1,x\n", "cannot parse"),
])
def test_parse_rejects_malformed_text(text, needle):
    with pytest.raises(ValueError, match=needle):
        parse_config_text(text)


def test_parse_errors_carry_source_and_line(tmp_path):
    path = tmp_path / "exp.cfg"
    for bad in ("bogus = 2", "eta = 0.2", "just words", "budget = soon", "seeds = 1,x",
                "kg_embeddings = maybe"):
        path.write_text(f"eta = 0.1\n{bad}\n")
        with pytest.raises(ValueError, match=r"exp\.cfg:2: "):
            parse_config(str(path))
    with pytest.raises(ValueError, match=r"^x\.cfg:2: cannot parse 'soon' for key 'budget'"):
        parse_config_text("eta = 0.1\nbudget = soon\n", source="x.cfg")


@pytest.mark.parametrize("separator", ["\x0c", "\x1c", "\x85", "\u2028"])
def test_a_separator_in_a_comment_ends_no_line(tmp_path, separator):
    path = tmp_path / "ff.cfg"
    path.write_text(f"eta = 0.1  # a{separator}b\njust words\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"ff\.cfg:2: expected 'key = value', got 'just words'"):
        parse_config(str(path))
    path.write_text(f"eta = 0.1  # a{separator}budget = 5\n", encoding="utf-8")
    assert parse_config(str(path)).budget == ExperimentConfig().budget


# every key that reaches TrainConfig, each away from its default
TRAINING_TEXT = """\
gamma = 0.9
epsilon_start = 0.8
epsilon_end = 0.1
epsilon_decay_fraction = 0.3
tau = 0.05
batch_size = 16
buffer_capacity = 500
learning_rate = 0.02
hops = 3
candidate_size = 7
horizon = 12
embedding_dim = 6
hidden_width = 9
updates_per_episode = 2
value_input = item
advantage_center = true
kg_embeddings = false
gcn_propagation = false
candidate_selection = false
budget = 640
eval_every = 160
eval_gamma = 0.5
transe_epochs = 7
transe_margin = 2.0
transe_negatives = 3
transe_lr = 0.005
init_mf_epochs = 4
init_mf_lr = 0.03
init_mf_reg = 0.04
"""


def test_train_config_derives_every_field():
    want = {
        "gamma": 0.9, "epsilon_start": 0.8, "epsilon_end": 0.1,
        "epsilon_decay_fraction": 0.3, "tau": 0.05, "batch_size": 16,
        "buffer_capacity": 500, "learning_rate": 0.02, "hops": 3, "candidate_size": 7,
        "horizon": 12, "embedding_dim": 6, "hidden_width": 9, "updates_per_episode": 2,
        "value_input": "item", "advantage_center": True, "kg_embeddings": False,
        "gcn_propagation": False, "candidate_selection": False, "interaction_budget": 640,
        "eval_every": 160, "eval_gamma": 0.5, "transe_epochs": 7, "transe_margin": 2.0,
        "transe_negatives": 3, "transe_lr": 0.005, "init_mf_epochs": 4, "init_mf_lr": 0.03,
        "init_mf_reg": 0.04,
    }
    defaults = asdict(TrainConfig())
    assert all(want[key] != value for key, value in defaults.items())
    assert asdict(parse_config_text(TRAINING_TEXT).train_config()) == want


def test_config_hash_is_pinned():
    # the hash names run directories and reports; this text must keep its value
    text = ("ratings = /data/world/interactions.tsv\ntriples = /data/world/kg_triples.tsv\n"
            "links = /data/world/kg_links.tsv\nout_dir = /runs/pinned\nseeds = 3,4\n"
            "eta = 0.2\nrating_min = 1.0\nhit_threshold = auto\n" + TRAINING_TEXT)
    assert parse_config_text(text).config_hash() == "822126ebd544512d"
    # every default, the training ones included
    assert parse_config_text("").config_hash() == "2eced3482a201533"


# "#" and whitespace drawn often, so values with and without a comment mark
# both occur; a form feed, U+001C, U+0085 and U+2028 are text, not line ends
_CONFIG_CHARS = (st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp"))
                 | st.sampled_from(["#", " ", "\x0c", "\x1c", "\x85", "\u2028"]))
_SEGMENT = st.text(_CONFIG_CHARS.filter(lambda ch: ch != "/"), min_size=1, max_size=8)
_VALUES = {
    "int": st.integers(),
    "float": st.floats(allow_nan=False),
    "bool": st.booleans(),
    "str": st.text(_CONFIG_CHARS, max_size=12).filter(lambda s: s == s.strip()),
    "tuple[int, ...]": st.lists(st.integers(), max_size=4).map(tuple),
}
# path keys come back absolute, so only normalized absolute paths are fixed points
_PATHS = st.just("") | st.lists(_SEGMENT.filter(lambda s: s not in (".", "..")),
                                min_size=1, max_size=3).map(
    lambda parts: "/" + "/".join(parts)).filter(lambda s: s == s.strip())


def _field_values(f):
    if f.name in ("ratings", "triples", "links", "out_dir"):
        return _PATHS
    kind, _, optional = f.type.partition(" | ")
    return st.none() | _VALUES[kind] if optional == "None" else _VALUES[kind]


def _starts_comment(value):
    """Whether a `#` in `value` stands at its start or after whitespace."""
    return any(ch == "#" and (i == 0 or value[i - 1].isspace()) for i, ch in enumerate(value))


_DEFAULTS = asdict(ExperimentConfig())


@settings(max_examples=200, deadline=None)
@given(st.fixed_dictionaries({f.name: _field_values(f) for f in fields(ExperimentConfig)}))
@example({**_DEFAULTS, "ratings": "/exp#1/r.tsv", "out_dir": "/runs/x#", "candidate_sizes": "5,#"})
@example({**_DEFAULTS, "out_dir": "/runs/exp #1"})
def test_canonical_text_round_trips_every_field(values):
    cfg = ExperimentConfig(**values)
    commented = sorted(k for k, v in values.items() if isinstance(v, str) and _starts_comment(v))
    if commented:  # the first such key in canonical order is the one named
        with pytest.raises(ValueError, match=f"'{commented[0]}'"):
            cfg.canonical_text()
        return
    again = parse_config_text(cfg.canonical_text())
    assert again == cfg
    assert again.config_hash() == cfg.config_hash()


def test_config_in_a_hash_named_directory_round_trips(tmp_path):
    here = tmp_path / "exp#1_a"
    here.mkdir()
    (here / "r.tsv").write_text("u\ti\t4.0\n")
    (here / "run.cfg").write_text("ratings = r.tsv  # beside this file\nout_dir = runs\n"
                                  "kg_embeddings = false\ngcn_propagation = false\n"
                                  "candidate_selection = false\n")
    cfg = parse_config(str(here / "run.cfg"))
    assert (cfg.ratings, cfg.out_dir) == (str(here / "r.tsv"), str(here / "runs"))
    cfg.validate()
    snapshot = tmp_path / "config.snapshot"
    snapshot.write_text(cfg.canonical_text())
    assert parse_config(str(snapshot)) == cfg


def test_validate_rejects_a_path_the_snapshot_would_cut(tmp_path):
    here = tmp_path / "exp #1"
    here.mkdir()
    (here / "r.tsv").write_text("u\ti\t4.0\n")
    cfg = parse_config_text("ratings = r.tsv\nkg_embeddings = false\n"
                            "gcn_propagation = false\ncandidate_selection = false\n",
                            base_dir=str(here))
    assert cfg.ratings == str(here / "r.tsv")
    with pytest.raises(ValueError, match="'ratings'"):
        cfg.validate()


def test_parse_config_resolves_paths_against_config_dir(tmp_path):
    (tmp_path / "data").mkdir()
    (tmp_path / "data" / "r.tsv").write_text("u\ti\t4.0\n")
    path = tmp_path / "exp.cfg"
    path.write_text("ratings = data/r.tsv\nkg_embeddings = false\n"
                    "gcn_propagation = false\ncandidate_selection = false\n")
    cfg = parse_config(str(path))
    assert os.path.isabs(cfg.ratings)
    assert cfg.ratings == str(tmp_path / "data" / "r.tsv")


def test_parse_sizes_tokens():
    assert parse_sizes("5,10,20,50,all") == [5, 10, 20, 50, None]
    assert parse_sizes(" 7 , all ") == [7, None]
    with pytest.raises(ValueError):
        parse_sizes("")
    with pytest.raises(ValueError):
        parse_sizes("5,0")
    with pytest.raises(ValueError):
        parse_sizes("-3")
    with pytest.raises(ValueError, match=r"repeat \['5'\]"):
        parse_sizes("5,10,5")
    with pytest.raises(ValueError, match=r"repeat \['all'\]"):
        parse_sizes("all, 5 ,all")


def test_validate_catches_semantic_errors(world, tmp_path):
    out = str(tmp_path / "out")
    good = _tiny_config(world, out)
    good.validate()
    cases = [
        dict(eta=0.3),
        dict(ratings=""),
        dict(triples=""),  # kg on without a graph
        dict(simulator_fit_scope="test"),
        dict(train_fraction=1.0),
        dict(seeds=""),
        dict(seeds="0,0,1"),
        dict(candidate_sizes="5,5,all"),
        dict(candidate_sizes="all,5,all"),
        dict(candidate_size=0),
        dict(budget=0),
        dict(min_user_interactions=-1),
    ]
    for kw in cases:
        cfg = parse_config_text(_config_text(world, out, **kw))
        with pytest.raises(ValueError):
            cfg.validate()
    missing = parse_config_text(_config_text(world, out))
    missing.ratings = str(tmp_path / "absent.tsv")
    with pytest.raises(ValueError, match="does not exist"):
        missing.validate()


@pytest.mark.parametrize("kw, field", [
    (dict(sim_dim=0), "sim_dim"),
    (dict(sim_epochs=-1), "sim_epochs"),
    (dict(sim_lr="nan"), "sim_lr"),
    (dict(sim_lr=-0.1), "sim_lr"),
    (dict(sim_reg="inf"), "sim_reg"),
    (dict(rating_min="nan"), "rating_min"),
    (dict(rating_max="inf"), "rating_max"),
    (dict(hit_threshold="nan"), "hit_threshold"),
    (dict(binarize_threshold="-inf"), "binarize_threshold"),
    (dict(rating_min=5, rating_max=1), "rating_min"),
    (dict(rating_min=3, rating_max=3), "rating_min"),
    (dict(seeds="2, -1"), "^seeds must be one or more run seeds >= 0"),
    (dict(seed=-3), "^seed must be >= 0"),
])
def test_validate_rejects_bad_simulator_keys_before_ingest(world, tmp_path, monkeypatch,
                                                           kw, field):
    cfg = _tiny_config(world, str(tmp_path / "out"), **kw)
    with pytest.raises(ValueError, match=field):
        cfg.validate()

    def no_ingest(config):
        raise AssertionError("ingested")

    monkeypatch.setattr(experiments_module, "ingest", no_ingest)
    with pytest.raises(ValueError, match=field):
        run_experiment(cfg)
    assert not os.path.exists(tmp_path / "out")


# -- ingestion -----------------------------------------------------------


def test_ingest_orders_by_timestamp_and_assigns_dense_ids(tmp_path):
    ratings = tmp_path / "r.tsv"
    ratings.write_text(
        "u1\ti1\t5.0\t3\n"
        "u1\ti2\t1.0\t1\n"
        "u2\ti1\t4.0\t2\n"
    )
    cfg = ExperimentConfig(ratings=str(ratings), kg_embeddings=False,
                           gcn_propagation=False, candidate_selection=False)
    ds = ingest(cfg)
    # ids follow first appearance in time order, not file order
    assert ds.user_tokens == ["u1", "u2"]
    assert ds.item_tokens == ["i2", "i1"]
    assert np.array_equal(ds.users, [0, 1, 0])
    assert np.array_equal(ds.items, [0, 1, 1])
    assert np.array_equal(ds.ratings, [1.0, 4.0, 5.0])
    assert ds.n_users == 2 and ds.n_items == 2
    assert ds.graph is None
    assert ds.unlinked_count == 2


def test_ingest_timestampless_rows_keep_file_order(tmp_path):
    ratings = tmp_path / "r.tsv"
    ratings.write_text("u1\ta\t1.0\nu1\tb\t2.0\nu1\tc\t3.0\n")
    cfg = ExperimentConfig(ratings=str(ratings), kg_embeddings=False,
                           gcn_propagation=False, candidate_selection=False)
    ds = ingest(cfg)
    assert ds.item_tokens == ["a", "b", "c"]


def test_ingest_min_interaction_filter(tmp_path, caplog):
    ratings = tmp_path / "r.tsv"
    ratings.write_text(
        "busy\ta\t4.0\n"
        "busy\tb\t3.0\n"
        "lurker\tz\t5.0\n"
    )
    cfg = ExperimentConfig(ratings=str(ratings), min_user_interactions=2,
                           kg_embeddings=False, gcn_propagation=False,
                           candidate_selection=False)
    with caplog.at_level(logging.INFO, logger="kgrec.experiments"):
        ds = ingest(cfg)
    assert ds.user_tokens == ["busy"]
    assert ds.item_tokens == ["a", "b"]  # the lurker's item vanishes with them
    assert "dropped 1 of 2 users" in caplog.text
    cfg.min_user_interactions = 10
    with pytest.raises(ValueError, match="filtered out every user"):
        ingest(cfg)


def test_ingest_binarization(tmp_path):
    ratings = tmp_path / "r.tsv"
    ratings.write_text("u\ta\t4.5\nu\tb\t2.0\nu\tc\t3.0\n")
    cfg = ExperimentConfig(ratings=str(ratings), binarize_threshold=3.0,
                           kg_embeddings=False, gcn_propagation=False,
                           candidate_selection=False)
    ds = ingest(cfg)
    assert np.array_equal(ds.ratings, [1.0, 0.0, 1.0])


def test_mf_variant_trains_on_positive_only_feedback(world, tmp_path):
    # every rating binarizes to 1: the simulator's [0, 1] scale comes from the
    # config, so the item-factor fit must not derive a scale of its own
    cfg = _tiny_config(world, str(tmp_path / "out"), kg_embeddings="false",
                       gcn_propagation="false", candidate_selection="false",
                       binarize_threshold=0.5, rating_min=0, rating_max=1, seeds=0)
    ds = ingest(cfg)
    assert set(ds.ratings.tolist()) == {1.0}
    (artifact,) = run_experiment(cfg)
    assert artifact.curve[-1].interactions >= 16


def test_ingest_keeps_unlinked_items_with_warning(tmp_path, caplog):
    (tmp_path / "r.tsv").write_text("u\ta\t4.0\nu\tb\t2.0\nv\ta\t5.0\n")
    (tmp_path / "t.tsv").write_text("ea\trel\teb\n")
    (tmp_path / "l.tsv").write_text("a\tea\nghost\teb\n")
    cfg = ExperimentConfig(ratings=str(tmp_path / "r.tsv"),
                           triples=str(tmp_path / "t.tsv"),
                           links=str(tmp_path / "l.tsv"))
    with caplog.at_level(logging.INFO, logger="kgrec.experiments"):
        ds = ingest(cfg)
    assert ds.n_items == 2
    assert np.array_equal(ds.graph.linked_items, [0])  # only item 'a'
    assert ds.unlinked_count == 1
    assert "no graph link" in caplog.text
    assert "ghost" in caplog.text  # links for unseen items are ignored, loudly
    assert ds.graph is not None
    assert ds.graph.item_to_entity == {0: 0}


def test_ingest_rejects_malformed_rows(tmp_path):
    bad_fields = tmp_path / "two.tsv"
    bad_fields.write_text("u\ta\n")
    with pytest.raises(ValueError, match=r"two\.tsv:1"):
        ingest(ExperimentConfig(ratings=str(bad_fields), kg_embeddings=False,
                                gcn_propagation=False, candidate_selection=False))
    bad_value = tmp_path / "nan.tsv"
    bad_value.write_text("u\ta\tgreat\n")
    with pytest.raises(ValueError, match="non-numeric"):
        ingest(ExperimentConfig(ratings=str(bad_value), kg_embeddings=False,
                                gcn_propagation=False, candidate_selection=False))
    for line in ("u1\ti2\tnan\n", "u1\ti2\tinf\n", "u1\ti2\t-inf\n", "u1\ti2\t4.0\tinf\n"):
        non_finite = tmp_path / "non_finite.tsv"
        non_finite.write_text("u0\ti0\t3.0\n" + line)
        with pytest.raises(ValueError, match=r"non_finite\.tsv:2: non-finite"):
            ingest(ExperimentConfig(ratings=str(non_finite), kg_embeddings=False,
                                    gcn_propagation=False, candidate_selection=False))
    empty = tmp_path / "empty.tsv"
    empty.write_text("\n")
    with pytest.raises(ValueError, match="no interactions"):
        ingest(ExperimentConfig(ratings=str(empty), kg_embeddings=False,
                                gcn_propagation=False, candidate_selection=False))


def test_ingest_rejects_contradictory_links(tmp_path):
    (tmp_path / "r.tsv").write_text("u\ta\t4.0\n")
    (tmp_path / "t.tsv").write_text("ea\trel\teb\n")
    (tmp_path / "l.tsv").write_text("a\tea\na\teb\n")
    cfg = ExperimentConfig(ratings=str(tmp_path / "r.tsv"),
                           triples=str(tmp_path / "t.tsv"),
                           links=str(tmp_path / "l.tsv"))
    with pytest.raises(ValueError, match="not a function"):
        ingest(cfg)


# -- environment assembly ------------------------------------------------


def test_build_environment_splits_and_scopes(world, tmp_path):
    cfg = _tiny_config(world, str(tmp_path / "out"))
    ds = ingest(cfg)
    env = build_environment(ds, cfg)
    assert len(env.train_users) == 9  # floor(0.8 * 12)
    assert len(env.test_users) == 3
    assert set(env.train_users.tolist()).isdisjoint(env.test_users.tolist())
    assert np.array_equal(np.asarray(env.catalog), np.arange(12))
    assert np.array_equal(np.sort(env.items), ds.graph.linked_items)
    assert set(env.popularity.tolist()) == set(env.items.tolist())
    # same config -> same split
    env2 = build_environment(ds, cfg)
    assert np.array_equal(env.train_users, env2.train_users)


def test_action_universe_follows_link_coverage(world, tmp_path):
    with open(world["links"], encoding="utf-8") as fh:
        kept = "".join(fh.readlines()[:6])
    partial = tmp_path / "partial_links.tsv"
    partial.write_text(kept)
    cfg = _tiny_config(world, str(tmp_path / "out"))
    cfg.links = str(partial)
    ds = ingest(cfg)
    env = build_environment(ds, cfg)
    assert len(env.items) == 6
    assert len(env.catalog) == 12

    flat = _tiny_config(world, str(tmp_path / "out2"),
                        kg_embeddings="false", gcn_propagation="false",
                        candidate_selection="false")
    flat.links = str(partial)
    ds2 = ingest(flat)
    env2 = build_environment(ds2, flat)
    assert len(env2.items) == 12  # without graph scoring, everything is actionable


def test_build_environment_enforces_minimum_universe(world, tmp_path):
    with open(world["links"], encoding="utf-8") as fh:
        kept = "".join(fh.readlines()[:3])
    partial = tmp_path / "few_links.tsv"
    partial.write_text(kept)
    cfg = _tiny_config(world, str(tmp_path / "out"))
    cfg.links = str(partial)
    ds = ingest(cfg)
    with pytest.raises(ValueError, match="horizon"):
        build_environment(ds, cfg)


def test_simulator_fit_scope_changes_the_model(world, tmp_path):
    whole = _tiny_config(world, str(tmp_path / "out"))
    narrow = _tiny_config(world, str(tmp_path / "out"),
                          simulator_fit_scope="train")
    ds = ingest(whole)
    m_all = build_environment(ds, whole).model
    m_train = build_environment(ds, narrow).model
    assert not np.array_equal(m_all.item_bias, m_train.item_bias)


# -- run artifacts -------------------------------------------------------


def test_run_experiment_writes_complete_artifacts(world, tmp_path):
    out = str(tmp_path / "exp")
    cfg = _tiny_config(world, out, seeds="0,1")
    artifacts = run_experiment(cfg)
    assert [a.seed for a in artifacts] == [0, 1]
    assert os.path.exists(os.path.join(out, "config.snapshot"))
    for a in artifacts:
        for path in (a.curve_path, a.report_path, a.per_user_path,
                     a.checkpoint_path):
            assert os.path.exists(path)
        assert os.path.exists(os.path.join(a.run_dir, "config.snapshot"))
        points = read_curve(a.curve_path)
        assert [p.interactions for p in points] == [p.interactions for p in a.curve]
        assert [p.reward for p in points] == [p.reward for p in a.curve]
        # the final curve point and the reported evaluation are the same rollout
        assert a.report.average_reward == a.curve[-1].reward
        assert a.report.interactions == a.curve[-1].interactions
        assert a.config_hash == cfg.config_hash()

    with open(os.path.join(out, "aggregate.csv"), encoding="utf-8") as fh:
        rows = [line.strip().split(",") for line in fh if line.strip()]
    assert rows[0] == ["seed", "reward", "precision", "recall"]
    assert [r[0] for r in rows[1:]] == ["0", "1", "mean", "std"]
    rewards = [float(r[1]) for r in rows[1:3]]
    assert float(rows[3][1]) == pytest.approx(np.mean(rewards), abs=1e-12)


def test_snapshots_of_a_config_with_relative_paths_parse_back_to_it(world, tmp_path,
                                                                    monkeypatch):
    monkeypatch.chdir(tmp_path)
    relative = {key: os.path.relpath(world[key]) for key in ("ratings", "triples", "links")}
    cfg = replace(_tiny_config(world, "unused"), **relative, out_dir="runs/x")
    artifacts = run_experiment(cfg)
    # the run's config: each path resolved against the working directory
    want = replace(cfg, **{key: os.path.abspath(getattr(cfg, key))
                           for key in ("ratings", "triples", "links", "out_dir")})
    assert artifacts[0].run_dir == os.path.join(want.out_dir, "seed_0")
    for run_dir in (want.out_dir, *(a.run_dir for a in artifacts)):
        back = parse_config(os.path.join(run_dir, "config.snapshot"))
        assert back == want
        assert back.config_hash() == artifacts[0].config_hash
        back.validate()


def test_reports_reuse_the_last_curve_points_greedy_pass(world, tmp_path, monkeypatch):
    passes = []

    def counted(*args, **kwargs):
        passes.append(args[0])
        return evaluate_policy(*args, **kwargs)

    monkeypatch.setattr(agent_module, "evaluate_policy", counted)
    monkeypatch.setattr(experiments_module, "evaluate_policy", counted, raising=False)
    config = _tiny_config(world, str(tmp_path / "exp"), seeds="0,1")
    artifacts = run_experiment(config)
    # one greedy pass per curve point, none more once training is over
    assert len(passes) == sum(len(a.curve) for a in artifacts)
    monkeypatch.undo()
    # the reports hold the bytes a fresh greedy pass of the final policy gives
    ds = ingest(config)
    env = build_environment(ds, config)
    for a in artifacts:
        params, _, cfg, meta = load_checkpoint(a.checkpoint_path, ds.graph)
        logs = evaluate_policy(params, env, ds.graph, cfg)
        report = build_report(env.test_users, logs, env.test_preference_counts(),
                              cfg.resolved_eval_gamma(), interactions=meta["interactions"],
                              config_hash=meta["config_hash"])
        for path, text in ((a.report_path, report.flat_text()),
                           (a.per_user_path, report.per_user_csv())):
            with open(path, encoding="utf-8") as fh:
                assert fh.read() == text


def test_rerun_reproduces_curves_byte_for_byte(world, tmp_path):
    out = str(tmp_path / "exp")
    cfg = _tiny_config(world, out, seeds="0")
    first = run_experiment(cfg)[0]
    with open(first.curve_path, "rb") as fh:
        before = fh.read()
    second = run_experiment(cfg)[0]
    with open(second.curve_path, "rb") as fh:
        after = fh.read()
    assert before == after


def test_curve_csv_round_trip(tmp_path):
    curve = [CurvePoint(0, -0.007512345678901234, 0.5, 0.25),
             CurvePoint(500, 0.1933140915726012, 0.75, 0.5)]
    text = curve_csv_text(curve, seed=7)
    path = tmp_path / "curve.csv"
    path.write_text(text)
    back = read_curve(str(path))
    assert [(p.interactions, p.reward, p.precision, p.recall) for p in back] == \
           [(p.interactions, p.reward, p.precision, p.recall) for p in curve]
    (tmp_path / "bad.csv").write_text("wrong,header\n1,2\n")
    with pytest.raises(ValueError, match="header"):
        read_curve(str(tmp_path / "bad.csv"))


def test_interactions_to_threshold_first_crossing():
    curve = [CurvePoint(0, 0.10, 0, 0), CurvePoint(8, 0.30, 0, 0),
             CurvePoint(16, 0.20, 0, 0), CurvePoint(24, 0.50, 0, 0)]
    assert interactions_to_threshold(curve, 0.30) == 8
    assert interactions_to_threshold(curve, 0.05) == 0  # crossed before training
    assert interactions_to_threshold(curve, 0.45) == 24
    assert interactions_to_threshold(curve, 0.9) is None


# -- comparison ----------------------------------------------------------


def _write_per_user(path, users, rewards, precisions=None, recalls=None):
    precisions = precisions if precisions is not None else [0.5] * len(users)
    recalls = recalls if recalls is not None else [0.25] * len(users)
    rows = ["user,reward,precision,recall"]
    for u, r, p, c in zip(users, rewards, precisions, recalls):
        rows.append(f"{u},{float(r)!r},{float(p)!r},{float(c)!r}")
    path.write_text("\n".join(rows) + "\n")


def test_compare_identical_runs_is_insignificant(tmp_path):
    users = list(range(10))
    rewards = np.linspace(0.1, 1.0, 10)
    for side in ("a", "b"):
        d = tmp_path / side / "seed_0"
        d.mkdir(parents=True)
        _write_per_user(d / "report_users.csv", users, rewards)
    results = compare(str(tmp_path / "a"), str(tmp_path / "b"))
    assert [r.metric for r in results] == ["reward", "precision", "recall"]
    for r in results:
        assert r.p_value == 1.0
        assert not r.significant
        assert r.mean_a == r.mean_b
    text = comparison_text(results)
    assert text.splitlines()[0] == "metric,mean_a,mean_b,statistic,p_value,significant"
    assert all(line.endswith(",no") for line in text.splitlines()[1:])


def test_compare_detects_a_consistent_lift(tmp_path):
    users = list(range(20))
    base = np.linspace(0.5, 2.0, 20)
    da = tmp_path / "a" / "seed_0"
    db = tmp_path / "b" / "seed_0"
    da.mkdir(parents=True)
    db.mkdir(parents=True)
    _write_per_user(da / "report_users.csv", users, base)
    _write_per_user(db / "report_users.csv", users, base * 1.1)
    results = compare(str(tmp_path / "a"), str(tmp_path / "b"))
    reward = results[0]
    assert reward.metric == "reward"
    assert reward.mean_b > reward.mean_a
    assert reward.p_value < 0.01
    assert reward.significant
    assert results[1].p_value == 1.0  # precision column untouched
    assert results[2].p_value == 1.0


def test_compare_validates_run_shapes(tmp_path):
    users = list(range(6))
    rewards = np.linspace(0.1, 0.6, 6)
    for name, n_seeds in (("a", 2), ("b", 1)):
        for s in range(n_seeds):
            d = tmp_path / name / f"seed_{s}"
            d.mkdir(parents=True)
            _write_per_user(d / "report_users.csv", users, rewards)
    with pytest.raises(ValueError, match="mismatch"):
        compare(str(tmp_path / "a"), str(tmp_path / "b"))

    dc = tmp_path / "c" / "seed_0"
    dc.mkdir(parents=True)
    _write_per_user(dc / "report_users.csv", [7, 8, 9, 10, 11, 12], rewards)
    with pytest.raises(ValueError, match="user sets differ"):
        compare(str(tmp_path / "b"), str(tmp_path / "c"))

    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(ValueError, match="seed_"):
        compare(str(empty), str(tmp_path / "b"))


@pytest.mark.parametrize("alpha", [float("nan"), 0.0, 1.0, 1.5, -0.1])
def test_compare_rejects_an_alpha_outside_the_unit_interval(tmp_path, capsys, alpha):
    d = tmp_path / "a" / "seed_0"
    d.mkdir(parents=True)
    _write_per_user(d / "report_users.csv", [0, 1, 2], np.linspace(0.1, 0.3, 3))
    with pytest.raises(ValueError, match="alpha must be in"):
        compare(str(tmp_path / "a"), str(tmp_path / "a"), alpha=alpha)
    assert cli.main(["compare", "--a", str(tmp_path / "a"), "--b", str(tmp_path / "a"),
                     "--alpha", str(alpha)]) == 2
    assert capsys.readouterr().err.startswith("kgrec: error: alpha must be in")


# -- sweeps --------------------------------------------------------------


def test_sweep_candidates_writes_per_size_runs(world, tmp_path):
    out = str(tmp_path / "sweep")
    cfg = _tiny_config(world, out, seeds="0")
    results = sweep_candidates(cfg, sizes=[2, None])
    assert set(results) == {"2", "all"}
    for token in ("2", "all"):
        sub = os.path.join(out, f"size_{token}")
        assert os.path.exists(os.path.join(sub, "seed_0", "curve.csv"))
        assert len(results[token]) == 1
    with open(os.path.join(out, "sweep.csv"), encoding="utf-8") as fh:
        rows = [line.strip().split(",") for line in fh if line.strip()]
    assert rows[0] == ["size", "seed", "reward", "precision", "recall"]
    assert [r[0] for r in rows[1:]] == ["2", "all"]
    for row in rows[1:]:
        float(row[2])  # parses


@pytest.mark.parametrize("sizes, needle", [([5, 5], r"repeat \['5'\]"),
                                           ([None, 2, None], r"repeat \['all'\]"),
                                           ([], "empty candidate size list")])
def test_sweep_applies_the_size_rules_to_a_given_list(world, tmp_path, monkeypatch, sizes,
                                                      needle):
    monkeypatch.setattr(experiments_module, "run_experiment",
                        lambda config: pytest.fail("ran a size"))
    out = tmp_path / "sweep"
    with pytest.raises(ValueError, match=needle):
        sweep_candidates(_tiny_config(world, str(out)), sizes=sizes)
    assert not out.exists()


def test_sweep_requires_candidate_selection(world, tmp_path):
    cfg = _tiny_config(world, str(tmp_path / "out"),
                       kg_embeddings="false", gcn_propagation="false",
                       candidate_selection="false")
    with pytest.raises(ValueError, match="candidate_selection"):
        sweep_candidates(cfg, sizes=[2])


# -- command line --------------------------------------------------------


def test_cli_end_to_end(world, tmp_path, capsys):
    spec_path = tmp_path / "world.cfg"
    spec_path.write_text("clusters = 3\nitems_per_cluster = 4\nusers = 12\n"
                         "out_ratings_per_user = 2\n")
    data_dir = str(tmp_path / "data")
    assert cli.main(["synth", "--spec", str(spec_path), "--out", data_dir]) == 0
    out = capsys.readouterr().out
    assert "interactions.tsv" in out and "triples" in out
    for name in ("interactions.tsv", "kg_triples.tsv", "kg_links.tsv"):
        assert os.path.exists(os.path.join(data_dir, name))

    paths = {"ratings": os.path.join(data_dir, "interactions.tsv"),
             "triples": os.path.join(data_dir, "kg_triples.tsv"),
             "links": os.path.join(data_dir, "kg_links.tsv")}
    exp_dir = str(tmp_path / "exp")
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(_config_text(paths, exp_dir, seeds="0"))
    assert cli.main(["train", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "seed 0:" in out and "aggregate.csv" in out

    ckpt = os.path.join(exp_dir, "seed_0", "checkpoint.npz")
    assert cli.main(["eval", "--checkpoint", ckpt]) == 0
    out = capsys.readouterr().out
    assert "average_reward = " in out

    assert cli.main(["compare", "--a", exp_dir, "--b", exp_dir]) == 0
    out = capsys.readouterr().out
    assert "reward" in out and out.count(",no") == 3

    sweep_dir = str(tmp_path / "sweep")
    sweep_cfg = tmp_path / "sweep.cfg"
    sweep_cfg.write_text(_config_text(paths, sweep_dir, seeds="0"))
    assert cli.main(["sweep-candidates", "--config", str(sweep_cfg),
                     "--sizes", "2,all"]) == 0
    out = capsys.readouterr().out
    assert "size 2:" in out and "size all:" in out
    assert os.path.exists(os.path.join(sweep_dir, "sweep.csv"))


def test_cli_prints_one_line_for_a_bad_config(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("bogus = 1\n")
    assert cli.main(["train", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"kgrec: error: {path}:1: unknown key 'bogus'\n"


def test_cli_prints_one_line_for_a_checkpoint_that_is_no_archive(world, tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(_config_text(world, str(tmp_path / "exp")))
    checkpoint = tmp_path / "checkpoint.npz"
    checkpoint.write_text("not an archive\n")
    assert cli.main(["eval", "--checkpoint", str(checkpoint), "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"kgrec: error: {checkpoint}: not a checkpoint archive")
    assert err.count("\n") == 1


@pytest.mark.parametrize("error, line", [
    (KeyError("item 7 has no embedding row"), "item 7 has no embedding row"),
    (FileNotFoundError(2, "No such file or directory", "a.csv"),
     "[Errno 2] No such file or directory: 'a.csv'"),
], ids=["KeyError", "OSError"])
def test_cli_prints_the_message_of_a_key_or_os_error(monkeypatch, capsys, error, line):
    def fail(a, b, alpha):
        raise error

    monkeypatch.setattr(experiments_module, "compare", fail)
    assert cli.main(["compare", "--a", "a", "--b", "b"]) == 2
    assert capsys.readouterr().err == f"kgrec: error: {line}\n"
    # any other error is a fault of the program, not of its input
    monkeypatch.setattr(experiments_module, "compare", lambda a, b, alpha: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        cli.main(["compare", "--a", "a", "--b", "b"])


def test_cli_synth_seed_overrides_the_spec(tmp_path, capsys):
    body = "clusters = 3\nitems_per_cluster = 4\nusers = 12\nout_ratings_per_user = 2\n"
    (tmp_path / "seed0.cfg").write_text(body + "seed = 0\n")
    (tmp_path / "seed5.cfg").write_text(body + "seed = 5\n")
    runs = {"spec 0": ["--spec", str(tmp_path / "seed0.cfg")],
            "spec 5": ["--spec", str(tmp_path / "seed5.cfg")],
            "spec 0, --seed 5": ["--spec", str(tmp_path / "seed0.cfg"), "--seed", "5"]}
    files = {}
    for k, (name, args) in enumerate(runs.items()):
        out = str(tmp_path / f"out{k}")
        assert cli.main(["synth", *args, "--out", out]) == 0
        files[name] = [(tmp_path / f"out{k}" / f).read_bytes()
                       for f in ("interactions.tsv", "kg_triples.tsv", "kg_links.tsv")]
    assert files["spec 0, --seed 5"] == files["spec 5"]
    assert files["spec 0, --seed 5"] != files["spec 0"]
    capsys.readouterr()
    assert cli.main(["synth", "--spec", str(tmp_path / "seed0.cfg"), "--seed", "-1",
                     "--out", str(tmp_path / "negative")]) == 2
    assert capsys.readouterr().err.startswith("kgrec: error: seed must be >= 0")


def test_cli_eval_without_a_snapshot_needs_config(world, tmp_path, capsys):
    exp_dir = tmp_path / "exp"
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(_config_text(world, str(exp_dir), seeds="0"))
    assert cli.main(["train", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    assert cli.main(["eval", "--checkpoint", str(exp_dir / "seed_0" / "checkpoint.npz")]) == 0
    in_place = capsys.readouterr().out
    moved = tmp_path / "moved" / "seed_0"
    moved.mkdir(parents=True)
    (moved / "checkpoint.npz").write_bytes((exp_dir / "seed_0" / "checkpoint.npz").read_bytes())
    with pytest.raises(SystemExit, match="no config.snapshot"):
        cli.main(["eval", "--checkpoint", str(moved / "checkpoint.npz")])
    assert cli.main(["eval", "--checkpoint", str(moved / "checkpoint.npz"),
                     "--config", str(exp_dir / "config.snapshot")]) == 0
    assert capsys.readouterr().out == in_place


def test_cli_sweep_takes_sizes_from_the_config(world, tmp_path, monkeypatch, capsys):
    ran = []

    def record(config):
        ran.append((config.candidate_size, config.out_dir))
        report = SimpleNamespace(average_reward=0.5, precision=0.25, recall=0.125)
        return [SimpleNamespace(seed=0, report=report)]

    monkeypatch.setattr(experiments_module, "run_experiment", record)
    out = tmp_path / "sweep"
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(_config_text(world, str(out), candidate_sizes="3, all,2"))
    assert cli.main(["sweep-candidates", "--config", str(cfg_path)]) == 0
    assert ran == [(token, str(out / f"size_{token}")) for token in ("3", "all", "2")]
    assert "size all: mean reward 0.5000 over 1 seeds" in capsys.readouterr().out
    assert (out / "sweep.csv").read_text().splitlines()[1:] == [
        f"{token},0,0.5,0.25,0.125" for token in ("3", "all", "2")]


@pytest.mark.parametrize("key, value", [
    ("embedding_dim", "0"), ("transe_epochs", "-3"), ("transe_negatives", "0"),
    ("transe_lr", "nan"), ("transe_margin", "inf"), ("hidden_width", "0"),
    ("learning_rate", "nan"), ("learning_rate", "-0.5"), ("eval_every", "0"), ("budget", "0"),
    ("buffer_capacity", "0"), ("updates_per_episode", "-1"), ("gamma", "5"),
    ("eval_gamma", "nan"), ("tau", "2"), ("init_mf_lr", "inf"),
])
def test_cli_train_rejects_bad_embedding_settings_before_ingest(world, tmp_path, monkeypatch,
                                                                capsys, key, value):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(_config_text(world, str(tmp_path / "exp"), **{key: value}))

    def no_ingest(config):
        raise AssertionError("ingested")

    monkeypatch.setattr(experiments_module, "ingest", no_ingest)
    assert cli.main(["train", "--config", str(cfg_path)]) == 2
    assert re.match(r"kgrec: error: .*must be", capsys.readouterr().err)
    assert not os.path.exists(tmp_path / "exp")


@pytest.mark.parametrize("key, value, needle", [
    ("eta", "0.5", r"eta must be one of \(0\.0, 0\.1, 0\.2\)"),
    ("epsilon_decay_fraction", "-1", "epsilon_decay_fraction must be"),
], ids=["eta", "epsilon_decay_fraction"])
def test_cli_eval_rejects_a_bad_config_before_ingest(world, tmp_path, monkeypatch, capsys, key,
                                                     value, needle):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(_config_text(world, str(tmp_path / "exp"), **{key: value}))

    def no_ingest(config):
        raise AssertionError("ingested")

    monkeypatch.setattr(experiments_module, "ingest", no_ingest)
    assert cli.main(["eval", "--checkpoint", str(tmp_path / "checkpoint.npz"),
                     "--config", str(cfg_path)]) == 2
    assert re.match(f"kgrec: error: .*{needle}", capsys.readouterr().err)


def test_cli_train_seed_and_budget_overrides(world, tmp_path, capsys):
    exp_dir = str(tmp_path / "exp")
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(_config_text(world, exp_dir))
    assert cli.main(["train", "--config", str(cfg_path),
                     "--seed", "5", "--budget", "8"]) == 0
    out = capsys.readouterr().out
    assert "seed 5:" in out
    assert os.path.exists(os.path.join(exp_dir, "seed_5", "curve.csv"))
    assert not os.path.exists(os.path.join(exp_dir, "seed_0"))
    curve = read_curve(os.path.join(exp_dir, "seed_5", "curve.csv"))
    assert curve[-1].interactions == 8
