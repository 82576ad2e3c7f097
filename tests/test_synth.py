"""Synthetic world generator tests: rating structure, graph wiring,
sparsity controls, spec parsing and file round trips."""

import numpy as np
import pytest

from kgrec.graph import load_graph
from kgrec.synth import (
    SynthSpec,
    generate,
    parse_spec,
    write_dataset,
)


def _spec(**kw):
    base = dict(clusters=4, items_per_cluster=6, users=40,
                out_ratings_per_user=4, seed=0)
    base.update(kw)
    return SynthSpec(**base)


def test_home_cluster_ratings_dominate():
    data = generate(_spec(noise=0.3))
    home = data.cluster_of_item[data.items] == data.cluster_of_user[data.users]
    assert home.any() and (~home).any()
    assert data.ratings[home].mean() > data.ratings[~home].mean() + 1.5


def test_noiseless_ratings_hit_the_means_exactly():
    spec = _spec(noise=0.0)
    data = generate(spec)
    home = data.cluster_of_item[data.items] == data.cluster_of_user[data.users]
    assert np.all(data.ratings[home] == spec.intra_mean)
    assert np.all(data.ratings[~home] == spec.inter_mean)
    # the top-rated item of every user sits in the home cluster
    for u in range(spec.users):
        mask = data.users == u
        best = data.items[mask][np.argmax(data.ratings[mask])]
        assert data.cluster_of_item[best] == data.cluster_of_user[u]


def test_item_edges_stay_mostly_within_cluster():
    spec = _spec(clusters=5, items_per_cluster=10, users=10, also_viewed_rate=0.1)
    data = generate(spec)
    ent_cluster = {f"i{i}": c for i, c in enumerate(data.cluster_of_item)}
    intra = total = 0
    for h, _, t in data.triples:
        if h in ent_cluster and t in ent_cluster:
            total += 1
            intra += ent_cluster[h] == ent_cluster[t]
    assert total > 0
    assert intra / total >= 0.8


def test_graph_wiring_shapes():
    spec = _spec(also_viewed_rate=0.0)
    data = generate(spec)
    triples = set(data.triples)
    # ring edges in both directions, hub edges both ways
    assert ("i0", "similar_to", "i1") in triples
    assert ("i1", "similar_to", "i0") in triples
    assert ("i0", "belongs_to", "g0") in triples
    assert ("g0", "features", "i0") in triples
    # the ring wraps inside the cluster, never across
    assert (f"i{spec.items_per_cluster - 1}", "similar_to", "i0") in triples
    assert all(not (h == f"i{spec.items_per_cluster - 1}" and t == f"i{spec.items_per_cluster}")
               for h, r, t in triples if r == "similar_to")
    assert data.links == {str(i): f"i{i}"
                          for i in range(spec.clusters * spec.items_per_cluster)}


def test_cluster_assignment_is_balanced():
    spec = _spec(clusters=4, users=41)
    data = generate(spec)
    counts = np.bincount(data.cluster_of_user, minlength=4)
    assert counts.max() - counts.min() <= 1
    assert np.array_equal(data.cluster_of_item,
                          np.arange(4 * 6) // 6)


def test_home_rating_budget_limits_rows():
    spec = _spec(home_ratings_per_user=2, out_ratings_per_user=3)
    data = generate(spec)
    for u in range(spec.users):
        mask = data.users == u
        items = data.items[mask]
        assert items.size == 2 + 3
        home_items = items[data.cluster_of_item[items] == data.cluster_of_user[u]]
        assert home_items.size == 2
        assert np.all(np.diff(home_items) > 0)  # sampled without replacement, sorted


def test_home_budget_zero_rates_whole_cluster():
    spec = _spec(home_ratings_per_user=0, out_ratings_per_user=2)
    data = generate(spec)
    mask = data.users == 0
    items = data.items[mask]
    assert items.size == spec.items_per_cluster + 2
    home = items[data.cluster_of_item[items] == data.cluster_of_user[0]]
    assert set(home.tolist()) == set(np.nonzero(data.cluster_of_item == 0)[0].tolist())


def test_generation_is_deterministic_per_seed():
    a = generate(_spec(seed=5))
    b = generate(_spec(seed=5))
    assert np.array_equal(a.users, b.users)
    assert np.array_equal(a.items, b.items)
    assert np.array_equal(a.ratings, b.ratings)
    assert a.triples == b.triples
    c = generate(_spec(seed=6))
    assert not (np.array_equal(a.ratings, c.ratings) and a.triples == c.triples)


def test_spec_validation():
    cases = [
        dict(clusters=1),
        dict(items_per_cluster=1),
        dict(users=0),
        dict(out_ratings_per_user=-1),
        dict(out_ratings_per_user=100),  # exceeds the foreign pool
        dict(home_ratings_per_user=-1),
        dict(home_ratings_per_user=7),  # exceeds items_per_cluster
        dict(rating_min=4.0, rating_max=4.0),
        dict(noise=-0.1),
        dict(also_viewed_rate=1.5),
    ]
    for kw in cases:
        with pytest.raises(ValueError):
            _spec(**kw).validate()
    _spec().validate()


def test_parse_spec_reads_flat_key_value_files(tmp_path):
    path = tmp_path / "world.cfg"
    path.write_text(
        "# toy world\n"
        "clusters = 3\n"
        "items_per_cluster = 4\n"
        "\n"
        "users = 9\n"
        "out_ratings_per_user = 2\n"
        "home_ratings_per_user = 2\n"
        "noise = 0.25  # tail comment\n"
    )
    spec = parse_spec(str(path))
    assert spec.clusters == 3
    assert spec.items_per_cluster == 4
    assert spec.users == 9
    assert spec.home_ratings_per_user == 2
    assert spec.noise == 0.25
    assert spec.intra_mean == 4.5  # untouched default


@pytest.mark.parametrize("text,needle", [
    ("wat = 3\n", "unknown key"),
    ("clusters = 3\nclusters = 4\n", "duplicate"),
    ("clusters three\n", "key = value"),
    ("clusters = 2.5\n", "cannot parse"),
    ("noise = warm\n", "cannot parse"),
])
def test_parse_spec_rejects_malformed_lines(tmp_path, text, needle):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    with pytest.raises(ValueError, match=needle):
        parse_spec(str(path))


def test_parse_spec_line_numbers_in_errors(tmp_path):
    path = tmp_path / "bad.cfg"
    for bad in ("bogus = 1", "clusters = 4", "clusters three", "clusters = 2.5", "noise = warm"):
        path.write_text(f"clusters = 3\n\n{bad}\n")
        with pytest.raises(ValueError, match=r"bad\.cfg:3: "):
            parse_spec(str(path))


def test_write_dataset_round_trips(tmp_path):
    spec = _spec(home_ratings_per_user=2, also_viewed_rate=0.5)
    data = generate(spec)
    paths = write_dataset(str(tmp_path / "world"), data)
    assert set(paths) == {"ratings", "triples", "links"}

    users, items, ratings = [], [], []
    with open(paths["ratings"], encoding="utf-8") as fh:
        for line in fh:
            u, i, r = line.rstrip("\n").split("\t")
            users.append(int(u))
            items.append(int(i))
            ratings.append(float(r))
    assert np.array_equal(np.array(users), data.users)
    assert np.array_equal(np.array(items), data.items)
    assert np.array_equal(np.array(ratings), data.ratings)  # repr round trip

    graph = load_graph(paths["triples"], paths["links"])
    assert len(graph.item_to_entity) == spec.clusters * spec.items_per_cluster
    assert set(graph.item_to_entity) == set(data.links)


def test_written_files_are_byte_identical_across_runs(tmp_path):
    spec = _spec(seed=11)
    p1 = write_dataset(str(tmp_path / "a"), generate(spec))
    p2 = write_dataset(str(tmp_path / "b"), generate(spec))
    for key in ("ratings", "triples", "links"):
        with open(p1[key], "rb") as f1, open(p2[key], "rb") as f2:
            assert f1.read() == f2.read()
    leftovers = [n for n in (tmp_path / "a").iterdir() if ".tmp." in n.name]
    assert leftovers == []
