"""Triple store and k-hop expansion against brute-force set oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kgrec.graph import (CandidateSet, KnowledgeGraph, build_graph, candidate_items,
                         k_hop_sets, load_graph)
from oracles import candidate_items_bfs, mean_adjacency_coo, successors_loop


def _random_graph(rng, max_entities=200):
    n_ent = int(rng.integers(3, max_entities + 1))
    n_rel = int(rng.integers(1, 5))
    n_tri = int(rng.integers(1, max(2, n_ent * 2)))
    triples = np.stack([rng.integers(0, n_ent, size=n_tri),
                        rng.integers(0, n_rel, size=n_tri),
                        rng.integers(0, n_ent, size=n_tri)], axis=1)
    n_items = int(rng.integers(1, n_ent + 1))
    linked_entities = rng.choice(n_ent, size=n_items, replace=False)
    item_to_entity = {int(i): int(e) for i, e in enumerate(linked_entities)}
    return KnowledgeGraph(triples, n_ent, n_rel, item_to_entity), triples


def _succ_oracle(triples, n_ent):
    succ = {h: set() for h in range(n_ent)}
    for h, _, t in triples:
        succ[int(h)].add(int(t))
    return succ


def _layers_oracle(succ, seeds, k):
    layers = []
    frontier = set(seeds)
    for _ in range(k):
        nxt = set()
        for h in frontier:
            nxt |= succ[h]
        layers.append(nxt)
        frontier = nxt
    return layers


def test_neighbors_match_oracle():
    rng = np.random.default_rng(21)
    for trial in range(40):
        g, triples = _random_graph(rng)
        succ = _succ_oracle(triples, g.n_entities)
        for ent in range(g.n_entities):
            got = g.neighbors(ent)
            assert sorted(got.tolist()) == sorted(succ[ent]), f"trial {trial} entity {ent}"
            assert np.all(np.diff(got) > 0)  # ascending, deduplicated


def test_k_hop_sets_match_oracle():
    rng = np.random.default_rng(22)
    for trial in range(40):
        g, triples = _random_graph(rng, max_entities=60)
        succ = _succ_oracle(triples, g.n_entities)
        k = int(rng.integers(1, 4))
        n_seeds = int(rng.integers(1, 4))
        seeds = set(rng.choice(g.n_entities, size=n_seeds, replace=False).tolist())
        got = k_hop_sets(g, seeds, k)
        want = _layers_oracle(succ, seeds, k)
        assert got == want, f"trial {trial}"


def test_candidate_items_match_oracle():
    rng = np.random.default_rng(23)
    for trial in range(40):
        g, triples = _random_graph(rng, max_entities=60)
        succ = _succ_oracle(triples, g.n_entities)
        k = int(rng.integers(1, 4))
        seeds = set(rng.choice(g.n_entities, size=int(rng.integers(1, 4)), replace=False).tolist())
        max_size = int(rng.integers(1, 12))
        exclude = set(int(i) for i in rng.choice(len(g.item_to_entity),
                                                 size=int(rng.integers(0, 3)), replace=False))
        got = candidate_items(g, seeds, k, max_size, exclude=exclude)

        first_hop = {}
        for hop, layer in enumerate(_layers_oracle(succ, seeds, k), start=1):
            for ent in layer:
                first_hop.setdefault(ent, hop)
        want = sorted((hop, g.entity_to_item[e]) for e, hop in first_hop.items()
                      if e in g.entity_to_item and g.entity_to_item[e] not in exclude)
        want = want[:max_size]
        assert list(got.items) == [it for _, it in want], f"trial {trial}"
        assert list(got.hops) == [h for h, _ in want], f"trial {trial}"


@st.composite
def _candidate_queries(draw):
    """A random graph with string item tokens, and one candidate query on it
    whose seeds may repeat and whose arguments may be out of range."""
    n_ent = draw(st.integers(1, 25))
    n_rel = draw(st.integers(1, 3))
    triples = draw(st.lists(st.tuples(st.integers(0, n_ent - 1), st.integers(0, n_rel - 1),
                                      st.integers(0, n_ent - 1)), min_size=1, max_size=3 * n_ent))
    linked = draw(st.lists(st.integers(0, n_ent - 1), unique=True, max_size=n_ent))
    # short tokens over a small alphabet, so "b" < "b0" < "b1" < "ba" orders differ from ints
    tokens = draw(st.lists(st.text(alphabet="ab01", min_size=1, max_size=3), unique=True,
                           min_size=len(linked), max_size=len(linked)))
    g = KnowledgeGraph(np.array(triples), n_ent, n_rel, dict(zip(tokens, linked)))
    seeds = draw(st.lists(st.integers(0, n_ent - 1), max_size=6))
    seeds += draw(st.lists(st.sampled_from([-1, n_ent]), max_size=1))
    k = draw(st.integers(-1, 4))
    max_size = draw(st.integers(-1, 12))
    exclude = draw(st.lists(st.sampled_from(tokens + ["zz"]), max_size=4))
    return g, seeds, k, max_size, exclude


def _outcome(fn, *args, **kwargs):
    try:
        cs = fn(*args, **kwargs)
    except (ValueError, IndexError) as err:
        return type(err), str(err)
    return cs.items.dtype, cs.items.tolist(), cs.hops.tolist()


@settings(max_examples=300, deadline=None)
@given(_candidate_queries())
def test_cached_candidate_items_match_bfs_oracle(query):
    g, seeds, k, max_size, exclude = query
    want = _outcome(candidate_items_bfs, g, seeds, k, max_size, exclude=exclude)
    # the second call reads the rows the first one cached
    for _ in range(2):
        assert _outcome(candidate_items, g, seeds, k, max_size, exclude=exclude) == want
    if k >= 1:
        for s in set(seeds) & set(range(g.n_entities)):
            row = g.item_hop_row(s, k)
            assert g.item_hop_row(s, k) is row
            assert not row.flags.writeable
            with pytest.raises(ValueError):
                row[...] = 0


def test_candidate_set_truthiness_and_len():
    empty = CandidateSet(items=np.empty(0, dtype=np.int64), hops=np.empty(0, dtype=np.uint8))
    assert not empty and len(empty) == 0
    one = CandidateSet(items=np.array([5]), hops=np.array([1], dtype=np.uint8))
    assert one and len(one) == 1


def test_exclusion_applies_before_truncation():
    # ring 0 -> 1 -> 2 -> 3 -> 0, all linked to themselves as items
    triples = [(i, 0, (i + 1) % 4) for i in range(4)]
    g = KnowledgeGraph(np.array(triples), 4, 1, {i: i for i in range(4)})
    got = candidate_items(g, {0}, 3, max_size=1, exclude={1})
    # hop ranking is 1 -> 2 -> 3; dropping 1 promotes 2 into the size-1 cut
    assert got.items == (2,) and got.hops == (2,)


def test_layers_revisit_nodes():
    # 0 <-> 1: every odd layer is {the other node}, revisits included
    g = KnowledgeGraph(np.array([[0, 0, 1], [1, 0, 0]]), 2, 1, {})
    layers = k_hop_sets(g, {0}, 4)
    assert layers == [{1}, {0}, {1}, {0}]


def test_duplicate_triples_collapse():
    triples = np.array([[0, 0, 1], [0, 0, 1], [0, 1, 1]])
    g = KnowledgeGraph(triples, 2, 2, {})
    assert g.n_triples == 2  # exact duplicate removed, two relations kept
    assert g.neighbors(0).tolist() == [1]


def test_mean_adjacency_rows():
    rng = np.random.default_rng(24)
    for trial in range(10):
        g, triples = _random_graph(rng, max_entities=40)
        a = g.mean_adjacency
        dense = np.zeros(a.shape)
        for h in range(g.n_entities):
            span = slice(a.indptr[h], a.indptr[h + 1])
            np.add.at(dense[h], a.indices[span], a.data[span])
        succ = _succ_oracle(triples, g.n_entities)
        for h in range(g.n_entities):
            row = dense[h]
            if succ[h]:
                assert abs(row.sum() - 1.0) < 1e-12
                for t in succ[h]:
                    assert abs(row[t] - 1.0 / len(succ[h])) < 1e-12
            else:
                assert not row.any()


@st.composite
def _structure_graphs(draw):
    """Random triples whose (head, tail) pairs repeat across relations, whose
    last entity may have no successors, with no links, int items or string
    items."""
    n_ent = draw(st.integers(1, 25))
    n_rel = draw(st.integers(1, 3))
    pairs = draw(st.lists(st.tuples(st.integers(0, max(0, n_ent - 2)), st.integers(0, n_ent - 1)),
                          min_size=1, max_size=3 * n_ent))
    triples = [(h, r, t) for h, t in pairs
               for r in draw(st.sets(st.integers(0, n_rel - 1), min_size=1))]
    linked = draw(st.lists(st.integers(0, n_ent - 1), unique=True, max_size=n_ent))
    kind = draw(st.sampled_from(["none", "int", "str"]))
    if kind == "none":
        links = {}
    elif kind == "int":
        links = dict(zip(draw(st.lists(st.integers(0, 99), unique=True, min_size=len(linked),
                                       max_size=len(linked))), linked))
    else:
        links = {f"i{e}": e for e in linked}
    return np.array(triples), n_ent, n_rel, links


@settings(max_examples=200, deadline=None)
@given(_structure_graphs(), st.integers(0, 2**32 - 1))
def test_structure_matches_per_entity_oracle(graph, x_seed):
    triples, n_ent, n_rel, links = graph
    g = KnowledgeGraph(triples, n_ent, n_rel, links)
    want_triples = np.unique(triples.astype(np.int64), axis=0)
    assert g.triples.shape == want_triples.shape and g.triples.dtype == want_triples.dtype
    assert g.triples.tobytes() == want_triples.tobytes() and not g.triples.flags.writeable
    succ = successors_loop(triples, n_ent)
    for ent in range(n_ent):
        got = g.neighbors(ent)
        assert got.dtype == succ[ent].dtype and np.array_equal(got, succ[ent])
        assert not got.flags.writeable
        with pytest.raises(ValueError):
            got[...] = 0
    want = mean_adjacency_coo(succ)
    for name in ("indptr", "indices", "data"):
        got_arr, want_arr = getattr(g.mean_adjacency, name), getattr(want, name)
        assert got_arr.dtype == want_arr.dtype and got_arr.tobytes() == want_arr.tobytes()
    x = np.random.default_rng(x_seed).standard_normal((n_ent, 3))
    assert (g.mean_adjacency @ x).tobytes() == (want @ x).tobytes()
    assert (g.mean_adjacency.T @ x).tobytes() == (want.T @ x).tobytes()
    assert g.linked_items.tolist() == sorted(links)
    assert g.linked_entities.tolist() == [links[i] for i in sorted(links)]
    if not links:
        assert g.linked_items.dtype == np.int64


def test_constructor_validation():
    with pytest.raises(ValueError):
        KnowledgeGraph(np.zeros((0, 3), dtype=np.int64), 3, 1, {})
    with pytest.raises(ValueError):
        KnowledgeGraph(np.array([[0, 0, 5]]), 3, 1, {})  # entity out of range
    with pytest.raises(ValueError):
        KnowledgeGraph(np.array([[0, 2, 1]]), 3, 1, {})  # relation out of range
    with pytest.raises(ValueError):
        KnowledgeGraph(np.array([[0, 0, 1]]), 3, 1, {0: 0, 1: 0})  # not injective
    with pytest.raises(ValueError):
        KnowledgeGraph(np.array([[0, 0, 1]]), 3, 1, {0: 9})  # link out of range


def test_expansion_validation():
    g = KnowledgeGraph(np.array([[0, 0, 1]]), 2, 1, {0: 0})
    with pytest.raises(ValueError):
        k_hop_sets(g, set(), 1)
    with pytest.raises(ValueError):
        k_hop_sets(g, {0}, 0)
    with pytest.raises(IndexError):
        k_hop_sets(g, {7}, 1)
    with pytest.raises(IndexError):
        g.neighbors(-1)
    with pytest.raises(ValueError):
        candidate_items(g, {0}, 1, max_size=0)


def test_build_graph_first_seen_ids():
    g = build_graph([("b", "r", "a"), ("a", "s", "c")], {"x": "c"})
    assert g.entity_tokens == ["b", "a", "c"]
    assert g.relation_tokens == ["r", "s"]
    assert g.item_to_entity == {"x": 2}
    with pytest.raises(ValueError):
        build_graph([("a", "r", "b")], {"x": "zzz"})  # dangling link
    with pytest.raises(ValueError):
        build_graph([], {})


def test_load_graph_round_trip(tmp_path):
    tp = tmp_path / "triples.tsv"
    lp = tmp_path / "links.tsv"
    tp.write_text("e0\tlikes\te1\ne1\tlikes\te2\n")
    lp.write_text("10\te0\n20\te2\n")
    g = load_graph(str(tp), str(lp))
    assert g.n_entities == 3 and g.n_relations == 1
    # item ids from files stay strings
    assert g.item_to_entity == {"10": 0, "20": 2}


def test_load_graph_line_errors(tmp_path):
    tp = tmp_path / "triples.tsv"
    lp = tmp_path / "links.tsv"
    tp.write_text("e0\tlikes\te1\nbroken line\n")
    lp.write_text("10\te0\n")
    with pytest.raises(ValueError) as err:
        load_graph(str(tp), str(lp))
    assert ":2:" in str(err.value)

    tp.write_text("e0\tlikes\te1\n")
    lp.write_text("10\te0\n10\te1\n")
    with pytest.raises(ValueError):
        load_graph(str(tp), str(lp))  # contradictory duplicate link

    lp.write_text("10\te0\n10\te0\n")
    g = load_graph(str(tp), str(lp))  # agreeing duplicate is fine
    assert g.item_to_entity == {"10": 0}
