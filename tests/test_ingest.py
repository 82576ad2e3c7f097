"""The set-up's column form: `ingest` and `build_graph` give the bytes of
the per-row reference in `tests/oracles.py` on random files, fail with
its messages, and keep their memory per rating and per triple bounded."""

import tracemalloc

from hypothesis import given, settings, strategies as st

from kgrec.experiments import ExperimentConfig, ingest
from kgrec.graph import load_graph
from kgrec.synth import SynthSpec, generate, write_dataset

from oracles import ingest_rows

# tokens with inner spaces and non-ASCII characters; none holds a tab
TOKENS = ["u1", "u2", "a b", "été", "用户", "x y z", "ü"]
STAMPS = ["0", "0.0", "-0.0", "-0", "1", "1.0", "-3", "+2", "2.5", "-2.5", "1e3"]
RATINGS = st.floats(-10, 10, allow_nan=False).map(repr) | st.sampled_from(["1", "-0.0", "4"])
BAD = ["u1\ti1\tgreat", "u1\ti1\tnan", "u1\ti1\t4.0\tinf", "u1\ti1", "u1\ti1\t1\t2\t3",
       "u1\ti1\t1\tsoon"]


def _ratings_line(data):
    fields = [data.draw(st.sampled_from(TOKENS)), data.draw(st.sampled_from(TOKENS)),
              data.draw(RATINGS)]
    if data.draw(st.booleans()):
        fields.append(data.draw(st.sampled_from(STAMPS)))
    return "\t".join(fields)


def _dataset_fields(ds):
    return ([a.dtype.str for a in (ds.users, ds.items, ds.ratings)],
            ds.users.tobytes(), ds.items.tobytes(), ds.ratings.tobytes(),
            ds.user_tokens, ds.item_tokens, ds.n_users, ds.n_items, ds.unlinked_count)


def _graph_fields(g):
    if g is None:
        return None
    a = g.mean_adjacency
    return (g.triples.tobytes(), a.indptr.tobytes(), a.indices.tobytes(), a.data.tobytes(),
            g.entity_tokens, g.relation_tokens, g.item_to_entity, g.n_entities, g.n_relations)


def _outcome(call):
    try:
        ds = call()
    except ValueError as err:
        return str(err)
    return _dataset_fields(ds), _graph_fields(ds.graph)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), min_inter=st.integers(0, 4),
       threshold=st.none() | st.sampled_from([0.0, 1.0, 2.5]),
       with_graph=st.booleans(), bad=st.booleans())
def test_ingest_matches_the_per_row_reference(tmp_path_factory, data, min_inter, threshold,
                                              with_graph, bad):
    lines = [_ratings_line(data) for _ in range(data.draw(st.integers(0, 25)))]
    # repeated (user, item) pairs, whitespace-only lines, optionally a bad line
    lines += data.draw(st.lists(st.sampled_from(lines), max_size=4)) if lines else []
    lines += data.draw(st.lists(st.sampled_from(["", "  ", "\t", " \t "]), max_size=3))
    if bad:
        lines.append(data.draw(st.sampled_from(BAD)))
    lines = data.draw(st.permutations(lines))
    out = tmp_path_factory.mktemp("ingest")
    (out / "r.tsv").write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    config = ExperimentConfig(ratings=str(out / "r.tsv"), min_user_interactions=min_inter,
                              binarize_threshold=threshold)
    if with_graph:
        entities = st.sampled_from(["e0", "e1", "e 2", "é3", "e4"])
        triples = data.draw(st.lists(st.tuples(entities, st.sampled_from(["r", "s t"]),
                                               entities), min_size=1, max_size=12))
        # an injective link map onto some of the triples' entities, from
        # items with and without ratings
        held = sorted({e for h, _, t in triples for e in (h, t)})
        linked = data.draw(st.lists(st.sampled_from(held), unique=True))
        items = data.draw(st.lists(st.sampled_from(TOKENS + ["ghost"]), unique=True,
                                   min_size=len(linked), max_size=len(linked)))
        (out / "t.tsv").write_text("".join(f"{h}\t{r}\t{t}\n" for h, r, t in triples),
                                   encoding="utf-8")
        (out / "l.tsv").write_text("".join(f"{i}\t{e}\n" for i, e in zip(items, linked)),
                                   encoding="utf-8")
        config.triples, config.links = str(out / "t.tsv"), str(out / "l.tsv")
    assert _outcome(lambda: ingest(config)) == _outcome(lambda: ingest_rows(config))


# The bench's wide world at its seed-0 spec: 15,000 ratings, 8,612 triples.
WIDE = SynthSpec(clusters=20, items_per_cluster=100, users=500, home_ratings_per_user=20,
                 out_ratings_per_user=10, also_viewed_rate=0.3, seed=3)


def _traced_peak(call) -> int:
    """Bytes that `call` allocates at its peak over what was traced before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_set_up_memory_per_rating_and_per_triple(tmp_path):
    data = generate(WIDE)
    paths = write_dataset(str(tmp_path), data)
    assert (len(data.ratings), len(data.triples)) == (15_000, 8_612)
    config = ExperimentConfig(ratings=paths["ratings"], kg_embeddings=False,
                              gcn_propagation=False, candidate_selection=False)
    # one tuple per row read 308 B per rating and 474 B per triple
    assert _traced_peak(lambda: ingest(config)) / 15_000 <= 160
    assert _traced_peak(lambda: load_graph(paths["triples"], paths["links"])) / 8_612 <= 240
