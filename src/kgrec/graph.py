"""Knowledge-graph triple store, k-hop expansion and candidate selection.

Entities and relations are re-indexed to dense 0-based ids in first-seen
order. Items (the recommendable universe) live outside the graph and are
tied to entities through an injective link map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

import numpy as np
import scipy.sparse as sparse


@dataclass(frozen=True)
class CandidateSet:
    """Ordered candidate items with the hop each was first discovered at."""

    items: tuple
    hops: tuple[int, ...]
    seeds: frozenset

    def __len__(self) -> int:
        return len(self.items)

    def __bool__(self) -> bool:
        return bool(self.items)


class KnowledgeGraph:
    """Immutable triple store with head -> tails adjacency.

    Attributes:
        n_entities, n_relations, n_triples: counts after deduplication.
        item_to_entity: injective map item id -> entity id.
        entity_to_item: the inverse map.
    """

    def __init__(self, triples: np.ndarray, n_entities: int, n_relations: int,
                 item_to_entity: dict, entity_tokens: list[str] | None = None,
                 relation_tokens: list[str] | None = None):
        triples = np.asarray(triples, dtype=np.int64)
        if triples.ndim != 2 or triples.shape[1] != 3:
            raise ValueError(f"triples must be (n, 3), got {triples.shape}")
        if triples.shape[0] == 0:
            raise ValueError("empty graph: no triples")
        if triples[:, [0, 2]].min() < 0 or triples[:, [0, 2]].max() >= n_entities:
            raise ValueError("entity id out of range")
        if triples[:, 1].min() < 0 or triples[:, 1].max() >= n_relations:
            raise ValueError("relation id out of range")
        # dedup, keep a canonical sorted order
        triples = np.unique(triples, axis=0)
        self.triples = triples
        self.triples.setflags(write=False)
        self.n_entities = int(n_entities)
        self.n_relations = int(n_relations)
        self.entity_tokens = entity_tokens
        self.relation_tokens = relation_tokens

        seen_entities = set()
        self.item_to_entity = dict(item_to_entity)
        for item, ent in self.item_to_entity.items():
            if not (0 <= ent < n_entities):
                raise ValueError(f"link for item {item!r} points at unknown entity id {ent}")
            if ent in seen_entities:
                raise ValueError(f"link map not injective: entity {ent} linked from two items")
            seen_entities.add(ent)
        self.entity_to_item = {e: i for i, e in self.item_to_entity.items()}

        succ: list[np.ndarray] = []
        order = np.argsort(triples[:, 0], kind="stable")
        heads = triples[order, 0]
        tails = triples[order, 2]
        bounds = np.searchsorted(heads, np.arange(n_entities + 1))
        for h in range(n_entities):
            t = np.unique(tails[bounds[h]:bounds[h + 1]])
            t.setflags(write=False)
            succ.append(t)
        self._succ = succ
        self._mean_adjacency = None
        self._linked: tuple[tuple, np.ndarray] | None = None
        self._hop_rows: dict[tuple[int, int], np.ndarray] = {}

    @property
    def n_triples(self) -> int:
        return int(self.triples.shape[0])

    def neighbors(self, entity: int) -> np.ndarray:
        """Distinct tail entities over all relations, ascending id."""
        if not (0 <= entity < self.n_entities):
            raise IndexError(f"entity {entity} out of range (n_entities={self.n_entities})")
        return self._succ[entity]

    @property
    def mean_adjacency(self) -> sparse.csr_matrix:
        """Row-stochastic neighbor-mean operator; rows without neighbors are zero."""
        if self._mean_adjacency is None:
            rows, cols, vals = [], [], []
            for h in range(self.n_entities):
                t = self._succ[h]
                if t.size:
                    rows.extend([h] * t.size)
                    cols.extend(t.tolist())
                    vals.extend([1.0 / t.size] * t.size)
            self._mean_adjacency = sparse.csr_matrix(
                (vals, (rows, cols)), shape=(self.n_entities, self.n_entities))
        return self._mean_adjacency

    def _linked_items(self) -> tuple[tuple, np.ndarray]:
        """Linked items in ascending id order, and each entity's column in
        that order (-1 for entities without an item); built on first use."""
        if self._linked is None:
            items = tuple(sorted(self.item_to_entity))
            column = np.full(self.n_entities, -1, dtype=np.int64)
            entities = np.fromiter((self.item_to_entity[i] for i in items), dtype=np.int64,
                                   count=len(items))
            column[entities] = np.arange(len(items))
            self._linked = (items, column)
        return self._linked

    def item_hop_row(self, entity: int, k: int) -> np.ndarray:
        """First hop (1..k) at which `k_hop_sets({entity}, k)` reaches each
        linked item, over the columns of `_linked_items`; k + 1 where it
        does not. Built on first use and cached read-only: the graph never
        changes, so a row never goes stale."""
        key = (entity, k)
        row = self._hop_rows.get(key)
        if row is None:
            items, column = self._linked_items()
            row = np.full(len(items), k + 1, dtype=np.min_scalar_type(k + 1))
            # deepest layer first, so a nearer hop overwrites a farther one
            for hop, layer in reversed(list(enumerate(k_hop_sets(self, {entity}, k), start=1))):
                cols = column[np.fromiter(layer, dtype=np.int64, count=len(layer))]
                row[cols[cols >= 0]] = hop
            row.setflags(write=False)
            self._hop_rows[key] = row
        return row


def _parse_tsv(path: str, n_fields: int, what: str) -> list[tuple[str, ...]]:
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != n_fields:
                raise ValueError(f"{path}:{lineno}: expected {n_fields} tab-separated fields for {what}, "
                                 f"got {len(parts)}")
            rows.append(tuple(parts))
    return rows


def build_graph(triples: Iterable[tuple[Hashable, Hashable, Hashable]],
                links: dict) -> KnowledgeGraph:
    """Construct a graph from token triples and an item -> entity-token map.

    Tokens are re-indexed densely in first-seen order (head, relation,
    tail per triple). Links naming an entity absent from the triples are
    rejected.
    """
    ent_ids: dict = {}
    rel_ids: dict = {}
    rows = []
    for h, r, t in triples:
        for tok in (h, t):
            if tok not in ent_ids:
                ent_ids[tok] = len(ent_ids)
        if r not in rel_ids:
            rel_ids[r] = len(rel_ids)
        rows.append((ent_ids[h], rel_ids[r], ent_ids[t]))
    if not rows:
        raise ValueError("empty graph: no triples")
    item_to_entity = {}
    for item, ent_tok in links.items():
        if ent_tok not in ent_ids:
            raise ValueError(f"dangling link: item {item!r} names unknown entity {ent_tok!r}")
        item_to_entity[item] = ent_ids[ent_tok]
    return KnowledgeGraph(np.array(rows, dtype=np.int64), len(ent_ids), len(rel_ids),
                          item_to_entity,
                          entity_tokens=[str(t) for t in ent_ids],
                          relation_tokens=[str(t) for t in rel_ids])


def load_graph(triples_path: str, links_path: str) -> KnowledgeGraph:
    """Load a graph from TSV files.

    Triples file: head<TAB>relation<TAB>tail per line. Links file:
    item_id<TAB>entity per line; items stay string tokens. Malformed
    lines are rejected with their line number.
    """
    triple_rows = _parse_tsv(triples_path, 3, "a triple")
    link_rows = _parse_tsv(links_path, 2, "a link")
    links: dict = {}
    for item, ent in link_rows:
        if item in links and links[item] != ent:
            raise ValueError(f"link map not a function: item {item!r} linked to two entities")
        links[item] = ent
    return build_graph(triple_rows, links)


def _expansion_seeds(g: KnowledgeGraph, seeds: Iterable[int], k: int) -> set[int]:
    """The seeds as a set, after the checks every k-hop expansion makes."""
    seeds = set(seeds)
    if not seeds:
        raise ValueError("k_hop_sets: empty seed set")
    if k < 1:
        raise ValueError(f"k_hop_sets: k must be >= 1, got {k}")
    for s in seeds:
        if not (0 <= s < g.n_entities):
            raise IndexError(f"seed entity {s} out of range")
    return seeds


def k_hop_sets(g: KnowledgeGraph, seeds: Iterable[int], k: int) -> list[set[int]]:
    """Layerwise k-hop expansion: layer l holds the tails of layer l-1.

    Layer 0 is the seed set (not returned). Layers are plain unions of
    neighbor sets and may revisit earlier nodes; this is not a
    visited-pruned traversal.
    """
    seeds = _expansion_seeds(g, seeds, k)
    layers: list[set[int]] = []
    frontier = seeds
    for _ in range(k):
        nxt: set[int] = set()
        for h in frontier:
            nxt.update(g.neighbors(h).tolist())
        layers.append(nxt)
        frontier = nxt
    return layers


def candidate_items(g: KnowledgeGraph, seeds: Iterable[int], k: int, max_size: int,
                    exclude: Iterable = ()) -> CandidateSet:
    """Linked items within k hops of the seeds, as a deterministic list.

    Order is (hop of first discovery, item id ascending); items in
    `exclude` are removed before truncation to max_size. An empty result
    is the caller's signal to fall back to an unrestricted candidate set.

    Layers are unions of neighbor sets, so layer l of a seed set is the
    union of the seeds' own layer l, and the first hop over the seeds is
    the minimum of their cached `item_hop_row`s.
    """
    if max_size < 1:
        raise ValueError(f"candidate_items: max_size must be >= 1, got {max_size}")
    seeds = _expansion_seeds(g, seeds, k)
    items, column = g._linked_items()
    hop = np.minimum.reduce([g.item_hop_row(s, k) for s in seeds])
    for item in exclude:
        ent = g.item_to_entity.get(item)
        if ent is not None:
            hop[column[ent]] = k + 1
    cols = np.flatnonzero(hop <= k)
    # columns ascend by item id, so a stable sort by hop gives (hop, id) order
    cols = cols[np.argsort(hop[cols], kind="stable")][:max_size]
    return CandidateSet(items=tuple(items[c] for c in cols.tolist()),
                        hops=tuple(hop[cols].tolist()),
                        seeds=frozenset(seeds))
