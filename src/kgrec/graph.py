"""Knowledge-graph triple store, k-hop expansion and candidate selection.

Entities and relations are re-indexed to dense 0-based ids in first-seen
order. Items (the recommendable universe) live outside the graph and are
tied to entities through an injective link map.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, Sequence

import numpy as np

from .csr import CsrOperator
from .textio import read_rows


@dataclass(frozen=True, eq=False)
class CandidateSet:
    """Candidate `items` in order, an array of `KnowledgeGraph.linked_items`'
    dtype, and `hops`, the aligned integer array of first-discovery hops."""

    items: np.ndarray
    hops: np.ndarray

    def __len__(self) -> int:
        return len(self.items)


class KnowledgeGraph:
    """Immutable triple store with head -> tails adjacency.

    Attributes:
        n_entities, n_relations, n_triples: counts after deduplication.
        item_to_entity: injective map item id -> entity id.
        entity_to_item: the inverse map.
        linked_items: the linked items, ascending (empty int64 without links).
        linked_entities: the entity of each of `linked_items`.
        mean_adjacency: row-stochastic neighbor-mean operator (a
            `CsrOperator`); rows without neighbors are zero.
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

        self.item_to_entity = dict(item_to_entity)
        self.entity_to_item = {}
        for item, ent in self.item_to_entity.items():
            if not (0 <= ent < n_entities):
                raise ValueError(f"link for item {item!r} points at unknown entity id {ent}")
            if self.entity_to_item.setdefault(ent, item) is not item:
                raise ValueError(f"link map not injective: entity {ent} linked from two items")

        # the CSR successor table, over the distinct keys head * n_entities + tail
        pairs = np.unique(triples[:, 0] * self.n_entities + triples[:, 2])
        heads, self._tails = np.divmod(pairs, self.n_entities)
        self._tails.setflags(write=False)
        self._indptr = np.searchsorted(heads, np.arange(self.n_entities + 1))
        self.mean_adjacency = CsrOperator(self._indptr, self._tails,
                                          1.0 / np.diff(self._indptr)[heads],
                                          (self.n_entities, self.n_entities))

        items = sorted(self.item_to_entity)
        self.linked_items = np.array(items) if items else np.empty(0, dtype=np.int64)
        self.linked_items.setflags(write=False)  # the action universe may share it
        self.linked_entities = np.fromiter((self.item_to_entity[i] for i in items),
                                           dtype=np.int64, count=len(items))
        # each entity's column in linked_items, -1 for entities without an item
        self._column = np.full(self.n_entities, -1, dtype=np.int64)
        self._column[self.linked_entities] = np.arange(len(items))
        self._hop_rows: dict[tuple[int, int], np.ndarray] = {}

    @property
    def n_triples(self) -> int:
        return int(self.triples.shape[0])

    def neighbors(self, entity: int) -> np.ndarray:
        """Distinct tail entities over all relations, ascending id (read-only)."""
        if not (0 <= entity < self.n_entities):
            raise IndexError(f"entity {entity} out of range (n_entities={self.n_entities})")
        return self._tails[self._indptr[entity]:self._indptr[entity + 1]]

    def item_hop_row(self, entity: int, k: int) -> np.ndarray:
        """First hop (1..k) at which `k_hop_sets({entity}, k)` reaches each
        linked item, over the columns of `linked_items`; k + 1 where it
        does not. Built on first use and cached read-only: the graph never
        changes, so a row never goes stale."""
        key = (entity, k)
        row = self._hop_rows.get(key)
        if row is None:
            row = np.full(len(self.linked_items), k + 1, dtype=np.min_scalar_type(k + 1))
            # deepest layer first, so a nearer hop overwrites a farther one
            for hop, layer in reversed(list(enumerate(k_hop_sets(self, {entity}, k), start=1))):
                cols = self._column[np.fromiter(layer, dtype=np.int64, count=len(layer))]
                row[cols[cols >= 0]] = hop
            row.setflags(write=False)
            self._hop_rows[key] = row
        return row


def read_triples(path: str) -> Iterator[list[str]]:
    """The head<TAB>relation<TAB>tail rows of a triples file, as read."""
    return (parts for _, parts in read_rows(path, "\t", (3,), "head<TAB>relation<TAB>tail"))


def read_links(path: str) -> dict[str, str]:
    """The item<TAB>entity lines of a links file as {item: entity}; an item
    linked to two entities is rejected with its line number."""
    links: dict[str, str] = {}
    for lineno, (item, ent) in read_rows(path, "\t", (2,), "item<TAB>entity"):
        if links.setdefault(item, ent) != ent:
            raise ValueError(f"{path}:{lineno}: link map not a function: "
                             f"item {item!r} linked to two entities")
    return links


def build_graph(triples: Iterable[Sequence[Hashable]], links: dict) -> KnowledgeGraph:
    """Construct a graph from token triples and an item -> entity-token map.

    Tokens are re-indexed densely in first-seen order (head, relation,
    tail per triple). Links naming an entity absent from the triples are
    rejected.
    """
    ent_ids: dict = {}
    rel_ids: dict = {}
    ids = array("q")  # head, relation, tail id per triple
    for h, r, t in triples:
        ids.append(ent_ids.setdefault(h, len(ent_ids)))
        ids.append(rel_ids.setdefault(r, len(rel_ids)))
        ids.append(ent_ids.setdefault(t, len(ent_ids)))
    if not ids:
        raise ValueError("empty graph: no triples")
    item_to_entity = {}
    for item, ent_tok in links.items():
        if ent_tok not in ent_ids:
            raise ValueError(f"dangling link: item {item!r} names unknown entity {ent_tok!r}")
        item_to_entity[item] = ent_ids[ent_tok]
    return KnowledgeGraph(np.frombuffer(ids, dtype=np.int64).reshape(-1, 3), len(ent_ids),
                          len(rel_ids), item_to_entity,
                          entity_tokens=[str(t) for t in ent_ids],
                          relation_tokens=[str(t) for t in rel_ids])


def load_graph(triples_path: str, links_path: str) -> KnowledgeGraph:
    """Load a graph from a triples and a links TSV file (see read_triples and
    read_links); items stay string tokens."""
    return build_graph(read_triples(triples_path), read_links(links_path))


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
    hop = np.minimum.reduce([g.item_hop_row(s, k) for s in seeds])
    for item in exclude:
        ent = g.item_to_entity.get(item)
        if ent is not None:
            hop[g._column[ent]] = k + 1
    cols = np.flatnonzero(hop <= k)
    # columns ascend by item id, so a stable sort by hop gives (hop, id) order
    cols = cols[np.argsort(hop[cols], kind="stable")][:max_size]
    return CandidateSet(items=g.linked_items[cols], hops=hop[cols])
