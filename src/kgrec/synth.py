"""Clustered synthetic dataset and knowledge graph generator.

Users concentrate their taste on one item cluster; the generated graph
wires items within a cluster together (ring edges plus a genre hub), so
hop neighborhoods of liked items align with what the user will like
next. Cross-cluster distractor edges keep the selection problem honest.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .textio import (atomic_write, check_ranges, field_casters, parse_flat, read_text, rows_text,
                     within)


@dataclass(frozen=True)
class SynthSpec:
    clusters: int = field(default=5, metadata=within(2))
    items_per_cluster: int = field(default=10, metadata=within(2))
    users: int = field(default=250, metadata=within(1))
    home_ratings_per_user: int = field(default=0, metadata=within(0))  # 0: all the home cluster
    out_ratings_per_user: int = field(default=10, metadata=within(0))
    intra_mean: float = field(default=4.5, metadata=within())
    inter_mean: float = field(default=1.5, metadata=within())
    noise: float = field(default=0.3, metadata=within(0))
    rating_min: float = field(default=1.0, metadata=within())
    rating_max: float = field(default=5.0, metadata=within())
    also_viewed_rate: float = field(default=0.1, metadata=within(0, 1))
    seed: int = field(default=0, metadata=within(0))

    def validate(self) -> None:
        check_ranges(self)
        if self.home_ratings_per_user > self.items_per_cluster:
            raise ValueError(f"home_ratings_per_user must be in [0, {self.items_per_cluster}], "
                             f"got {self.home_ratings_per_user}")
        out_pool = (self.clusters - 1) * self.items_per_cluster
        if self.out_ratings_per_user > out_pool:
            raise ValueError(f"out_ratings_per_user {self.out_ratings_per_user} exceeds "
                             f"the {out_pool} out-of-cluster items")
        if not self.rating_max > self.rating_min:
            raise ValueError("rating_max must exceed rating_min")


@dataclass(frozen=True)
class SynthData:
    """Generated interactions plus the aligned graph, as raw tokens."""

    users: np.ndarray
    items: np.ndarray
    ratings: np.ndarray
    triples: tuple
    links: dict
    cluster_of_item: np.ndarray
    cluster_of_user: np.ndarray


def generate(spec: SynthSpec) -> SynthData:
    """Deterministic synthetic world for a given spec.

    Every user rates home_ratings_per_user items from the home cluster
    (0 means all of them; ratings around intra_mean) plus
    out_ratings_per_user items drawn from the other clusters (around
    inter_mean); gaussian noise on top, clipped to the scale.
    """
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    n_items = spec.clusters * spec.items_per_cluster
    cluster_of_item = np.arange(n_items) // spec.items_per_cluster
    cluster_of_user = np.arange(spec.users) % spec.clusters

    users, items, ratings = [], [], []
    for u in range(spec.users):
        home = cluster_of_user[u]
        own = np.nonzero(cluster_of_item == home)[0]
        if spec.home_ratings_per_user:
            own = np.sort(rng.choice(own, size=spec.home_ratings_per_user, replace=False))
        other = np.nonzero(cluster_of_item != home)[0]
        picked = rng.choice(other, size=spec.out_ratings_per_user, replace=False)
        for i in own:
            users.append(u)
            items.append(int(i))
            ratings.append(spec.intra_mean + spec.noise * rng.standard_normal())
        for i in picked:
            users.append(u)
            items.append(int(i))
            ratings.append(spec.inter_mean + spec.noise * rng.standard_normal())
    ratings = np.clip(np.asarray(ratings), spec.rating_min, spec.rating_max)

    triples = []
    for i in range(n_items):
        c = cluster_of_item[i]
        base = c * spec.items_per_cluster
        nxt = base + (i - base + 1) % spec.items_per_cluster
        triples.append((f"i{i}", "similar_to", f"i{nxt}"))
        triples.append((f"i{nxt}", "similar_to", f"i{i}"))
        triples.append((f"i{i}", "belongs_to", f"g{c}"))
        triples.append((f"g{c}", "features", f"i{i}"))
        if rng.random() < spec.also_viewed_rate:
            j = int(rng.choice(np.nonzero(cluster_of_item != c)[0]))
            triples.append((f"i{i}", "also_viewed", f"i{j}"))
    links = {str(i): f"i{i}" for i in range(n_items)}

    return SynthData(users=np.asarray(users, dtype=np.int64),
                     items=np.asarray(items, dtype=np.int64),
                     ratings=ratings, triples=tuple(triples), links=links,
                     cluster_of_item=cluster_of_item, cluster_of_user=cluster_of_user)


def parse_spec(path: str) -> SynthSpec:
    """Read a flat `key = value` spec file; unknown keys are rejected."""
    spec = SynthSpec(**parse_flat(read_text(path), field_casters(SynthSpec), path))
    spec.validate()
    return spec


def write_dataset(out_dir: str, data: SynthData) -> dict[str, str]:
    """Write the three TSV files; returns their paths keyed by role."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "ratings": os.path.join(out_dir, "interactions.tsv"),
        "triples": os.path.join(out_dir, "kg_triples.tsv"),
        "links": os.path.join(out_dir, "kg_links.tsv"),
    }
    atomic_write(paths["ratings"], rows_text(zip(data.users, data.items, data.ratings), sep="\t"))
    atomic_write(paths["triples"], rows_text(data.triples, sep="\t"))
    atomic_write(paths["links"], rows_text(data.links.items(), sep="\t"))
    return paths
