"""Clustered synthetic dataset and knowledge graph generator.

Users concentrate their taste on one item cluster; the generated graph
wires items within a cluster together (ring edges plus a genre hub), so
hop neighborhoods of liked items align with what the user will like
next. Cross-cluster distractor edges keep the selection problem honest.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .textio import atomic_write, field_casters, parse_flat, read_text, rows_text


@dataclass(frozen=True)
class SynthSpec:
    clusters: int = 5
    items_per_cluster: int = 10
    users: int = 250
    home_ratings_per_user: int = 0  # 0 rates the whole home cluster
    out_ratings_per_user: int = 10
    intra_mean: float = 4.5
    inter_mean: float = 1.5
    noise: float = 0.3
    rating_min: float = 1.0
    rating_max: float = 5.0
    also_viewed_rate: float = 0.1
    seed: int = 0

    def validate(self) -> None:
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.clusters < 2:
            raise ValueError(f"need at least 2 clusters, got {self.clusters}")
        if self.items_per_cluster < 2 or self.users < 1:
            raise ValueError("items_per_cluster must be >= 2 and users >= 1")
        if self.out_ratings_per_user < 0:
            raise ValueError("out_ratings_per_user must be >= 0")
        if not 0 <= self.home_ratings_per_user <= self.items_per_cluster:
            raise ValueError(f"home_ratings_per_user must be in [0, {self.items_per_cluster}], "
                             f"got {self.home_ratings_per_user}")
        out_pool = (self.clusters - 1) * self.items_per_cluster
        if self.out_ratings_per_user > out_pool:
            raise ValueError(f"out_ratings_per_user {self.out_ratings_per_user} exceeds "
                             f"the {out_pool} out-of-cluster items")
        if not self.rating_max > self.rating_min:
            raise ValueError("rating_max must exceed rating_min")
        if self.noise < 0:
            raise ValueError("noise must be >= 0")
        if not 0.0 <= self.also_viewed_rate <= 1.0:
            raise ValueError("also_viewed_rate must be in [0, 1]")


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
