"""Experiment orchestration: config files, ingestion, runs, comparison.

Configs are flat UTF-8 `key = value` text; unknown keys are rejected so
typos fail loudly. A (config, seed) pair determines every byte of the
learning-curve CSV. All result files are written atomically.
"""

from __future__ import annotations

import hashlib
import logging
import math
import os
from array import array
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .agent import (CurvePoint, Environment, TrainConfig, TrainSettings, save_checkpoint,
                    train)
from .graph import KnowledgeGraph, build_graph, read_links, read_triples
from .metrics import PER_USER_HEADER, EvaluationReport, build_report, wilcoxon_signed_rank
from .simulator import fit_mf, popularity_table, split_users
from .textio import (atomic_write, check_ranges, field_casters, flat_text, parse_flat, read_rows,
                     read_text, rows_text, within)

logger = logging.getLogger("kgrec.experiments")

ETA_CHOICES = (0.0, 0.1, 0.2)


@dataclass
class ExperimentConfig(TrainSettings):
    """Everything a run needs, addressable from a flat config file: the
    training keys of TrainSettings plus the data, simulator and run keys."""

    ratings: str = ""
    triples: str = ""
    links: str = ""
    out_dir: str = "runs/exp"
    seeds: tuple[int, ...] = (0, 1, 2)
    seed: int = field(default=0, metadata=within(0))
    eta: float = field(default=0.1, metadata=within())  # and one of ETA_CHOICES
    candidate_size: str = "1000"
    candidate_sizes: str = "5,10,20,50,all"
    train_fraction: float = field(default=0.8, metadata=within(0, 1, open_ends=True))
    simulator_fit_scope: str = "all"
    sim_dim: int = field(default=20, metadata=within(1))
    sim_epochs: int = field(default=50, metadata=within(0))
    sim_lr: float = field(default=0.01, metadata=within(0))
    sim_reg: float = field(default=0.02, metadata=within(0))
    rating_min: float | None = field(default=None, metadata=within())
    rating_max: float | None = field(default=None, metadata=within())
    hit_threshold: float | None = field(default=None, metadata=within())
    min_user_interactions: int = field(default=0, metadata=within(0))
    binarize_threshold: float | None = field(default=None, metadata=within())
    budget: int = field(default=10_000, metadata=within(1))

    def validate(self) -> None:
        if not self.ratings:
            raise ValueError("config needs a ratings path")
        check_ranges(self)
        if not any(abs(self.eta - v) < 1e-12 for v in ETA_CHOICES):
            raise ValueError(f"eta must be one of {ETA_CHOICES}, got {self.eta}")
        if self.kg_embeddings and not (self.triples and self.links):
            raise ValueError("kg_embeddings requires triples and links paths")
        if self.simulator_fit_scope not in ("all", "train"):
            raise ValueError(f"simulator_fit_scope must be 'all' or 'train', "
                             f"got {self.simulator_fit_scope!r}")
        if not self.seeds or min(self.seeds) < 0:
            raise ValueError(f"seeds must be one or more run seeds >= 0, got {self.seeds}")
        repeated = sorted({s for s in self.seeds if self.seeds.count(s) > 1})
        if repeated:
            raise ValueError(f"seeds repeat {repeated}: each seed has one run directory")
        if None not in (self.rating_min, self.rating_max) and self.rating_min >= self.rating_max:
            raise ValueError(f"rating_min must be < rating_max, got "
                             f"[{self.rating_min}, {self.rating_max}]")
        parse_sizes(self.candidate_sizes)
        for path in (self.ratings, self.triples, self.links):
            if path and not os.path.exists(path):
                raise ValueError(f"referenced path does not exist: {path}")
        self.train_config().validate()
        self.canonical_text()  # every value must read back from the snapshot

    def train_config(self) -> TrainConfig:
        """The agent's settings: the TrainSettings fields as they are,
        interaction_budget from `budget` and candidate_size parsed."""
        shared = {f.name: getattr(self, f.name) for f in fields(TrainSettings)}
        return TrainConfig(**shared, candidate_size=_parse_size(self.candidate_size),
                           interaction_budget=self.budget)

    def canonical_text(self) -> str:
        """Stable `key = value` rendering; parsing it back round-trips."""
        return flat_text(sorted((f.name, getattr(self, f.name)) for f in fields(self)))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode("utf-8")).hexdigest()[:16]


def _parse_size(token: str) -> int | None:
    token = str(token).strip()
    if token == "all":
        return None
    size = int(token)
    if size < 1:
        raise ValueError(f"candidate size must be positive or 'all', got {token!r}")
    return size


def parse_sizes(text: str) -> list[int | None]:
    sizes = [_parse_size(tok) for tok in str(text).split(",") if tok.strip()]
    if not sizes:
        raise ValueError("empty candidate size list")
    repeated = sorted({"all" if s is None else str(s) for s in sizes if sizes.count(s) > 1})
    if repeated:
        raise ValueError(f"candidate sizes repeat {repeated}: each size has one run directory")
    return sizes


_PATH_KEYS = ("ratings", "triples", "links", "out_dir")


def parse_config_text(text: str, base_dir: str = ".", source: str = "<config>") -> ExperimentConfig:
    """Parse flat `key = value` config text. Unknown keys are rejected;
    relative dataset paths resolve against base_dir."""
    values = parse_flat(text, field_casters(ExperimentConfig), source)
    for key in _PATH_KEYS:
        if key in values and values[key]:
            # absolute so the snapshot re-parses from any directory
            values[key] = os.path.abspath(os.path.join(base_dir, values[key]))
    return ExperimentConfig(**values)


def parse_config(path: str) -> ExperimentConfig:
    return parse_config_text(read_text(path), base_dir=os.path.dirname(os.path.abspath(path)),
                             source=path)


# -- ingestion -----------------------------------------------------------


@dataclass
class Dataset:
    """Dense-id interactions plus the (optional) aligned knowledge graph."""

    users: np.ndarray
    items: np.ndarray
    ratings: np.ndarray
    n_users: int
    n_items: int
    graph: KnowledgeGraph | None
    unlinked_count: int
    user_tokens: list[str]
    item_tokens: list[str]


def ingest(config: ExperimentConfig) -> Dataset:
    """Load and filter the ratings file, then attach the graph.

    Rows may carry an optional fourth timestamp column used only for
    ordering. The min-interaction filter drops sparse users before ids
    are assigned; binarization maps ratings to {0, 1} around a threshold.
    Items with no graph link are retained in the catalog but counted and
    excluded from graph-based candidate selection.
    """
    user_ids: dict[str, int] = {}
    item_ids: dict[str, int] = {}
    users, items, ratings, stamps = array("q"), array("q"), array("d"), array("d")
    what = "user<TAB>item<TAB>rating[<TAB>timestamp]"
    for lineno, parts in read_rows(config.ratings, "\t", (3, 4), what):
        try:
            rating = float(parts[2])
            stamp = float(parts[3]) if len(parts) == 4 else 0.0
        except ValueError:
            raise ValueError(f"{config.ratings}:{lineno}: non-numeric rating or timestamp") from None
        if not (math.isfinite(rating) and math.isfinite(stamp)):
            raise ValueError(f"{config.ratings}:{lineno}: non-finite rating or timestamp")
        users.append(user_ids.setdefault(parts[0], len(user_ids)))
        items.append(item_ids.setdefault(parts[1], len(item_ids)))
        ratings.append(rating)
        stamps.append(stamp)
    if not users:
        raise ValueError(f"{config.ratings}: no interactions")
    # a stable sort keeps file order among equal timestamps
    order = np.argsort(np.frombuffer(stamps), kind="stable")
    del stamps
    users = np.frombuffer(users, dtype=np.int64)[order]
    items = np.frombuffer(items, dtype=np.int64)[order]
    ratings = np.frombuffer(ratings)[order]
    del order

    if config.min_user_interactions > 0:
        counts = np.bincount(users, minlength=len(user_ids))
        keep = counts[users] >= config.min_user_interactions
        if not keep.any():
            raise ValueError(f"min_user_interactions={config.min_user_interactions} "
                             "filtered out every user")
        users, items, ratings = users[keep], items[keep], ratings[keep]
        dropped = len(user_ids) - np.count_nonzero(counts >= config.min_user_interactions)
        if dropped:
            logger.info("min-interaction filter dropped %d of %d users", dropped, len(user_ids))

    users, user_tokens = _first_seen(users, list(user_ids))
    items, item_tokens = _first_seen(items, list(item_ids))
    item_ids = {tok: k for k, tok in enumerate(item_tokens)}
    if config.binarize_threshold is not None:
        ratings = np.where(ratings >= config.binarize_threshold, 1.0, 0.0)

    graph = None
    unlinked_count = len(item_ids)
    if config.triples and config.links:
        links: dict[int, str] = {}
        for item_tok, ent_tok in read_links(config.links).items():
            dense = item_ids.get(item_tok)
            if dense is None:
                logger.info("link for item %r ignored: item absent from interactions", item_tok)
            else:
                links[dense] = ent_tok
        graph = build_graph(read_triples(config.triples), links)
        unlinked_count = len(item_ids) - len(links)
        if unlinked_count:
            logger.warning("%d of %d items have no graph link; they stay in the catalog "
                           "but not in graph candidate sets", unlinked_count, len(item_ids))

    return Dataset(users=users, items=items, ratings=ratings,
                   n_users=len(user_tokens), n_items=len(item_tokens), graph=graph,
                   unlinked_count=unlinked_count, user_tokens=user_tokens,
                   item_tokens=item_tokens)


def _first_seen(ids: np.ndarray, tokens: list[str]) -> tuple[np.ndarray, list[str]]:
    """`ids` renumbered 0, 1, ... in order of first appearance, and the token
    of each new id (`tokens[old id]`)."""
    old, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    by_first = np.argsort(first)
    new = np.empty(len(old), dtype=np.int64)
    new[by_first] = np.arange(len(old))
    return new[inverse], [tokens[k] for k in old[by_first].tolist()]


def build_environment(ds: Dataset, config: ExperimentConfig) -> Environment:
    """Split users, fit the feedback simulator, assemble the world.

    The action universe is the linked item set when graph embeddings are
    on (there is no representation to score unlinked items with),
    otherwise the whole catalog; preference denominators always count
    the whole catalog.
    """
    all_users = np.arange(ds.n_users)
    train_users, test_users = split_users(all_users, config.train_fraction, seed=config.seed)
    train_mask = np.isin(ds.users, train_users)
    if config.simulator_fit_scope == "train":
        if not train_mask.any():
            raise ValueError("no training-user interactions to fit the simulator on")
        fit_u, fit_i, fit_r = ds.users[train_mask], ds.items[train_mask], ds.ratings[train_mask]
    else:
        fit_u, fit_i, fit_r = ds.users, ds.items, ds.ratings
    model = fit_mf(fit_u, fit_i, fit_r, n_users=ds.n_users, n_items=ds.n_items,
                   dim=config.sim_dim, epochs=config.sim_epochs, learning_rate=config.sim_lr,
                   reg=config.sim_reg, seed=np.random.SeedSequence([config.seed, 1]),
                   rating_min=config.rating_min, rating_max=config.rating_max,
                   hit_threshold=config.hit_threshold, eta=config.eta, horizon=config.horizon)
    catalog = np.arange(ds.n_items)
    universe = ds.graph.linked_items if config.kg_embeddings else catalog
    if len(universe) < config.horizon:
        raise ValueError(f"action universe has {len(universe)} items; "
                         f"episodes need at least horizon={config.horizon}")
    if not train_mask.any():
        raise ValueError("empty training split")
    popularity = popularity_table(ds.items[train_mask], restrict_to=universe)
    return Environment(model=model, popularity=popularity, train_users=train_users,
                       test_users=test_users, items=np.asarray(universe, dtype=np.int64),
                       train_interactions=(ds.users[train_mask], ds.items[train_mask],
                                           ds.ratings[train_mask]),
                       catalog=catalog)


# -- run orchestration ---------------------------------------------------


@dataclass
class RunArtifacts:
    seed: int
    run_dir: str
    curve_path: str
    report_path: str
    per_user_path: str
    checkpoint_path: str
    config_hash: str
    report: EvaluationReport
    curve: list[CurvePoint] = field(default_factory=list)


CURVE_HEADER = "interactions,reward,precision,recall,seed"


def curve_csv_text(curve: list[CurvePoint], seed: int) -> str:
    return rows_text(((pt.interactions, pt.reward, pt.precision, pt.recall, seed)
                      for pt in curve), CURVE_HEADER)


def interactions_to_threshold(curve: list[CurvePoint], threshold: float) -> int | None:
    """Interaction count at the FIRST crossing of the reward threshold;
    None when the curve never reaches it."""
    for pt in curve:
        if pt.reward >= threshold:
            return pt.interactions
    return None


def run_single_seed(env: Environment, graph: KnowledgeGraph | None,
                    config: ExperimentConfig, seed: int, run_dir: str) -> RunArtifacts:
    os.makedirs(run_dir, exist_ok=True)
    cfg = config.train_config()
    cfg_hash = config.config_hash()
    result = train(env, graph, cfg, seed)
    params, target, curve = result
    curve_path = os.path.join(run_dir, "curve.csv")
    atomic_write(curve_path, curve_csv_text(curve, seed))
    report = build_report(env.test_users, result.final_logs, env.test_preference_counts(),
                          cfg.resolved_eval_gamma(),
                          interactions=curve[-1].interactions, config_hash=cfg_hash)
    report_path = os.path.join(run_dir, "report.txt")
    per_user_path = os.path.join(run_dir, "report_users.csv")
    atomic_write(report_path, report.flat_text())
    atomic_write(per_user_path, report.per_user_csv())
    checkpoint_path = os.path.join(run_dir, "checkpoint.npz")
    save_checkpoint(checkpoint_path, params, target, cfg, config_hash=cfg_hash,
                    interactions=curve[-1].interactions)
    atomic_write(os.path.join(run_dir, "config.snapshot"), config.canonical_text())
    return RunArtifacts(seed=seed, run_dir=run_dir, curve_path=curve_path,
                        report_path=report_path, per_user_path=per_user_path,
                        checkpoint_path=checkpoint_path, config_hash=cfg_hash,
                        report=report, curve=curve)


def run_experiment(config: ExperimentConfig) -> list[RunArtifacts]:
    """Train/evaluate once per seed; write per-seed artifacts plus an
    aggregate CSV with mean and standard-deviation rows. Relative paths
    resolve against the working directory first, so every snapshot parses
    back to the config the run used."""
    config = replace(config, **{key: os.path.abspath(getattr(config, key))
                                for key in _PATH_KEYS if getattr(config, key)})
    config.validate()
    ds = ingest(config)
    env = build_environment(ds, config)
    graph = ds.graph
    os.makedirs(config.out_dir, exist_ok=True)
    atomic_write(os.path.join(config.out_dir, "config.snapshot"), config.canonical_text())
    artifacts = []
    for seed in config.seeds:
        run_dir = os.path.join(config.out_dir, f"seed_{seed}")
        logger.info("running seed %d -> %s", seed, run_dir)
        artifacts.append(run_single_seed(env, graph, config, seed, run_dir))
    finals = np.array([[a.report.average_reward, a.report.precision, a.report.recall]
                       for a in artifacts])
    rows = [(a.seed, *final) for a, final in zip(artifacts, finals.tolist())]
    rows += [("mean", *finals.mean(axis=0).tolist()), ("std", *finals.std(axis=0).tolist())]
    atomic_write(os.path.join(config.out_dir, "aggregate.csv"),
                 rows_text(rows, "seed,reward,precision,recall"))
    return artifacts


# -- comparison ----------------------------------------------------------


def _read_per_user(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(users, rewards, precisions, recalls) of a report_users.csv; a row
    that does not parse, or holds a non-finite metric, raises ValueError
    with the path and line."""
    users, values = [], []
    for lineno, row in read_rows(path, ",", (4,), PER_USER_HEADER, PER_USER_HEADER):
        try:
            users.append(int(row[0]))
            values.append([float(v) for v in row[1:]])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: non-numeric user or metric in "
                             f"{','.join(row)!r}") from None
        if not all(map(math.isfinite, values[-1])):
            raise ValueError(f"{path}:{lineno}: non-finite reward, precision or recall")
    return (np.asarray(users), *np.asarray(values, dtype=np.float64).reshape(-1, 3).T)


def _seed_dirs(run_dir: str) -> list[str]:
    out = []
    for name in sorted(os.listdir(run_dir)):
        path = os.path.join(run_dir, name)
        if name.startswith("seed_") and os.path.isdir(path):
            out.append(path)
    if not out:
        raise ValueError(f"{run_dir}: no seed_* run directories")
    return out


@dataclass(frozen=True)
class MetricComparison:
    metric: str
    mean_a: float
    mean_b: float
    statistic: float
    p_value: float
    significant: bool


def compare(dir_a: str, dir_b: str, alpha: float = 0.05) -> list[MetricComparison]:
    """Paired per-user Wilcoxon over matching seed runs of two experiments.

    Pairs are (seed position, user) observations; both experiments must
    hold the same number of seed runs over identical user sets.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    dirs_a, dirs_b = _seed_dirs(dir_a), _seed_dirs(dir_b)
    if len(dirs_a) != len(dirs_b):
        raise ValueError(f"seed run count mismatch: {len(dirs_a)} vs {len(dirs_b)}")
    per_seed = []
    for da, db in zip(dirs_a, dirs_b):
        ua, *vals_a = _read_per_user(os.path.join(da, "report_users.csv"))
        ub, *vals_b = _read_per_user(os.path.join(db, "report_users.csv"))
        if not np.array_equal(ua, ub):
            raise ValueError(f"user sets differ between {da} and {db}")
        per_seed.append((vals_a, vals_b))
    out = []
    for k, name in enumerate(("reward", "precision", "recall")):
        a = np.concatenate([vals_a[k] for vals_a, _ in per_seed])
        b = np.concatenate([vals_b[k] for _, vals_b in per_seed])
        stat, p = wilcoxon_signed_rank(a, b)
        out.append(MetricComparison(metric=name, mean_a=float(a.mean()),
                                    mean_b=float(b.mean()), statistic=stat,
                                    p_value=p, significant=bool(p < alpha)))
    return out


def comparison_text(results: list[MetricComparison]) -> str:
    return rows_text(((r.metric, r.mean_a, r.mean_b, r.statistic, r.p_value,
                       "yes" if r.significant else "no") for r in results),
                     "metric,mean_a,mean_b,statistic,p_value,significant")


# -- candidate-size sweep -------------------------------------------------


def sweep_candidates(config: ExperimentConfig, sizes: list[int | None] | None = None
                     ) -> dict[str, list[RunArtifacts]]:
    """Re-run the experiment across candidate sizes (Fig.-style sweep).

    Each size gets its own out_dir suffix; returns artifacts keyed by the
    size token ('all' for the unrestricted run). A sweep.csv summary with
    one row per (size, seed) final evaluation lands in out_dir.
    """
    config.validate()
    if not config.candidate_selection:
        raise ValueError("candidate sweep needs candidate_selection enabled")
    sizes = parse_sizes(config.candidate_sizes if sizes is None else
                        ",".join("all" if s is None else str(s) for s in sizes))
    results: dict[str, list[RunArtifacts]] = {}
    rows = []
    os.makedirs(config.out_dir, exist_ok=True)
    for size in sizes:
        token = "all" if size is None else str(size)
        sub = replace(config, candidate_size=token,
                      out_dir=os.path.join(config.out_dir, f"size_{token}"))
        results[token] = run_experiment(sub)
        for a in results[token]:
            rows.append((token, a.seed, a.report.average_reward, a.report.precision,
                         a.report.recall))
    atomic_write(os.path.join(config.out_dir, "sweep.csv"),
                 rows_text(rows, "size,seed,reward,precision,recall"))
    return results
