#!/usr/bin/env python3
"""kgrec benchmark: time setup, training and evaluation on one workload.

Run from the root of a checkout:

    python3 bench/run.py --workload accept-full --seed 0 --seconds 25 --trace 0

One process, one closed-loop client: each operation (a setup, a train()
call or an evaluation pass) starts after the previous one returns. Every
output is checked; a raise or a failed check counts the operation as
failed and the run goes on. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 a separate
traced run reports per-layer times and counts instead. bench/README.md
describes the workloads and every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".bench_build"

SETUP_MIN_RUNS = 2  # per set-up phase; a run has two
SETUP_MIN_S = 1.5
EVAL_MIN_PASSES = 3
EVAL_MIN_S = 5.0
COVERAGE_FLOOR = 0.9
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# The acceptance CONFIG of tests/test_acceptance.py; dataset paths are
# filled in per run.
BASE_CONFIG = {
    "seeds": "0, 1, 2", "seed": "7", "eta": "0.1", "horizon": "16", "hops": "3",
    "candidate_size": "20", "embedding_dim": "16", "hidden_width": "32",
    "batch_size": "64", "buffer_capacity": "4000", "budget": "8000",
    "eval_every": "500", "learning_rate": "0.003", "epsilon_decay_fraction": "0.2",
    "transe_epochs": "200", "transe_lr": "0.01", "sim_dim": "16", "sim_epochs": "40",
}

# The acceptance WORLD of tests/test_acceptance.py (SynthSpec seed 1 at --seed 0).
ACCEPT_WORLD = dict(clusters=5, items_per_cluster=10, users=250, home_ratings_per_user=2,
                    out_ratings_per_user=2, noise=0.5, also_viewed_rate=0.6)
# The 40x catalog (2,000 items, about 8.5k triples) with 500 users, so
# that setup can be repeated and every workload fits the run time.
WIDE_WORLD = dict(clusters=20, items_per_cluster=100, users=500, home_ratings_per_user=20,
                  out_ratings_per_user=10, also_viewed_rate=0.3)
WIDE_CONFIG = {"sim_epochs": "10", "budget": "1600", "eval_every": "800"}


@dataclass(frozen=True)
class Workload:
    world: dict
    world_seed: int
    config: dict
    # whether the budget trains the greedy policy past the uniform-random one
    beats_random: bool


# Why each workload was chosen is in BENCHMARK.json and bench/README.md.
WORKLOADS = {
    "accept-full": Workload(ACCEPT_WORLD, 1, {}, True),
    "wide-full": Workload(WIDE_WORLD, 3, WIDE_CONFIG, False),
    "wide-nocs": Workload(WIDE_WORLD, 3, {**WIDE_CONFIG, "candidate_selection": "false"}, False),
}

END_TO_END = {"setup_s": "s", "train_s": "s", "peak_rss_mb": "MiB"}
# printed beside the metrics; bench/README.md says why they have no bound
EXTRA_UNITS = {"eval_steps_per_s": "steps/s", "train_cpu_s": "s", "error_rate": "ratio",
               "untraced_train_s": "s", "traced_train_s": "s"}

PER_LAYER = {
    "experiments.ingest.s": "s",
    "simulator.fit_mf.s": "s",
    "simulator.step.calls": "count",
    "simulator.step.s": "s",
    "transe.transe_pretrain.s": "s",
    "graph.candidate_items.calls": "count",
    "graph.candidate_items.s": "s",
    "graph.candidate_items.mean_size": "items",
    "encoder.propagate_all.calls": "count",
    "encoder.propagate_all.s": "s",
    "encoder.encode_rows.s": "s",
    "autodiff.backward.s": "s",
    "optim.adam_step.s": "s",
    "agent.gru_step_np.calls": "count",
    "agent.gru_step_np.s": "s",
    "agent.compute_targets.s": "s",
    "agent.compute_targets.self_s": "s",
    "agent.td_loss.s": "s",
    "agent.run_training_episode.s": "s",
    "agent.score_candidates.calls": "count",
    "agent.score_candidates.rows": "rows",
    "agent.score_candidates.s": "s",
    "agent.build_candidates.self_s": "s",
    "agent.build_candidates.fallback_share": "ratio",
    "agent.evaluate_policy.calls": "count",
    "agent.evaluate_policy.s": "s",
    "agent.item_matrix.hit_ratio": "ratio",
    "agent.train.s": "s",
    "agent.train.self_s": "s",
    "metrics.s": "s",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}


def import_kgrec():
    """Import the package from this checkout's source tree, or exit."""
    src = ROOT / "src"
    if not (src / "kgrec" / "__init__.py").is_file():
        sys.exit(f"bench: no kgrec package under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import kgrec
    if Path(kgrec.__file__).resolve().parent != src / "kgrec":
        sys.exit(f"bench: imported kgrec from {kgrec.__file__}, not from {src}")


def machine_record() -> dict:
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "thread_env": {var: os.environ.get(var) for var in THREAD_VARS}}


class Ledger:
    """Counts operations and failures; keeps the first problems for the record."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def attempt(self, what: str, operation, check=None):
        """Time one operation, then check its output.

        Returns (output, wall seconds, process CPU seconds); the output is
        None when the operation raised or failed its check.
        """
        self.attempted += 1
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            out = operation()
        except Exception:
            wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
            self._fail(what, [traceback.format_exc()])
            return None, wall, cpu
        wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
        try:
            problems = check(out) if check is not None else []
        except Exception:
            problems = [f"output check raised: {traceback.format_exc()}"]
        if problems:
            self._fail(what, problems)
            return None, wall, cpu
        return out, wall, cpu

    def _fail(self, what: str, problems: list[str]) -> None:
        self.failed += 1
        for problem in problems:
            print(f"bench: {what} failed: {problem}", file=sys.stderr)
        self.problems.extend(f"{what}: {p}" for p in problems[:3])


def config_text(workload: Workload, paths: dict) -> str:
    values = {**BASE_CONFIG, **workload.config, **paths}
    return "".join(f"{key} = {value}\n" for key, value in values.items())


def set_up(text: str):
    """Config text to a ready Environment."""
    from kgrec import experiments
    config = experiments.parse_config_text(text)
    ds = experiments.ingest(config)
    env = experiments.build_environment(ds, config)
    return config, ds, env


def run_untraced(workload: Workload, text: str, seed: int, seconds: float,
                 ledger: Ledger) -> tuple[dict, dict]:
    from kgrec import agent
    from kgrec.metrics import average_reward, precision_at_horizon, recall_at_horizon

    start = time.perf_counter()
    setup_times = []

    def set_up_phase():
        # One phase opens the run and one closes it, so the median set-up
        # time spans the run instead of one stretch of the machine's load.
        # Only the first ready Environment is kept, so that no two are alive
        # while the next one is built.
        ready, phase_s, runs = None, 0.0, 0
        while runs < SETUP_MIN_RUNS or (not ledger.failed and phase_s < SETUP_MIN_S):
            out, wall, _ = ledger.attempt("setup", lambda: set_up(text))
            setup_times.append(wall)
            phase_s += wall
            runs += 1
            if ready is None:
                ready = out
            del out
        return ready

    ready = set_up_phase()
    config, ds, env = ready if ready else (None, None, None)
    cfg = config.train_config() if config else None

    out, train_s, train_cpu_s = ledger.attempt(
        "train", lambda: agent.train(env, ds.graph, cfg, seed),
        lambda result: checks.check_curve(result[2], cfg.interaction_budget, cfg.horizon))
    params, curve = (out[0], out[2]) if out else (None, None)
    del out

    gamma = cfg.resolved_eval_gamma() if cfg else None
    random_reward = None

    def check_eval(logs):
        nonlocal random_reward
        if random_reward is None:
            # the bar a trained policy must clear, set outside the timed region
            random_logs = agent.evaluate_policy(None, env, None, cfg, mode="random",
                                                rng=np.random.default_rng([seed, 0xBA5E]))
            random_reward = average_reward(random_logs, gamma)
        problems = checks.check_episodes(logs, env.test_users, cfg.horizon, env.items)
        if not problems:
            got = (average_reward(logs, gamma), precision_at_horizon(logs),
                   recall_at_horizon(logs, env.test_preference_counts()))
            problems = checks.check_matches_curve(got, curve[-1])
            if workload.beats_random and not problems:
                problems = checks.check_beats_random(got[0], random_reward)
        return problems

    # evaluation passes repeat until the run has measured `seconds`
    logs, steps, eval_s, passes = None, 0, 0.0, 0
    while (passes < EVAL_MIN_PASSES or eval_s < EVAL_MIN_S
           or time.perf_counter() - start < seconds):
        out, wall, _ = ledger.attempt(
            "eval", lambda: agent.evaluate_policy(params, env, ds.graph, cfg), check_eval)
        if out is None:
            break
        logs = out
        passes += 1
        steps += len(logs) * cfg.horizon
        eval_s += wall
    # read before the closing set-ups, which run beside this Environment
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    final_reward = average_reward(logs, gamma) if logs else float("nan")
    del params, logs
    set_up_phase()

    metrics = {"setup_s": statistics.median(setup_times), "train_s": train_s,
               "peak_rss_mb": peak_rss_mb}
    extra = {"eval_steps_per_s": steps / eval_s if eval_s else 0.0, "train_cpu_s": train_cpu_s,
             "final_reward": final_reward,
             "random_reward": random_reward, "eval_passes": passes,
             "setup_runs": setup_times, "error_rate": ledger.failed / ledger.attempted}
    return metrics, extra


def curve_digest(curve, seed: int) -> str:
    from kgrec.experiments import curve_csv_text
    return hashlib.sha256(curve_csv_text(curve, seed).encode()).hexdigest()


def rounded(shares: dict) -> dict:
    return {name: round(value, 3) for name, value in shares.items()}


def run_traced(text: str, seed: int, trace_path: Path,
               ledger: Ledger) -> tuple[dict, dict]:
    """Trace one setup and one train(); check the traced curve against an
    untraced train() of the same seed."""
    from kgrec import agent

    tracer = Tracer()
    tracer.install_kgrec()
    try:
        ready, setup_s, _ = ledger.attempt("setup", lambda: set_up(text))
    finally:
        tracer.uninstall()
    setup_spans = len(tracer.start)
    config, ds, env = ready if ready else (None, None, None)
    cfg = config.train_config() if config else None

    def check_curve(result):
        return checks.check_curve(result[2], cfg.interaction_budget, cfg.horizon)

    plain, plain_s, _ = ledger.attempt(
        "train", lambda: agent.train(env, ds.graph, cfg, seed), check_curve)
    plain_digest = curve_digest(plain[2], seed) if plain else None

    def check_traced(result):
        stats = tracer.layer_stats()
        problems = check_curve(result)
        if plain_digest is not None and curve_digest(result[2], seed) != plain_digest:
            problems.append("traced curve differs from the untraced one")
        covered = 1.0 - stats["agent.train.self_s"] / stats["agent.train.s"]
        if covered < COVERAGE_FLOOR:
            problems.append(f"traced layers cover {covered:.3f} of train(), "
                            f"under {COVERAGE_FLOOR}")
        return problems

    train_first = len(tracer.start)
    tracer.install_kgrec()
    try:
        _, traced_s, _ = ledger.attempt(
            "traced train", lambda: agent.train(env, ds.graph, cfg, seed), check_traced)
    finally:
        tracer.uninstall()
    tracer.save(str(trace_path))

    stats = tracer.layer_stats()
    train_s = stats["agent.train.s"]

    def share(part: str, whole: str) -> float:
        return stats.get(part, 0) / stats[whole] if stats[whole] else 0.0

    stats["graph.candidate_items.mean_size"] = share("graph.candidate_items.items",
                                                     "graph.candidate_items.calls")
    stats["agent.score_candidates.rows"] = stats.get("agent.score_candidates.rows", 0)
    # build_candidates calls candidate_items at most once and falls back to
    # the unseen catalog unless that call returned a non-empty set
    linked = (stats.get("graph.candidate_items.calls", 0)
              - stats.get("graph.candidate_items.empty", 0))
    stats["agent.build_candidates.fallbacks"] = stats["agent.build_candidates.calls"] - linked
    stats["agent.build_candidates.fallback_share"] = share(
        "agent.build_candidates.fallbacks", "agent.build_candidates.calls")
    # every workload runs the full variant, so item_matrix_data rebuilds
    # the matrix exactly when it calls propagate_all
    stats["agent.item_matrix.hits"] = (stats["agent.item_matrix_data.calls"]
                                       - tracer.child_calls("agent.item_matrix_data",
                                                            "encoder.propagate_all"))
    stats["agent.item_matrix.hit_ratio"] = share("agent.item_matrix.hits",
                                                 "agent.item_matrix_data.calls")
    stats["metrics.s"] = sum(value for key, value in stats.items()
                             if key.startswith("metrics.") and key.endswith(".s"))
    stats["trace.coverage"] = 1.0 - stats["agent.train.self_s"] / train_s if train_s else 0.0
    stats["trace.overhead"] = traced_s / plain_s
    metrics = {name: stats[name] for name in PER_LAYER}
    extra = {"curve_sha256": plain_digest, "untraced_train_s": plain_s,
             "traced_train_s": traced_s, "spans": len(tracer.start),
             # self time per traced layer, as a share of the traced call;
             # the set-up's rest is parse_config_text and build_environment
             "setup_self_share": rounded(tracer.self_shares(0, setup_spans, setup_s)),
             "train_self_share": rounded(tracer.self_shares(train_first, len(tracer.start),
                                                            train_s)),
             "trace_file": str(trace_path.relative_to(ROOT))}
    return metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="derives the world's SynthSpec seed and the train() seed")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="least time a run measures; evaluation passes repeat to fill it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_kgrec()
    from kgrec.synth import SynthSpec, generate, write_dataset

    workload = WORKLOADS[args.workload]
    ledger = Ledger()
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        spec = SynthSpec(**workload.world, seed=workload.world_seed + args.seed)
        paths = write_dataset(os.path.join(tmp, "world"), generate(spec))
        text = config_text(workload, {**paths, "out_dir": os.path.join(tmp, "out")})
        if args.trace:
            trace_path = WORK_DIR / f"trace-{args.workload}-seed{args.seed}.npz"
            metrics, extra = run_traced(text, args.seed, trace_path, ledger)
            units = PER_LAYER
        else:
            metrics, extra = run_untraced(workload, text, args.seed, args.seconds, ledger)
            units = END_TO_END

    for name, value in {**metrics, **extra}.items():
        print(f"{name:40s} {value} {units.get(name, EXTRA_UNITS.get(name, ''))}".rstrip())
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "machine": machine_record(), "extra": extra,
                      "problems": ledger.problems}))
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
