"""Command-line entry points for running and inspecting experiments."""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import replace

import numpy as np

from . import experiments, synth
from .agent import evaluate_policy, load_checkpoint
from .metrics import build_report


def _cmd_train(args) -> int:
    config = experiments.parse_config(args.config)
    if args.seed is not None:
        config = replace(config, seeds=(args.seed,))
    if args.budget is not None:
        config = replace(config, budget=args.budget)
    artifacts = experiments.run_experiment(config)
    for a in artifacts:
        r = a.report
        print(f"seed {a.seed}: reward={r.average_reward:.4f} precision={r.precision:.4f} "
              f"recall={r.recall:.4f} -> {a.run_dir}")
    print(f"aggregate: {os.path.join(config.out_dir, 'aggregate.csv')}")
    return 0


def _find_config_for(checkpoint: str) -> str:
    here = os.path.dirname(os.path.abspath(checkpoint))
    for candidate in (os.path.join(here, "config.snapshot"),
                      os.path.join(os.path.dirname(here), "config.snapshot")):
        if os.path.exists(candidate):
            return candidate
    raise SystemExit("no config.snapshot found next to the checkpoint; pass --config")


def _cmd_eval(args) -> int:
    config_path = args.config or _find_config_for(args.checkpoint)
    config = experiments.parse_config(config_path)
    config.validate()
    ds = experiments.ingest(config)
    env = experiments.build_environment(ds, config)
    params, _, cfg, meta = load_checkpoint(args.checkpoint, graph=ds.graph)
    logs = evaluate_policy(params, env, ds.graph, cfg, mode="greedy")
    report = build_report(env.test_users, logs, env.test_preference_counts(),
                          cfg.resolved_eval_gamma(), interactions=int(meta["interactions"]),
                          config_hash=meta["config_hash"])
    sys.stdout.write(report.flat_text())
    return 0


def _cmd_compare(args) -> int:
    results = experiments.compare(args.a, args.b, alpha=args.alpha)
    sys.stdout.write(experiments.comparison_text(results))
    return 0


def _cmd_synth(args) -> int:
    spec = synth.parse_spec(args.spec)
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    data = synth.generate(spec)
    paths = synth.write_dataset(args.out, data)
    for role, path in paths.items():
        print(f"{role}: {path}")
    print(f"users={len(np.unique(data.users))} items={len(np.unique(data.items))} "
          f"interactions={len(data.ratings)} triples={len(data.triples)}")
    return 0


def _cmd_sweep(args) -> int:
    config = experiments.parse_config(args.config)
    sizes = experiments.parse_sizes(args.sizes) if args.sizes else None
    results = experiments.sweep_candidates(config, sizes)
    for token, artifacts in results.items():
        rewards = [a.report.average_reward for a in artifacts]
        print(f"size {token}: mean reward {float(np.mean(rewards)):.4f} "
              f"over {len(rewards)} seeds")
    print(f"sweep table: {os.path.join(config.out_dir, 'sweep.csv')}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kgrec",
                                     description="Graph-aware interactive recommender lab")
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run the configured experiment across its seeds")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None, help="run only this seed")
    p.add_argument("--budget", type=int, default=None, help="override the interaction budget")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint's greedy policy on the test users")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--config", default=None,
                   help="config path (default: config.snapshot next to the checkpoint)")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("compare", help="paired per-user significance tests between two runs")
    p.add_argument("--a", required=True, help="first experiment out_dir")
    p.add_argument("--b", required=True, help="second experiment out_dir")
    p.add_argument("--alpha", type=float, default=0.05)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("synth", help="generate the clustered synthetic dataset and graph")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override the spec seed")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("sweep-candidates", help="re-run the experiment over candidate sizes")
    p.add_argument("--config", required=True)
    p.add_argument("--sizes", default=None, help="comma list, e.g. 5,10,20,50,all")
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    """Run one command; a ValueError, KeyError or OSError prints one error line, exit 2."""
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as err:
        # a KeyError's str() is the repr of its message
        message = err.args[0] if isinstance(err, KeyError) and err.args else err
        print(f"kgrec: error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
