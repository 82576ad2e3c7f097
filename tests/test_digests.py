"""The seed-0 curve bytes of the three benchmark workloads, pinned.

Each case rebuilds one workload of `bench/run.py` (its `BASE_CONFIG`,
`ACCEPT_WORLD`, `WIDE_WORLD` and `WIDE_CONFIG`, copied here) at bench seed
0, trains it once and hashes the curve CSV. A bit-exact change leaves all
three digests as they are; a change to the numerics re-derives them under
the numerics policy of ROADMAP.md, together with the acceptance pins.
"""

import hashlib
import os

import pytest

from kgrec.agent import train
from kgrec.experiments import build_environment, curve_csv_text, ingest, parse_config_text
from kgrec.synth import SynthSpec, generate, write_dataset

BASE_CONFIG = {
    "seeds": "0, 1, 2", "seed": "7", "eta": "0.1", "horizon": "16", "hops": "3",
    "candidate_size": "20", "embedding_dim": "16", "hidden_width": "32",
    "batch_size": "64", "buffer_capacity": "4000", "budget": "8000",
    "eval_every": "500", "learning_rate": "0.003", "epsilon_decay_fraction": "0.2",
    "transe_epochs": "200", "transe_lr": "0.01", "sim_dim": "16", "sim_epochs": "40",
}
ACCEPT_WORLD = dict(clusters=5, items_per_cluster=10, users=250, home_ratings_per_user=2,
                    out_ratings_per_user=2, noise=0.5, also_viewed_rate=0.6)
WIDE_WORLD = dict(clusters=20, items_per_cluster=100, users=500, home_ratings_per_user=20,
                  out_ratings_per_user=10, also_viewed_rate=0.3)
WIDE_CONFIG = {"sim_epochs": "10", "budget": "1600", "eval_every": "800"}

SEED = 0
WORKLOADS = {  # world, world seed at seed 0, config over BASE_CONFIG, curve digest
    "accept-full": (ACCEPT_WORLD, 1, {},
                    "73921c7a4168886262d92ce10d37704456bbe436466929acf2508af43988bb15"),
    "wide-full": (WIDE_WORLD, 3, WIDE_CONFIG,
                  "1d7c6f9eb716d5893d6dab95c30c0e1329de261f292ef6a1c22ef948b38120db"),
    "wide-nocs": (WIDE_WORLD, 3, {**WIDE_CONFIG, "candidate_selection": "false"},
                  "10e7f3c193c81b224984003111eb2cf9e717f68f7dda4d1aea9b71ca266064bd"),
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_curve_bytes_are_pinned(tmp_path, name):
    world, world_seed, overrides, digest = WORKLOADS[name]
    paths = write_dataset(str(tmp_path / "world"), generate(SynthSpec(**world, seed=world_seed)))
    values = {**BASE_CONFIG, **overrides, **paths, "out_dir": os.path.join(tmp_path, "out")}
    config = parse_config_text("".join(f"{key} = {value}\n" for key, value in values.items()))
    ds = ingest(config)
    env = build_environment(ds, config)
    curve = train(env, ds.graph, config.train_config(), SEED)[2]
    assert hashlib.sha256(curve_csv_text(curve, SEED).encode()).hexdigest() == digest
