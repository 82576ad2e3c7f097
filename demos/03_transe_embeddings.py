"""Margin-ranking embeddings on a synthetic clustered graph.

After pretraining, true triples should sit at smaller translation
distance e_h + e_r - e_t than corrupted ones. We measure that gap and
the fraction of triples ranked above a random corruption.
"""

import numpy as np

from kgrec.synth import SynthSpec, generate
from kgrec.graph import build_graph
from kgrec.transe import TranseConfig, transe_pretrain

data = generate(SynthSpec(clusters=4, items_per_cluster=6, users=40, seed=3))
g = build_graph(data.triples, data.links)
print(f"graph: {g.n_entities} entities, {g.n_relations} relations, {g.n_triples} triples")

cfg = TranseConfig(dim=16, epochs=400, learning_rate=0.1)
entities, relations, final_loss = transe_pretrain(g, cfg, seed=0)
print(f"final epoch loss: {final_loss:.4f}")

# corrupt tails at random, skipping corruptions that are true triples
true = set(map(tuple, g.triples.tolist()))
rng = np.random.default_rng(1)
pos_d, neg_d, wins, total = [], [], 0, 0
for h, r, t in g.triples:
    corrupt = int(rng.integers(0, g.n_entities))
    if (h, r, corrupt) in true:
        continue
    dp = np.linalg.norm(entities[h] + relations[r] - entities[t])
    dn = np.linalg.norm(entities[h] + relations[r] - entities[corrupt])
    pos_d.append(dp)
    neg_d.append(dn)
    wins += dp < dn
    total += 1

print(f"mean distance, true triples:      {np.mean(pos_d):.3f}")
print(f"mean distance, corrupted triples: {np.mean(neg_d):.3f}")
print(f"true triple closer in {wins}/{total} cases")
