"""Drive the whole lab through the command-line interface.

Same flow a shell user would run:

    kgrec synth --spec world.spec --out data/
    kgrec train --config full.cfg
    kgrec eval  --checkpoint .../checkpoint.npz
    kgrec compare --a runs/full --b runs/mf-base
    kgrec sweep-candidates --config full.cfg --sizes 5,10,all

Here we call the same entry point in-process and keep everything inside
a temp directory. The comparison trains two variants, so this is the
slowest demo (several seconds).
"""

import pathlib
import tempfile

from kgrec.cli import main

work = pathlib.Path(tempfile.mkdtemp(prefix="kgrec_cli_"))

(work / "world.spec").write_text("""
clusters = 3
items_per_cluster = 6
users = 60
out_ratings_per_user = 3
noise = 0.5
seed = 11
""")
print("$ kgrec synth")
main(["synth", "--spec", str(work / "world.spec"), "--out", str(work / "data")])

BASE = """
ratings = {w}/data/interactions.tsv
triples = {w}/data/kg_triples.tsv
links = {w}/data/kg_links.tsv
out_dir = {w}/runs/{name}
kg_embeddings = {kg}
gcn_propagation = {gcn}
candidate_selection = {cs}
seeds = 0, 1
horizon = 8
hops = 2
candidate_size = 8
embedding_dim = 8
hidden_width = 16
batch_size = 32
buffer_capacity = 1000
budget = 1200
eval_every = 300
transe_epochs = 60
sim_dim = 8
sim_epochs = 25
"""

from kgrec.agent import variant_flags

for name in ("full", "mf-base"):
    kg, gcn, cs = variant_flags(name)
    cfg = work / f"{name}.cfg"
    cfg.write_text(BASE.format(w=work, name=name, kg=kg, gcn=gcn, cs=cs))
    print(f"\n$ kgrec train --config {name}.cfg")
    main(["train", "--config", str(cfg)])

print("\n$ kgrec eval")
main(["eval", "--checkpoint", str(work / "runs/full/seed_0/checkpoint.npz")])

print("\n$ kgrec compare")
main(["compare", "--a", str(work / "runs/full"), "--b", str(work / "runs/mf-base")])

print("\n$ kgrec sweep-candidates")
main(["sweep-candidates", "--config", str(work / "full.cfg"), "--sizes", "4,8,all"])
