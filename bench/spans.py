"""In-memory span recorder that wraps kgrec's layer functions from outside.

Each wrapped call records one span: its name, start, end and the span
that was open when it began (its parent). Spans live in flat arrays
while the run is traced and are written out once at the end. Wrapping
replaces a name where its caller looks it up (``kgrec.agent.step``, not
``kgrec.simulator.step``, because ``agent`` imports it by name), so the
package itself is left unedited.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter

import numpy as np

NO_PARENT = -1


def self_times(parent, start, end) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread, so children are disjoint and lie inside
    their parent's interval: subtracting their durations removes exactly
    the part of the interval they cover.
    """
    parent = np.asarray(parent, dtype=np.int64)
    dur = np.asarray(end, dtype=np.float64) - np.asarray(start, dtype=np.float64)
    nested = parent != NO_PARENT
    covered = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
    return dur - covered


class Tracer:
    """Records spans around patched callables; restore with ``uninstall``."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def wrap(self, name: str, fn):
        """`fn` with a span named `name` around every call."""
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        clock = time.perf_counter
        open_spans = self._open

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(open_spans[-1] if open_spans else NO_PARENT)
            self.end.append(0.0)
            open_spans.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                open_spans.pop()

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, wrapper=None) -> None:
        """Replace `owner.attr` by its traced form; `wrapper` adds counting."""
        original = getattr(owner, attr)
        inner = original if wrapper is None else wrapper(original)
        setattr(owner, attr, self.wrap(name, inner))
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- kgrec layers --------------------------------------------------------

    def install_kgrec(self) -> None:
        """Wrap every layer the benchmark reports, at its caller's lookup."""
        from kgrec import agent, autodiff, experiments, metrics

        self.patch(experiments, "ingest", "experiments.ingest")
        self.patch(experiments, "fit_mf", "simulator.fit_mf")
        self.patch(agent, "fit_mf", "simulator.fit_mf")
        self.patch(agent, "step", "simulator.step")
        self.patch(agent, "transe_pretrain", "transe.transe_pretrain")
        self.patch(agent, "candidate_items", "graph.candidate_items", self._count_candidates)
        self.patch(agent, "propagate_all", "encoder.propagate_all")
        self.patch(agent, "encode_rows", "encoder.encode_rows")
        self.patch(autodiff.Tape, "backward", "autodiff.backward")
        self.patch(agent, "adam_step", "optim.adam_step")
        self.patch(agent, "gru_step_np", "agent.gru_step_np")
        self.patch(agent, "compute_targets", "agent.compute_targets")
        self.patch(agent, "td_loss", "agent.td_loss")
        self.patch(agent, "run_training_episode", "agent.run_training_episode")
        self.patch(agent, "score_candidates", "agent.score_candidates", self._count_rows)
        self.patch(agent, "build_candidates", "agent.build_candidates")
        self.patch(agent, "evaluate_policy", "agent.evaluate_policy")
        self.patch(agent.AgentParameters, "item_matrix_data", "agent.item_matrix_data")
        self.patch(agent, "train", "agent.train")
        # train() imports these from kgrec.metrics at call time
        for fn in ("average_reward", "precision_at_horizon", "recall_at_horizon"):
            self.patch(metrics, fn, f"metrics.{fn}")

    def _count_candidates(self, fn):
        def candidate_items(*args, **kwargs):
            cs = fn(*args, **kwargs)
            self.counters["graph.candidate_items.items"] += len(cs)
            self.counters["graph.candidate_items.empty"] += not cs
            return cs
        return candidate_items

    def _count_rows(self, fn):
        def score_candidates(qnet, state_vec, cand_vecs, *args, **kwargs):
            self.counters["agent.score_candidates.rows"] += cand_vecs.shape[0]
            return fn(qnet, state_vec, cand_vecs, *args, **kwargs)
        return score_candidates

    # -- results -----------------------------------------------------------

    def layer_stats(self) -> dict[str, float]:
        """`<span>.calls`, `<span>.s` and `<span>.self_s` per span name,
        plus the counters. No traced function calls itself, so summing
        durations per name does not count any interval twice."""
        ids = np.asarray(self.name_id, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        own = self_times(self.parent, self.start, self.end)
        n = len(self.names)
        calls = np.bincount(ids, minlength=n)
        total = np.bincount(ids, weights=dur, minlength=n)
        total_self = np.bincount(ids, weights=own, minlength=n)
        stats: dict[str, float] = dict(self.counters)
        for nid, name in enumerate(self.names):
            stats[f"{name}.calls"] = int(calls[nid])
            stats[f"{name}.s"] = float(total[nid])
            stats[f"{name}.self_s"] = float(total_self[nid])
        return stats

    def child_calls(self, parent: str, child: str) -> int:
        """How many `child` spans opened directly inside a `parent` span."""
        if parent not in self.names or child not in self.names:
            return 0
        ids = np.asarray(self.name_id, dtype=np.int64)
        up = np.asarray(self.parent, dtype=np.int64)
        of_child = ids == self.names.index(child)
        nested = of_child & (up != NO_PARENT)
        return int(np.count_nonzero(ids[up[nested]] == self.names.index(parent)))

    def self_shares(self, first: int, last: int, total: float) -> dict[str, float]:
        """Self seconds per span name over spans[first:last], as shares of
        `total` seconds, largest first."""
        ids = np.asarray(self.name_id, dtype=np.int64)
        own = self_times(self.parent, self.start, self.end)
        per_name = np.bincount(ids[first:last], weights=own[first:last],
                               minlength=len(self.names))
        order = np.argsort(-per_name, kind="stable")
        return {self.names[i]: float(per_name[i] / total) for i in order if per_name[i] > 0}

    def save(self, path: str) -> None:
        """Write the spans as arrays: names, name_id, parent, start, end."""
        np.savez(path, names=np.asarray(self.names), name_id=np.asarray(self.name_id),
                 parent=np.asarray(self.parent), start=np.asarray(self.start),
                 end=np.asarray(self.end))
