"""Output checks for the benchmark's operations.

Each check returns a list of problems; an empty list means the output
passed. The benchmark counts an operation as failed when it raises or
when its check reports a problem, and keeps going either way.
"""

from __future__ import annotations

import math


def check_curve(curve, budget: int, horizon: int) -> list[str]:
    """A learning curve from `train()`: starts at 0, ends at the budget
    rounded up to whole episodes, and holds only finite values with
    precision and recall in [0, 1]."""
    if not curve:
        return ["empty learning curve"]
    problems = []
    if curve[0].interactions != 0:
        problems.append(f"curve starts at {curve[0].interactions}, not 0")
    end = -(-budget // horizon) * horizon
    if curve[-1].interactions != end:
        problems.append(f"curve ends at {curve[-1].interactions}, not {end}")
    steps = [pt.interactions for pt in curve]
    if any(b <= a for a, b in zip(steps, steps[1:])):
        problems.append("curve interactions are not increasing")
    for pt in curve:
        values = (pt.reward, pt.precision, pt.recall)
        if not all(math.isfinite(v) for v in values):
            problems.append(f"non-finite curve value at {pt.interactions}: {values}")
        elif not (0.0 <= pt.precision <= 1.0 and 0.0 <= pt.recall <= 1.0):
            problems.append(f"precision or recall outside [0, 1] at {pt.interactions}")
    return problems


def check_episodes(logs, test_users, horizon: int, items) -> list[str]:
    """Logs from `evaluate_policy`: one episode per test user, each of
    `horizon` steps with finite rewards, no item recommended twice in an
    episode, and every item in the action universe."""
    problems = []
    if len(logs) != len(test_users):
        problems.append(f"{len(logs)} episodes for {len(test_users)} test users")
    universe = {int(i) for i in items}
    for n, records in enumerate(logs):
        where = f"episode {n}"
        if len(records) != horizon:
            problems.append(f"{where} has {len(records)} steps, not {horizon}")
        picked = [rec.item for rec in records]
        if len(set(picked)) != len(picked):
            problems.append(f"{where} repeats an item")
        if not universe.issuperset(picked):
            problems.append(f"{where} recommends an item outside the action universe")
        if not all(math.isfinite(rec.reward) for rec in records):
            problems.append(f"{where} has a non-finite reward")
    return problems


def check_matches_curve(got, last_point) -> list[str]:
    """A greedy pass with the trained parameters must reproduce the learning
    curve's last point exactly, as `got` = (reward, precision, recall):
    `step` is deterministic and greedy evaluation draws no random numbers."""
    want = (last_point.reward, last_point.precision, last_point.recall)
    if tuple(got) == want:
        return []
    return [f"evaluation (reward, precision, recall) {tuple(got)!r} differs from the "
            f"curve's last point {want!r}"]


def check_beats_random(reward: float, random_reward: float) -> list[str]:
    """The trained policy must earn more than the uniform-random one."""
    if reward > random_reward:
        return []
    return [f"greedy reward {reward!r} does not beat random {random_reward!r}"]
