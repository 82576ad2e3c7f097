"""Self-tests of the benchmark's span arithmetic and output checks.

Run from the root of a checkout: python3 -m pytest -q bench
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from kgrec import agent, autodiff  # noqa: E402
from kgrec.agent import CurvePoint  # noqa: E402
from kgrec.simulator import StepRecord  # noqa: E402

import checks  # noqa: E402
from run import Ledger  # noqa: E402
from spans import NO_PARENT, Tracer, self_times  # noqa: E402


def test_self_times_of_a_nested_tree():
    #   0 [0, 10] -> 1 [1, 4] -> 2 [2, 3]
    #             -> 3 [5, 9]
    #   4 [11, 12]
    parent = [NO_PARENT, 0, 1, 0, NO_PARENT]
    start = [0.0, 1.0, 2.0, 5.0, 11.0]
    end = [10.0, 4.0, 3.0, 9.0, 12.0]
    np.testing.assert_allclose(self_times(parent, start, end), [3.0, 2.0, 1.0, 4.0, 1.0])


def test_tracer_records_parents_and_layer_stats():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(inner(x)))
    assert outer(1) == 3
    assert list(tracer.parent) == [NO_PARENT, 0, 0]
    assert [tracer.names[i] for i in tracer.name_id] == ["outer", "inner", "inner"]
    stats = tracer.layer_stats()
    assert stats["outer.calls"] == 1 and stats["inner.calls"] == 2
    assert stats["outer.self_s"] == pytest.approx(stats["outer.s"] - stats["inner.s"])
    assert stats["inner.self_s"] == pytest.approx(stats["inner.s"])


def test_tracer_closes_a_span_when_the_call_raises():
    tracer = Tracer()

    def fail():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("fail", fail)()
    assert tracer.end[0] >= tracer.start[0] and not tracer._open


def test_uninstall_restores_every_patched_name():
    before = (agent.step, agent.train, agent.AgentParameters.item_matrix_data,
              autodiff.Tape.backward)
    tracer = Tracer()
    tracer.install_kgrec()
    assert agent.step is not before[0] and agent.step.__wrapped__ is before[0]
    tracer.uninstall()
    assert (agent.step, agent.train, agent.AgentParameters.item_matrix_data,
            autodiff.Tape.backward) == before


def test_child_calls_and_self_shares():
    tracer = Tracer()
    leaf = tracer.wrap("leaf", lambda: None)
    mid = tracer.wrap("mid", lambda: leaf())
    top = tracer.wrap("top", lambda: (mid(), leaf()))
    top()
    leaf()
    assert tracer.child_calls("mid", "leaf") == 1
    assert tracer.child_calls("top", "leaf") == 1
    assert tracer.child_calls("top", "absent") == 0
    # spans: top, mid, leaf, leaf, leaf; shares over the first four only
    shares = tracer.self_shares(0, 4, 1.0)
    own = self_times(tracer.parent, tracer.start, tracer.end)
    assert shares["leaf"] == pytest.approx(own[2] + own[3])
    assert set(shares) <= {"top", "mid", "leaf"}


def test_ledger_counts_raises_and_rejected_outputs_and_goes_on():
    ledger = Ledger()
    assert ledger.attempt("fine", lambda: 1, lambda out: [])[0] == 1
    assert ledger.attempt("raises", lambda: 1 / 0)[0] is None
    assert ledger.attempt("rejected", lambda: 2, lambda out: ["wrong"])[0] is None
    assert ledger.attempt("check raises", lambda: 2, lambda out: out.missing)[0] is None
    assert (ledger.attempted, ledger.failed) == (4, 3)


def _episode(items, rewards=None):
    rewards = rewards or [0.5] * len(items)
    return [StepRecord(item=i, raw=3.0, normalized=0.5, reward=r, hit=True)
            for i, r in zip(items, rewards)]


USERS, HORIZON, ITEMS = [7, 8], 3, range(6)


def test_good_episodes_pass():
    logs = [_episode([0, 1, 2]), _episode([3, 4, 5])]
    assert checks.check_episodes(logs, USERS, HORIZON, ITEMS) == []


@pytest.mark.parametrize("logs, complaint", [
    ([_episode([0, 1, 1]), _episode([3, 4, 5])], "repeats an item"),
    ([_episode([0, 1]), _episode([3, 4, 5])], "has 2 steps"),
    ([_episode([0, 1, 2], [0.5, math.nan, 0.5]), _episode([3, 4, 5])], "non-finite reward"),
    ([_episode([0, 1, 9]), _episode([3, 4, 5])], "outside the action universe"),
    ([_episode([0, 1, 2])], "1 episodes for 2 test users"),
])
def test_corrupted_episodes_are_rejected(logs, complaint):
    problems = checks.check_episodes(logs, USERS, HORIZON, ITEMS)
    assert any(complaint in p for p in problems), problems


def _curve(points, precision=0.5):
    return [CurvePoint(interactions=n, reward=r, precision=precision, recall=0.25)
            for n, r in points]


GOOD_POINTS = [(0, 0.1), (32, 0.2), (48, 0.3)]


def test_good_curve_passes():
    # a budget of 40 at horizon 16 ends after three whole episodes
    assert checks.check_curve(_curve(GOOD_POINTS), 40, 16) == []


@pytest.mark.parametrize("curve, complaint", [
    (_curve([(0, 0.1), (32, math.nan), (48, 0.3)]), "non-finite"),
    (_curve([(16, 0.1), (48, 0.3)]), "starts at 16"),
    (_curve([(0, 0.1), (32, 0.2)]), "ends at 32"),
    (_curve(GOOD_POINTS, precision=1.5), "outside [0, 1]"),
])
def test_corrupted_curves_are_rejected(curve, complaint):
    problems = checks.check_curve(curve, 40, 16)
    assert any(complaint in p for p in problems), problems


def test_evaluation_must_reproduce_the_curve_end():
    last = _curve(GOOD_POINTS)[-1]
    assert checks.check_matches_curve((0.3, 0.5, 0.25), last) == []
    assert checks.check_matches_curve((0.3 + 1e-12, 0.5, 0.25), last) != []
    assert checks.check_matches_curve((0.3, 0.5, math.nan), last) != []


def test_reward_must_beat_random():
    assert checks.check_beats_random(0.3, 0.1) == []
    assert checks.check_beats_random(0.1, 0.1) != []
    assert checks.check_beats_random(math.nan, 0.1) != []
