"""Declared setting ranges: every numeric key of the config classes and
every scalar argument of fit_mf declares its range beside its definition,
and one checker rejects NaN, +-inf, a value that is no number and values
outside the range, naming the key."""

import inspect
import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kgrec.agent import TrainConfig
from kgrec.experiments import ExperimentConfig
from kgrec.simulator import _FIT_MF_RANGES, fit_mf
from kgrec.synth import SynthSpec, generate
from kgrec.transe import TranseConfig

CLASSES = {"TrainConfig": TrainConfig, "ExperimentConfig": ExperimentConfig,
           "SynthSpec": SynthSpec, "TranseConfig": TranseConfig}
NUMERIC = ("int", "float")
# fit_mf's numeric arguments checked elsewhere: the ids must lie below
# n_users and n_items, and the seed goes to np.random.default_rng
FIT_MF_UNDECLARED = {"n_users", "n_items", "seed"}


def _numeric_fields(cls):
    return [f for f in fields(cls) if f.type.partition(" | ")[0] in NUMERIC]


def _fit_mf_numeric():
    return {name: p.annotation for name, p in inspect.signature(fit_mf).parameters.items()
            if str(p.annotation).partition(" | ")[0] in NUMERIC}


# (owner, key, annotation, (low, high, open_ends)) for every declared range
DECLARED = ([(owner, f.name, f.type, f.metadata["range"])
             for owner, cls in CLASSES.items() for f in _numeric_fields(cls)
             if "range" in f.metadata]
            + [("fit_mf", name, kind, _FIT_MF_RANGES[name]["range"])
               for name, kind in _fit_mf_numeric().items() if name in _FIT_MF_RANGES])


def test_every_numeric_setting_declares_a_range():
    missing = [f"{owner}.{f.name}" for owner, cls in CLASSES.items()
               for f in _numeric_fields(cls) if "range" not in f.metadata]
    assert missing == []
    assert set(_fit_mf_numeric()) - set(_FIT_MF_RANGES) == FIT_MF_UNDECLARED
    assert set(_FIT_MF_RANGES) <= set(_fit_mf_numeric())


@pytest.fixture(scope="module")
def check(tmp_path_factory):
    """owner -> a function that validates the owner's defaults with the
    given keys changed. The bases leave the rules that span keys slack, so
    each boundary meets only its own range."""
    root = tmp_path_factory.mktemp("paths")
    paths = {}
    for key in ("ratings", "triples", "links"):
        paths[key] = str(root / f"{key}.tsv")
        open(paths[key], "w").close()
    bases = {"TrainConfig": TrainConfig(epsilon_end=0.0),
             "ExperimentConfig": ExperimentConfig(epsilon_end=0.0, **paths),
             "SynthSpec": SynthSpec(out_ratings_per_user=0),
             "TranseConfig": TranseConfig()}
    checks = {owner: (lambda base: lambda **kw: replace(base, **kw).validate())(base)
              for owner, base in bases.items()}
    data = dict(users=[0, 1, 0], items=[0, 1, 1], ratings=[4.0, 2.0, 3.0], n_users=2,
                n_items=2, dim=2, epochs=1)
    checks["fit_mf"] = lambda **kw: fit_mf(**{**data, **kw})
    return checks


def _prefix(owner):
    return {"TranseConfig": "TranseConfig.", "fit_mf": "fit_mf: "}.get(owner, "")


def _rejects(check, owner, key, value):
    with pytest.raises(ValueError, match=f"^{re.escape(_prefix(owner) + key)} must be "):
        check[owner](**{key: value})


@pytest.mark.parametrize("owner, key, kind, bounds", DECLARED,
                         ids=[f"{owner}.{key}" for owner, key, _, _ in DECLARED])
def test_declared_range_rejects_outside_and_accepts_its_ends(check, owner, key, kind, bounds):
    low, high, open_ends = bounds
    integral = kind.startswith("int")
    outside, ends = [math.nan, math.inf, -math.inf, "1"], []
    for end, sign in ((low, -1), (high, 1)):
        if math.isinf(end):
            continue
        out = end + sign if integral else float(np.nextafter(end, sign * math.inf))
        inside = float(np.nextafter(end, -sign * math.inf))
        outside.append(end if open_ends else out)
        ends.append(inside if open_ends else end)
    for value in outside:
        _rejects(check, owner, key, value)
    for value in ends + ([None] if "None" in kind else []):
        check[owner](**{key: value})


def _outside(bounds, integral):
    low, high, open_ends = bounds
    options = [st.sampled_from([math.nan, math.inf, -math.inf, "1"])]
    if low > -math.inf:
        options.append(st.integers(max_value=int(low) - 1) if integral else
                       st.floats(max_value=low, exclude_max=not open_ends))
    if high < math.inf:
        options.append(st.integers(min_value=int(high) + 1) if integral else
                       st.floats(min_value=high, exclude_min=not open_ends))
    return st.one_of(options)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_any_value_outside_a_declared_range_is_rejected(check, data):
    owner, key, kind, bounds = data.draw(st.sampled_from(DECLARED))
    _rejects(check, owner, key, data.draw(_outside(bounds, kind.startswith("int"))))


INTEGRAL = [(owner, key) for owner, key, kind, _ in DECLARED if kind.startswith("int")]


@pytest.mark.parametrize("owner, key", INTEGRAL, ids=[f"{owner}.{key}" for owner, key in INTEGRAL])
def test_integer_setting_rejects_a_fraction_naming_the_key(check, owner, key):
    with pytest.raises(ValueError, match=f"^{re.escape(_prefix(owner) + key)} must be an "
                                         f"integer, got 2.5$"):
        check[owner](**{key: 2.5})


def test_integer_settings_take_numpy_integers_and_none_only_when_optional(check):
    check["TrainConfig"](hops=np.int64(2), candidate_size=None)
    check["fit_mf"](dim=np.int32(2))
    with pytest.raises(ValueError, match="^hops must be an integer, got None$"):
        check["TrainConfig"](hops=None)
    with pytest.raises(ValueError, match="^users must be an integer, got 2.5$"):
        generate(SynthSpec(users=2.5))
