"""tools/bench_pairs.py: the verdicts it draws from a set of paired runs."""

import importlib.util
import os
import sys

import pytest

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "bench_pairs.py")


@pytest.fixture
def bench_pairs(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no __pycache__ in tools/
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _pairs(base, change):
    return [
        {side: {"metrics": {"t": {"value": v}}} for side, v in (("base", b), ("change", c))}
        for b, c in zip(base, change)
    ]


@pytest.mark.parametrize(
    "base, change, verdicts",
    [
        # 10% faster in every pair, base quartiles 1% apart: a gain
        ([1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00], [0.9] * 10, (True, False, False)),
        # 30% slower against a 25% bound: worse
        ([1.0] * 10, [1.3] * 10, (False, True, False)),
        # 20% slower is within the bound
        ([1.0] * 10, [1.2] * 10, (False, False, False)),
        # base quartiles 1.0 and 1.5 lie more than 25% of the median apart
        ([1.0, 1.5] * 5, [1.2] * 10, (False, False, True)),
    ],
)
def test_gain_worse_and_unresolved(bench_pairs, base, change, verdicts):
    gated = [{"name": "t", "unit": "s", "better": "lower", "bound": 0.25}]
    got = bench_pairs.summarise(_pairs(base, change), gated)["t"]
    assert (got["gain"], got["worse"], got["unresolved"]) == verdicts


def test_worse_follows_the_better_direction(bench_pairs):
    # a rate where higher is better is worse when it falls past its bound
    gated = [{"name": "t", "unit": "1/s", "better": "higher", "bound": 0.1}]
    fell = bench_pairs.summarise(_pairs([100.0] * 10, [85.0] * 10), gated)["t"]
    rose = bench_pairs.summarise(_pairs([100.0] * 10, [130.0] * 10), gated)["t"]
    assert (fell["worse"], rose["worse"], rose["gain"]) == (True, False, True)
