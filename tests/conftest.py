"""Shared test helpers: independent reference evaluators, and the model zoo of `adawish verify`."""

from __future__ import annotations

import numpy as np
import pytest

from adawish.model import WeightedModel
from adawish.verify import model_zoo, random_factor_model


def ref_log_weight(model: WeightedModel, bits: list[int]) -> float:
    """Scalar reference evaluator: explicit per-factor table walk, no bit tricks."""
    total = 0.0
    for f in model.factors:
        idx = 0
        for v in f.scope:
            idx = idx * 2 + bits[v]
        total += float(f.log_table[idx])
    return total


def mp_log_partition(model: WeightedModel, dps: int = 60) -> float:
    """High-precision plain (non-log) summation of all weights."""
    import mpmath

    with mpmath.workdps(dps):
        total = mpmath.mpf(0)
        for x in range(1 << model.n):
            bits = [(x >> v) & 1 for v in range(model.n)]
            total += mpmath.e ** mpmath.mpf(ref_log_weight(model, bits))
        return float(mpmath.log(total))


@pytest.fixture(scope="session")
def small_models():
    return model_zoo(12, 12, seed=20240601)
