"""Log-domain arithmetic helpers.

Weights on these models span exp(+-hundreds), so sums like
b_0 + sum_i 2^i b_i are always accumulated in the log domain with -inf
standing for zero weight.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np
from scipy.special import logsumexp as _scipy_logsumexp

LN2 = math.log(2.0)
LN10 = math.log(10.0)
NEG_INF = float("-inf")


def log_sum_exp(terms: Iterable[float]) -> float:
    """log(sum(exp(t))) over the terms; -inf for an empty or all-zero sum."""
    arr = np.asarray(list(terms) if not isinstance(terms, np.ndarray) else terms, dtype=float)
    if arr.size == 0 or np.max(arr) == NEG_INF:
        return NEG_INF
    return float(_scipy_logsumexp(arr))


def log_pow2_span(lo: int, hi: int) -> float:
    """log(2^hi - 2^lo) for hi > lo >= 0, stable for large exponents."""
    if hi <= lo:
        raise ValueError(f"need hi > lo, got ({lo}, {hi})")
    return hi * LN2 + math.log1p(-(2.0 ** (lo - hi)))

