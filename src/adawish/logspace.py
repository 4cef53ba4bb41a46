"""Log-domain arithmetic helpers.

Weights on these models span exp(+-hundreds), so sums like
b_0 + sum_i 2^i b_i are always accumulated in the log domain with -inf
standing for zero weight.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

LN2 = math.log(2.0)
LN10 = math.log(10.0)
NEG_INF = float("-inf")


def log_sum_exp(terms: Iterable[float]) -> float:
    """log(sum(exp(t))) over the terms; -inf for an empty or all-zero sum.

    The steps of scipy.special.logsumexp (1.17), on the same numpy calls, so
    the result matches it bit for bit: the m terms equal to the maximum are
    split out, s is the sum of exp(t - max) over the others (kept in place
    as zeros, so the pairwise summation groups terms as scipy's does), and
    the result is log1p(s / m) + log m + max.  A +inf or NaN maximum is
    returned as it is.
    """
    arr = np.asarray(list(terms) if not isinstance(terms, np.ndarray) else terms, dtype=float).reshape(-1)
    if arr.size == 0:
        return NEG_INF
    top = arr.max(keepdims=True)
    if not np.isfinite(top[0]):
        return float(top[0])
    is_top = arr == top
    shifted = np.exp(arr - top)
    shifted[is_top] = 0.0
    m = np.array([float(np.count_nonzero(is_top))])
    s = shifted.sum(keepdims=True)
    if s[0] != 0.0:
        s = s / m
    return float((np.log1p(s) + np.log(m) + top)[0])


def log_pow2_span(lo: int, hi: int) -> float:
    """log(2^hi - 2^lo) for hi > lo >= 0, stable for large exponents."""
    if hi <= lo:
        raise ValueError(f"need hi > lo, got ({lo}, {hi})")
    return hi * LN2 + math.log1p(-(2.0 ** (lo - hi)))
