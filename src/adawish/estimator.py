"""Estimation schedules for the discrete integral W = sum_x w(x).

Both schedules reconstruct W from the quantiles b_i (the 2^i-th largest
weights) as W~ = b~_0 + sum_{i=0}^{n-1} 2^i b~_i.  The full sweep queries
every index 0..n; the adaptive schedule recursively bisects [0, n] and stops
early on any interval whose endpoint estimates are within a factor beta,
filling the interior with the right endpoint's lower bound.  With the
memoising ledger the adaptive query set is always a subset of the sweep's.
The guarantee is the failure probability the oracle states, with kappa =
2^(2c) for neighbor slack c, times beta for the adaptive schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import StructuralError
from .logspace import LN2, log_sum_exp
from .model import QuantileCurve, WeightedModel
from .oracle import OracleConfig, QuantileOracle, QueryLedger, make_oracle


def sandwich_bounds(curve: QuantileCurve) -> tuple[float, float]:
    """Lower/upper bounds on log W from the exact quantile curve.

    lower = b_0 + sum_{i=1..n} b_i (2^i - 2^{i-1}); the upper bound replaces
    b_i by b_{i-1}, which is the full sweep's estimate on the exact curve.
    The two always bracket W, and upper <= 2 * lower.
    """
    b = curve.log_values
    lo_terms = [b[0]] + [b[i] + (i - 1) * LN2 for i in range(1, curve.n + 1)]
    return log_sum_exp(lo_terms), assemble_log_estimate(b)


def assemble_log_estimate(quantiles: np.ndarray) -> float:
    """b~_0 + sum_{i=0}^{n-1} 2^i b~_i, in the log domain."""
    q = np.asarray(quantiles, dtype=float)
    n = q.size - 1
    terms = [q[0]] + [q[i] + i * LN2 for i in range(n)]
    return log_sum_exp(terms)


@dataclass(frozen=True)
class Guarantee:
    proven: bool
    kappa: float | None = None
    delta: float | None = None


@dataclass
class EstimateResult:
    log_w: float
    quantiles: np.ndarray  # log b~_0 .. b~_n as assembled
    ledger: QueryLedger
    schedule: str  # "wish" | "adawish"
    guarantee: Guarantee
    beta: float | None = None

    @property
    def log10_w(self) -> float:
        return self.log_w / math.log(10.0)


def _guarantee(oracle: QuantileOracle, beta: float | None) -> Guarantee:
    delta = oracle.failure_probability()
    if delta is None:
        return Guarantee(proven=False)
    kappa = 2.0 ** (2 * oracle.c) * (beta if beta is not None else 1.0)
    if kappa == math.inf:  # a kappa that overflows a float proves nothing
        return Guarantee(proven=False)
    return Guarantee(proven=True, kappa=kappa, delta=delta)


def search(
    oracle: QuantileOracle,
    beta: float,
    l: int,
    r: int,
    out: np.ndarray,
    depth: int = 0,
) -> None:
    """Adaptive bisection over quantile indices, filling out[l..r].

    Adjacent endpoints are point queries.  Otherwise the interval is probed
    with an upper bound at l and a lower bound at r; if they are within a
    factor beta the whole interior inherits the right endpoint's value, else
    the interval is split at floor((l + r) / 2); depth counts the splits above.
    """
    if not 0 <= l < r <= oracle.n:
        raise StructuralError(f"bad interval ({l}, {r}) for n={oracle.n}")
    if r == l + 1:
        out[l] = oracle.query(l)
        out[r] = oracle.query(r)
        return
    bl = oracle.upper(l)
    br = oracle.lower(r)
    out[l] = bl
    out[r] = br
    # log-domain flatness test; -inf endpoints fall out naturally: a zero
    # tail (both -inf) stops, a finite left against a zero right recurses
    if bl <= math.log(beta) + br:
        out[l : r] = br
        return
    m = (l + r) // 2
    search(oracle, beta, l, m, out, depth + 1)
    search(oracle, beta, m, r, out, depth + 1)


def _result(oracle: QuantileOracle, schedule: str, q: np.ndarray, beta: float | None) -> EstimateResult:
    """The estimate assembled from the quantiles q, with the oracle's ledger and guarantee."""
    return EstimateResult(assemble_log_estimate(q), q, oracle.ledger, schedule, _guarantee(oracle, beta), beta)


def wish_from_oracle(oracle: QuantileOracle) -> EstimateResult:
    """Query every index 0..n and assemble the estimate."""
    n = oracle.n
    q = np.empty(n + 1, dtype=float)
    for i in range(n + 1):
        q[i] = oracle.query(i)
    return _result(oracle, "wish", q, None)


def adawish_from_oracle(oracle: QuantileOracle, beta: float) -> EstimateResult:
    """Run the adaptive schedule; beta > 1 trades accuracy for fewer queries."""
    if not beta > 1.0:
        raise StructuralError("beta must be > 1")
    if beta == math.inf:
        raise StructuralError("beta must be finite")
    n = oracle.n
    q = np.full(n + 1, np.nan)
    if n == 0:
        q[0] = oracle.query(0)
    else:
        search(oracle, beta, 0, n, q)
    return _result(oracle, "adawish", q, beta)


def wish_estimate(model: WeightedModel, config: OracleConfig) -> EstimateResult:
    return wish_from_oracle(make_oracle(model, config))


def adawish_estimate(model: WeightedModel, config: OracleConfig, beta: float) -> EstimateResult:
    return adawish_from_oracle(make_oracle(model, config), beta)
