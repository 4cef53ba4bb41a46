"""Estimation schedules for the discrete integral W = sum_x w(x).

Both schedules reconstruct W from the quantiles b_i (the 2^i-th largest
weights) as W~ = b~_0 + sum_{i=0}^{n-1} 2^i b~_i.  The full sweep queries
every index 0..n; the adaptive schedule recursively bisects [0, n] and stops
early on any interval whose endpoint estimates are within a factor beta,
filling the interior with the right endpoint's lower bound.  With the
memoising ledger the adaptive query set is always a subset of the sweep's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import StructuralError
from .logspace import LN2, log_sum_exp
from .model import QuantileCurve, WeightedModel
from .oracle import (
    MapSolver,
    OracleConfig,
    QuantileOracle,
    QueryLedger,
    make_oracle,
)


def sandwich_bounds(curve: QuantileCurve) -> tuple[float, float]:
    """Lower/upper bounds on log W from the exact quantile curve.

    lower = b_0 + sum_{i=1..n} b_i (2^i - 2^{i-1}); the upper bound replaces
    b_i by b_{i-1}.  The two always bracket W, and upper <= 2 * lower.
    """
    b = curve.log_values
    n = curve.n
    lo_terms = [b[0]] + [b[i] + (i - 1) * LN2 for i in range(1, n + 1)]
    up_terms = [b[0]] + [b[i - 1] + (i - 1) * LN2 for i in range(1, n + 1)]
    return log_sum_exp(lo_terms), log_sum_exp(up_terms)


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
    oracle_kind: str
    guarantee: Guarantee
    beta: float | None = None

    @property
    def log10_w(self) -> float:
        return self.log_w / math.log(10.0)


def _guarantee(oracle: QuantileOracle, beta: float | None) -> Guarantee:
    # Only the randomized neighbor oracle carries the probabilistic contract,
    # only when every solve finished to optimality, and only with the failure
    # probability its T repetitions buy: delta_T = exp(-alpha T / ln n), the
    # rate `OracleConfig.repetitions` inverts to pick T from delta.
    config = getattr(oracle, "config", None)
    n = oracle.n
    if oracle.kind != "neighbor" or config is None or oracle.ledger.guarantee_void or n < 2:
        return Guarantee(proven=False)
    try:
        alpha = config.resolved_alpha()
    except StructuralError:  # no concentration rate known for this c
        return Guarantee(proven=False)
    delta = math.exp(-alpha * config.repetitions(n) / math.log(n))
    if not delta < 1.0:
        return Guarantee(proven=False)
    factor = 2.0 ** (2 * config.c)
    kappa = factor * beta if beta is not None else factor
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
    the interval is split at floor((l + r) / 2).
    """
    if not 0 <= l < r <= oracle.n:
        raise StructuralError(f"bad interval ({l}, {r}) for n={oracle.n}")
    if r == l + 1:
        out[l] = oracle.approx(l, depth)
        out[r] = oracle.approx(r, depth)
        return
    bl = oracle.upper(l, depth)
    br = oracle.lower(r, depth)
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


def wish_from_oracle(oracle: QuantileOracle) -> EstimateResult:
    """Query every index 0..n and assemble the estimate."""
    n = oracle.n
    q = np.empty(n + 1, dtype=float)
    for i in range(n + 1):
        q[i] = oracle.approx(i)
    return EstimateResult(
        log_w=assemble_log_estimate(q),
        quantiles=q,
        ledger=oracle.ledger,
        schedule="wish",
        oracle_kind=oracle.kind,
        guarantee=_guarantee(oracle, None),
    )


def adawish_from_oracle(oracle: QuantileOracle, beta: float) -> EstimateResult:
    """Run the adaptive schedule; beta > 1 trades accuracy for fewer queries."""
    if not beta > 1.0:
        raise StructuralError("beta must be > 1")
    if beta == math.inf:
        raise StructuralError("beta must be finite")
    n = oracle.n
    q = np.full(n + 1, np.nan)
    if n == 0:
        q[0] = oracle.approx(0)
    else:
        search(oracle, beta, 0, n, q)
    return EstimateResult(
        log_w=assemble_log_estimate(q),
        quantiles=q,
        ledger=oracle.ledger,
        schedule="adawish",
        oracle_kind=oracle.kind,
        guarantee=_guarantee(oracle, beta),
        beta=beta,
    )


def wish_estimate(
    model: WeightedModel,
    config: OracleConfig,
    solver: MapSolver | None = None,
) -> EstimateResult:
    return wish_from_oracle(make_oracle(model, config, solver))


def adawish_estimate(
    model: WeightedModel,
    config: OracleConfig,
    beta: float,
    solver: MapSolver | None = None,
) -> EstimateResult:
    return adawish_from_oracle(make_oracle(model, config, solver), beta)
