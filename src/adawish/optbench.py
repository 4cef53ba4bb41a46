"""Query-complexity benchmarking machinery.

Given a known quantile curve, an idealised algorithm certifies a
kappa-approximation from a subset B of query indices (always containing 0 and
n) whenever the segment upper bound UB(B) is within kappa of the segment
lower bound LB(B).  This module computes such sets (a greedy surrogate and an
exhaustive minimum), the regret budget they imply for the adaptive schedule,
the worst-case two-function construction showing Omega(n / kappa^2) queries
are unavoidable, and synthetic curve generators to drive all of it without a
model.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import StructuralError, TooLarge
from .logspace import log_pow2_span, log_sum_exp
from .model import QuantileCurve
from .oracle import synthetic_oracle  # the curve-level oracle factory, re-exported

EXHAUSTIVE_LIMIT = 20
_FLOAT_SLACK = 1e-12


def _check_index_set(curve: QuantileCurve, indices: Sequence[int]) -> list[int]:
    given = [int(i) for i in indices]
    b = sorted(set(given))
    if given != b:
        raise StructuralError("index set must be sorted and duplicate-free")
    if not b or b[0] != 0 or b[-1] != curve.n:
        raise StructuralError(f"index set must contain 0 and n={curve.n}, got {b}")
    return b


def segment_bounds(curve: QuantileCurve, indices: Sequence[int]) -> tuple[float, float]:
    """Log lower/upper bounds on W from the quantiles at the given indices.

    Each segment (s, t) of consecutive queried indices contributes
    b_s (2^t - 2^s) to the upper bound and b_t (2^t - 2^s) to the lower
    bound, plus the point term b_0.  With all indices present this reduces to
    the full-curve sandwich.
    """
    b = _check_index_set(curve, indices)
    vals = curve.log_values
    lo_terms = [vals[0]]
    up_terms = [vals[0]]
    for s, t in zip(b, b[1:]):
        span = log_pow2_span(s, t)
        up_terms.append(vals[s] + span)
        lo_terms.append(vals[t] + span)
    return log_sum_exp(lo_terms), log_sum_exp(up_terms)


@dataclass(frozen=True)
class OptResult:
    query_indices: tuple[int, ...]
    opt_size: int
    kappa: float
    method: str  # "greedy" | "exhaustive"
    certified_global: bool


def _greedy_opt(curve: QuantileCurve, kappa: float) -> list[int]:
    # farthest reach under the per-segment test b_s <= kappa * b_t, which
    # dominates the global constraint term by term; steps where even adjacent
    # quantiles violate the test are taken singly and handled by _repair
    log_k = math.log(kappa)
    vals = curve.log_values
    b = [0]
    cur = 0
    while cur < curve.n:
        nxt = cur + 1
        for t in range(curve.n, cur, -1):
            if vals[cur] <= log_k + vals[t]:
                nxt = t
                break
        b.append(nxt)
        cur = nxt
    return b


def _log_gap(up_term: float, lo_term: float) -> float:
    if up_term == float("-inf"):
        return float("-inf")
    if lo_term == float("-inf"):
        return up_term
    if up_term <= lo_term:
        return float("-inf")
    return up_term + math.log1p(-math.exp(lo_term - up_term))


def _repair(curve: QuantileCurve, b: list[int], kappa: float) -> list[int]:
    # Forced single steps void the term-wise argument, so the sweep's result
    # can miss the global constraint (observable already at kappa = 2).
    # Refinement is monotone (adding a point never raises UB or lowers LB),
    # so repeatedly split the segment with the largest linear-domain gap.
    log_k = math.log(kappa)
    vals = curve.log_values
    while True:
        lo, up = segment_bounds(curve, b)
        if up <= log_k + lo + _FLOAT_SLACK:
            return b
        best_gap = float("-inf")
        best_at = None
        for j, (s, t) in enumerate(zip(b, b[1:])):
            if t == s + 1:
                continue
            span = log_pow2_span(s, t)
            gap = _log_gap(vals[s] + span, vals[t] + span)
            if gap > best_gap:
                best_gap = gap
                best_at = j
        if best_at is None:
            raise StructuralError(f"no query set certifies kappa={kappa} on this curve")
        s, t = b[best_at], b[best_at + 1]
        b.insert(best_at + 1, (s + t) // 2)


def _exhaustive_opt(curve: QuantileCurve, kappa: float) -> list[int] | None:
    if curve.n == 0:  # {0} certifies a one-point curve
        return [0]
    log_k = math.log(kappa)
    interior = range(1, curve.n)
    for size in range(2, curve.n + 2):
        for combo in itertools.combinations(interior, size - 2):
            b = [0, *combo, curve.n]
            lo, up = segment_bounds(curve, b)
            if up <= log_k + lo + _FLOAT_SLACK:
                return b
    return None


def compute_opt(curve: QuantileCurve, kappa: float, method: str = "greedy") -> OptResult:
    """Smallest certifying query set: greedy surrogate or exhaustive minimum.

    The greedy sweep is minimal among sets satisfying the per-segment
    sufficient condition b_s <= kappa * b_t, stepping one index when even
    adjacent quantiles violate it.  Forced steps can leave the global
    constraint unmet, in which case segments are bisected (largest gap first)
    until it holds.  For kappa >= 2 this always terminates feasibly because
    the full index set brackets within a factor 2; for 1 < kappa < 2 no
    certifying set need exist, and both methods raise then.

    The exhaustive search (n <= 20) certifies the true global minimum and can
    only be smaller than the sweep.
    """
    if not kappa > 1.0:  # NaN fails every comparison
        raise StructuralError("kappa must be > 1")
    if kappa == math.inf:
        raise StructuralError("kappa must be finite")
    if method == "greedy":
        b = _repair(curve, _greedy_opt(curve, kappa), kappa)
        return OptResult(tuple(b), len(b), kappa, "greedy", certified_global=False)
    if method == "exhaustive":
        if curve.n > EXHAUSTIVE_LIMIT:
            raise TooLarge(f"exhaustive search limited to n <= {EXHAUSTIVE_LIMIT}")
        b = _exhaustive_opt(curve, kappa)
        if b is None:
            raise StructuralError(f"no query set certifies kappa={kappa} on this curve")
        return OptResult(tuple(b), len(b), kappa, "exhaustive", certified_global=True)
    raise StructuralError(f"unknown method {method!r}")


def regret_bound(opt_size: int, n: int) -> int:
    """Query budget (OPT - 1) * (2 + log2 n) + 1 for the adaptive schedule."""
    if opt_size < 2 or n < 2:
        raise StructuralError("need opt_size >= 2 and n >= 2")
    return math.ceil((opt_size - 1) * (2.0 + math.log2(n)) + 1.0)


# ---------------------------------------------------------------------------
# Worst-case construction: two weight functions agreeing on every queried
# point whose integrals differ by (almost) kappa^2.


@dataclass(frozen=True)
class AdversarialPair:
    """Two step functions over element ranks that agree at the query ranks.

    Ranks are grouped into `segments` geometric blocks; block i covers ranks
    (q^i, q^{i+1}] with q = kappa^2.  The narrow function takes each block's
    right-endpoint value q^-(i+1), the wide one the left-endpoint value q^-i,
    and both take the value q^-i at query rank q^i.  Block sums are
    accumulated term by term in exact rational arithmetic alongside the
    closed forms 1 + s(1 - 1/q) and 1 + s(q - 1).
    """

    kappa: float
    n: int
    segments: int
    query_ranks: tuple[int, ...]
    w1_segments: tuple[tuple[Fraction, Fraction], ...]  # (count, value) per block
    w2_segments: tuple[tuple[Fraction, Fraction], ...]
    w1_brute_force: float
    w2_brute_force: float
    w1_closed_form: float
    w2_closed_form: float

    def _value_at(self, rank, narrow: bool) -> Fraction:
        q = Fraction(self.kappa) ** 2
        if rank < 1 or rank > q**self.segments:
            raise StructuralError(f"rank {rank} outside the constructed range")
        if rank == 1:
            return Fraction(1)
        for i in range(self.segments):
            left, right = q**i, q ** (i + 1)
            if rank <= right:
                if rank == right:
                    return 1 / right  # query rank: both functions agree
                return 1 / right if narrow else 1 / left
        raise AssertionError("unreachable")

    def w1_at_rank(self, rank) -> Fraction:
        return self._value_at(rank, narrow=True)

    def w2_at_rank(self, rank) -> Fraction:
        return self._value_at(rank, narrow=False)


def gen_adversarial_pair(n: int, kappa: float) -> AdversarialPair:
    """Build the lower-bound instance pair for n ranks and ratio kappa >= 1.

    n is padded up to a multiple of ceil(kappa^2); the number of blocks is
    n_padded / ceil(kappa^2), which equals n / kappa^2 whenever kappa^2 is an
    integer dividing n (the closed forms are stated for that case).
    """
    if kappa < 1.0:
        raise StructuralError("kappa must be >= 1")
    if n < 1:
        raise StructuralError("n must be >= 1")
    q = Fraction(kappa) ** 2
    step = math.ceil(q)
    n_padded = n if n % step == 0 else n + (step - n % step)
    segments = n_padded // step

    w1_blocks = []
    w2_blocks = []
    w1_sum = Fraction(1)  # the single top-ranked element of weight 1
    w2_sum = Fraction(1)
    for i in range(segments):
        count = q ** (i + 1) - q**i
        v1 = 1 / q ** (i + 1)
        v2 = 1 / q**i
        w1_blocks.append((count, v1))
        w2_blocks.append((count, v2))
        w1_sum += count * v1
        w2_sum += count * v2

    s = Fraction(segments)
    w1_closed = 1 + s * (1 - 1 / q)
    w2_closed = 1 + s * (q - 1)

    ranks = []
    for i in range(segments + 1):
        r = q**i
        ranks.append(int(r) if r.denominator == 1 else float(r))
    return AdversarialPair(
        kappa=kappa,
        n=n_padded,
        segments=segments,
        query_ranks=tuple(dict.fromkeys(ranks)),
        w1_segments=tuple(w1_blocks),
        w2_segments=tuple(w2_blocks),
        w1_brute_force=float(w1_sum),
        w2_brute_force=float(w2_sum),
        w1_closed_form=float(w1_closed),
        w2_closed_form=float(w2_closed),
    )


# ---------------------------------------------------------------------------
# Synthetic curves


def gen_kvalued_curve(n: int, values: Sequence[float], breakpoints: Sequence[int]) -> QuantileCurve:
    """Step curve with len(values) plateaus; values are log-weights.

    breakpoints[j] is the first index taking values[j+1]; they must be
    strictly increasing within (0, n].
    """
    vals = [float(v) for v in values]
    bps = [int(b) for b in breakpoints]
    if len(bps) != len(vals) - 1:
        raise StructuralError("need exactly one breakpoint per value change")
    if any(v2 >= v1 for v1, v2 in zip(vals, vals[1:])):
        raise StructuralError("values must be strictly decreasing")
    if any(b2 <= b1 for b1, b2 in zip(bps, bps[1:])):
        raise StructuralError("breakpoints must be strictly increasing")
    if bps and (bps[0] < 1 or bps[-1] > n):
        raise StructuralError(f"breakpoints must lie in [1, {n}]")
    out = np.empty(n + 1)
    level = 0
    for i in range(n + 1):
        while level < len(bps) and i >= bps[level]:
            level += 1
        out[i] = vals[level]
    return QuantileCurve(n, out)


def gen_geometric_curve(n: int, ratio: float, top: float = 0.0) -> QuantileCurve:
    """b_i = exp(top) * ratio^-i, for ratio >= 1."""
    if ratio < 1.0:
        raise StructuralError("ratio must be >= 1")
    idx = np.arange(n + 1, dtype=float)
    return QuantileCurve(n, top - idx * math.log(ratio))
