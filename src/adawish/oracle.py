"""Constrained MAP solving and the quantile oracles built on it.

`map_solve` maximises log w(x) subject to parity constraints A x = d (mod 2)
by depth-first branch and bound over the variables in order 0..n-1.  Setting
variable v scores the factors whose highest variable is v with one lookup in
the model's window table for v, which equals the per-point
`completed(v, x)` bit for bit, and bounds the groups after v with a second
lookup at the same key in its cost-to-go table
(`CompiledModel.branch_tables`).  The bound is added when a child is pushed;
of two children the one with the larger bound is searched first, and a
child whose bound does not beat the incumbent is pruned.  The system is
row-reduced with each row pivoting on its highest variable, so every pivot
is forced by the variables before it and only the n - rank free variables
are branched on.
`XorOracle` estimates the 2^i-th largest weight as the median of T
constrained maxima under independently sampled random (A, d) pairs with i
rows.  `make_oracle` binds a model to any configured oracle kind;
`synthetic_oracle` wraps a known quantile curve.

All oracles answer through a QueryLedger that memoises by query index, so a
repeated query is never recomputed and the number of distinct queries can be
audited afterwards.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import gf2
from .errors import StructuralError
from .logspace import NEG_INF
from .model import QuantileCurve, WeightedModel, exact_quantiles
from .seeds import mix64, rng_from, unit_from


# ---------------------------------------------------------------------------
# MAP solving


@dataclass(frozen=True)
class MapSolver:
    """Optional limits on the branch-and-bound search of one MAP solve.

    The search is exact whenever it finishes within the limits; otherwise the
    incumbent is returned and the result is flagged inexact (a lower bound on
    the true maximum).  time_limit is in seconds per solve.  A limit, when
    given, must be positive: node_limit >= 1, time_limit > 0.
    """

    node_limit: int | None = None
    time_limit: float | None = None

    def __post_init__(self):
        if self.node_limit is not None and self.node_limit < 1:
            raise StructuralError("node_limit must be >= 1")
        if self.time_limit is not None and not self.time_limit > 0.0:
            raise StructuralError("time_limit must be > 0")


@dataclass(frozen=True)
class MapResult:
    log_value: float
    assignment: int | None
    exact: bool
    feasible: bool
    nodes: int = 0


def sample_parity_system(n: int, m: int, rng: np.random.Generator) -> gf2.Gf2System:
    """Uniform m x n 0/1 constraint matrix and uniform right-hand side.

    The matrix and the right-hand side come from one bounded-uint8 draw of
    pad + m bytes, pad = m*n rounded up to a multiple of 4: rows from the
    first m*n bytes, rhs from the last m.  numpy fills such a draw four bytes
    to each fresh 32-bit word and drops the unused bytes of the last word, so
    drawing the matrix and then the rhs in two calls consumes the same words
    and yields the same bits; the padding is exactly the bytes the first of
    those calls would drop.  Systems and the generator's state afterwards are
    therefore those of the two-call draw.
    """
    if m == 0:
        return gf2.Gf2System(n, (), ())
    pad = -(-m * n // 4) * 4
    draw = rng.integers(0, 2, size=pad + m, dtype=np.uint8)
    packed = np.packbits(draw[: m * n].reshape(m, n), axis=1, bitorder="little")
    # row r sits at bits r*stride.. of one little-endian int over the matrix
    stride = 8 * packed.shape[1]
    whole = int.from_bytes(packed.tobytes(), "little")
    mask = (1 << stride) - 1
    rows = tuple((whole >> (r * stride)) & mask for r in range(m))
    return gf2.Gf2System(n, rows, tuple(draw[pad:].tolist()))


def _solve_branch_and_bound(
    model: WeightedModel,
    reduced: gf2.ReducedSystem,
    node_limit: int | None,
    time_limit: float | None,
) -> MapResult:
    n = model.n
    compiled = model.compiled
    steps = compiled.branch_tables
    # Each reduced row's pivot is its highest variable, so in depth-first
    # order over variables 0..n-1 the earlier ones force it; only the n - rank
    # free variables branch.
    forced: list[tuple[int, int] | None] = [None] * n
    for row, b, p in zip(reduced.rows, reduced.rhs, reduced.pivots):
        forced[p] = (row ^ (1 << p), b)

    best = NEG_INF
    best_assign: int | None = None
    nodes = 0
    exhausted = False
    # the limits are looked at only when nodes reaches `check`: at node
    # node_limit + 1, and at every 1,024th node under a deadline
    stop = node_limit + 1 if node_limit is not None else 1 << 62
    deadline = time.monotonic() + time_limit if time_limit is not None else None
    check = min(stop, 0x400) if deadline is not None else stop
    # (variable, assignment of the variables below it, score so far, score
    # plus the bound on the groups still to score)
    stack = [(0, 0, compiled.const, compiled.const + compiled.bound_tail[0])]
    push = stack.append
    while stack:
        v, mask, g, f = stack.pop()
        # dive: the child that would be pushed last, and so popped next, is
        # taken up at once; nodes are visited and counted as if it were pushed
        while True:
            nodes += 1
            if nodes == check:
                if nodes == stop or time.monotonic() > deadline:
                    exhausted = True
                    stack.clear()
                    break
                check = min(stop, nodes + 0x400)
            if f <= best:
                break
            if v == n:
                best = g
                best_assign = mask
                break
            # group v and the bound on groups v+1.. are read at one key: bits lo..v of the child
            lo, window, score, bound = steps[v]
            rule = forced[v]
            if rule is None:
                one = mask | (1 << v)
                k0 = (mask >> lo) & window
                k1 = (one >> lo) & window
                g0 = g + score[k0]
                g1 = g + score[k1]
                f0 = g0 + bound[k0]
                f1 = g1 + bound[k1]
                # the child with the larger bound is searched first; on a tie, the 0-child
                if f1 > f0:
                    push((v + 1, mask, g0, f0))
                    mask, g, f = one, g1, f1
                else:
                    push((v + 1, one, g1, f1))
                    g, f = g0, f0
            else:
                mask |= (rule[1] ^ ((mask & rule[0]).bit_count() & 1)) << v
                key = (mask >> lo) & window
                g += score[key]
                f = g + bound[key]
            v += 1

    return MapResult(
        best,
        best_assign,
        exact=not exhausted,
        feasible=True,
        nodes=nodes,
    )


def map_solve(model: WeightedModel, system: gf2.Gf2System, solver: MapSolver | None = None) -> MapResult:
    """max log w(x) subject to the parity system; empty systems mean unconstrained.

    An exact result's value is the maximum over the solution coset: the
    bounds never fall below a leaf they cover, rounding included
    (`CompiledModel.branch_tables`).  Among equal maxima the assignment is
    the first one the search meets.  nodes counts the children visited,
    pruned ones included.
    """
    if system.cols != model.n:
        raise StructuralError(f"system over {system.cols} columns, model has {model.n} variables")
    solver = solver or MapSolver()
    reduced = gf2.row_reduce(system)
    if not reduced.consistent:
        return MapResult(NEG_INF, None, exact=True, feasible=False)
    return _solve_branch_and_bound(model, reduced, solver.node_limit, solver.time_limit)


# ---------------------------------------------------------------------------
# Oracle configuration and ledger


@dataclass(frozen=True)
class OracleConfig:
    """Which oracle backs the quantile queries, and its parameters.

    kind "exact" reads the true quantile curve (n <= 24); "pointwise" is the
    exact value under a deterministic multiplicative jitter within
    [1/gamma, gamma]; "neighbor" runs the randomized XOR query.
    """

    kind: str = "neighbor"
    c: int = 5
    T: int | None = None
    delta: float = 0.01
    alpha: float | None = None
    gamma: float = 1.0
    master_seed: int = 0

    def __post_init__(self):
        if self.kind not in ("exact", "pointwise", "neighbor"):
            raise StructuralError(f"unknown oracle kind {self.kind!r}")
        if not 0.0 < self.delta < 1.0:
            raise StructuralError("delta must be in (0, 1)")
        if self.alpha is not None and not 0.0 < self.alpha < math.inf:
            raise StructuralError("alpha must be finite and > 0")
        if not self.gamma >= 1.0:
            raise StructuralError("gamma must be >= 1")
        if self.gamma == math.inf:
            raise StructuralError("gamma must be finite")
        if self.kind == "neighbor" and self.c < 2:
            raise StructuralError("neighbor oracle needs c >= 2")
        if self.T is not None and self.T < 1:
            raise StructuralError("T must be >= 1")

    def resolved_alpha(self) -> float:
        if self.alpha is not None:
            return self.alpha
        if self.c == 5:
            return 0.078
        raise StructuralError(f"no default alpha for c={self.c}; pass alpha explicitly")

    def repetitions(self, n: int) -> int:
        """T, or its default ceil(ln(1/delta)/alpha * ln n) once n is known."""
        if self.T is not None:
            return self.T
        if n < 2:
            return 1
        return math.ceil(math.log(1.0 / self.delta) / self.resolved_alpha() * math.log(n))


@dataclass
class QueryLedger:
    """Memo table plus counters for auditing oracle traffic.

    distinct_queries only grows when a new index is computed; repeat accesses
    are cache hits.  map_calls counts actual MAP solver invocations.
    guarantee_void flips when any solve came back inexact.
    """

    memo: dict[int, float] = field(default_factory=dict)
    distinct_queries: int = 0
    map_calls: int = 0
    cache_hits: int = 0
    trace: list[tuple[int, int, float]] = field(default_factory=list)
    guarantee_void: bool = False

    def record_solve(self, exact: bool) -> None:
        self.map_calls += 1
        if not exact:
            self.guarantee_void = True

    def lookup(self, index: int) -> float | None:
        if index in self.memo:
            self.cache_hits += 1
            return self.memo[index]
        return None

    def record(self, index: int, value: float, depth: int) -> float:
        self.memo[index] = value
        self.distinct_queries += 1
        self.trace.append((index, depth, value))
        return value

    def queried_indices(self) -> set[int]:
        return set(self.memo)


# ---------------------------------------------------------------------------
# Quantile oracles


class QuantileOracle:
    """Base: memoised point queries plus index-appropriate lower/upper reads."""

    kind = "abstract"

    def __init__(self, n: int, ledger: QueryLedger | None = None):
        self.n = n
        self.ledger = ledger if ledger is not None else QueryLedger()

    def _compute(self, i: int) -> float:
        raise NotImplementedError

    def query(self, i: int, depth: int = 0) -> float:
        if not 0 <= i <= self.n:
            raise StructuralError(f"query index {i} outside 0..{self.n}")
        hit = self.ledger.lookup(i)
        if hit is not None:
            return hit
        return self.ledger.record(i, self._compute(i), depth)

    def approx(self, i: int, depth: int = 0) -> float:
        return self.query(i, depth)

    def lower(self, i: int, depth: int = 0) -> float:
        return self.query(i, depth)

    def upper(self, i: int, depth: int = 0) -> float:
        return self.query(i, depth)


class ExactCurveOracle(QuantileOracle):
    kind = "exact"

    def __init__(self, curve: QuantileCurve, ledger: QueryLedger | None = None):
        super().__init__(curve.n, ledger)
        self.curve = curve

    def _compute(self, i: int) -> float:
        return self.curve[i]


class PointwiseCurveOracle(QuantileOracle):
    """Exact quantile scaled by a deterministic per-index factor in [1/gamma, gamma]."""

    kind = "pointwise"

    def __init__(
        self,
        curve: QuantileCurve,
        gamma: float,
        master_seed: int = 0,
        ledger: QueryLedger | None = None,
    ):
        if not gamma >= 1.0:
            raise StructuralError("gamma must be >= 1")
        if gamma == math.inf:
            raise StructuralError("gamma must be finite")
        super().__init__(curve.n, ledger)
        self.curve = curve
        self.gamma = gamma
        self.master_seed = master_seed
        self._log_gamma = math.log(gamma)

    def _compute(self, i: int) -> float:
        u = 2.0 * unit_from(self.master_seed, 0x9077, i) - 1.0
        return self.curve[i] + u * self._log_gamma

    def lower(self, i: int, depth: int = 0) -> float:
        return self.query(i, depth) - self._log_gamma

    def upper(self, i: int, depth: int = 0) -> float:
        return self.query(i, depth) + self._log_gamma


class NeighborOracle(QuantileOracle):
    """Base of the neighbor kind: lower/upper shift the index by c, clamped to 0..n."""

    kind = "neighbor"
    c: int

    def lower(self, i: int, depth: int = 0) -> float:
        return self.query(min(i + self.c, self.n), depth)

    def upper(self, i: int, depth: int = 0) -> float:
        return self.query(max(i - self.c, 0), depth)


class XorOracle(NeighborOracle):
    """Randomized constrained-MAP median."""

    def __init__(
        self,
        model: WeightedModel,
        config: OracleConfig,
        solver: MapSolver | None = None,
        ledger: QueryLedger | None = None,
    ):
        super().__init__(model.n, ledger)
        self.model = model
        self.config = config
        self.c = config.c
        self.solver = solver or MapSolver()

    def _compute(self, i: int) -> float:
        reps = self.config.repetitions(self.n)
        values = []
        seen: dict[tuple, MapResult] = {}
        for t in range(reps):
            rng = rng_from(self.config.master_seed, i, t)
            system = sample_parity_system(self.n, i, rng)
            key = (system.rows, system.rhs)
            result = seen.get(key)
            if result is None:
                result = map_solve(self.model, system, self.solver)
                seen[key] = result
                self.ledger.record_solve(result.exact)
            values.append(result.log_value)
        values.sort()
        # lower middle for even counts: never overestimates the median
        return values[(len(values) - 1) // 2]


class NeighborStubOracle(NeighborOracle):
    """Deterministic worst-case neighbor oracle over a known curve.

    Answers stay inside the sandwich [b_{min(i+c,n)}, b_{max(i-c,0)}] by
    construction.  Index 0 answers b_0 exactly, mirroring the real XOR query,
    which is deterministic there (zero constraint rows); without that the
    approximation guarantee is unprovable for curves dominated by the top
    weight.
    """

    policies = ("always_upper", "always_lower", "seeded")

    def __init__(
        self,
        curve: QuantileCurve,
        c: int,
        policy: str = "seeded",
        master_seed: int = 0,
        ledger: QueryLedger | None = None,
    ):
        if policy not in self.policies:
            raise StructuralError(f"unknown policy {policy!r}")
        if c < 2:
            raise StructuralError("neighbor stub needs c >= 2")
        super().__init__(curve.n, ledger)
        self.curve = curve
        self.c = c
        self.policy = policy
        self.master_seed = master_seed

    def _picked_index(self, i: int) -> int:
        if i == 0:
            return 0
        lo = max(i - self.c, 0)
        hi = min(i + self.c, self.n)
        if self.policy == "always_upper":
            return lo
        if self.policy == "always_lower":
            return hi
        span = hi - lo + 1
        return lo + mix64(self.master_seed, 0x57AB, i) % span

    def _compute(self, i: int) -> float:
        return self.curve[self._picked_index(i)]


def synthetic_oracle(
    curve: QuantileCurve,
    kind: str,
    gamma: float = 1.0,
    c: int = 2,
    policy: str = "seeded",
    seed: int = 0,
    ledger: QueryLedger | None = None,
) -> QuantileOracle:
    """Wrap a known curve as an oracle so schedules can run without a model."""
    if kind == "exact":
        return ExactCurveOracle(curve, ledger)
    if kind == "pointwise":
        return PointwiseCurveOracle(curve, gamma, seed, ledger)
    if kind == "neighbor-stub":
        return NeighborStubOracle(curve, c, policy, seed, ledger)
    raise StructuralError(f"unknown synthetic oracle kind {kind!r}")


def make_oracle(
    model: WeightedModel,
    config: OracleConfig,
    solver: MapSolver | None = None,
    ledger: QueryLedger | None = None,
) -> QuantileOracle:
    """Bind a model to the configured oracle kind.

    Exact and pointwise kinds enumerate the true quantile curve up front and
    are therefore limited to n <= 24.
    """
    if config.kind == "neighbor":
        return XorOracle(model, config, solver, ledger)
    return synthetic_oracle(
        exact_quantiles(model), config.kind, config.gamma, seed=config.master_seed, ledger=ledger
    )
