"""Constrained MAP solving and the quantile oracles built on it.

`map_solve` maximises log w(x) subject to parity constraints A x = d (mod 2)
by depth-first branch and bound over the variables in order 0..n-1.  Setting
variable v scores the factors whose highest variable is v with one lookup in
the model's window table for v, which equals the per-point
`completed(v, x)` bit for bit, and bounds the groups after v with a second
lookup at the same key in its cost-to-go table
(`CompiledModel.branch_tables`).  The bound is added when a child is made;
of two children the one with the larger bound is searched first, and a
child whose bound does not beat the incumbent is pruned, when it would be
pushed or, if the incumbent has risen since, when it is popped.  The
search runs on the system's solution coset (`gf2.Coset`): the solution x0
with every free variable at 0, plus one null vector per free variable v
whose lowest set bit is v.  Every pivot is forced by the variables before
it, so only the n - rank free variables are branched on.  The search
carries a full solution: a free variable branches with one XOR of its null
vector, which also flips the pivots above it that it forces, and a pivot
is already set, so scoring it is the one lookup.  A solve may be asked a
bracketed question [floor, ceiling]: the incumbent starts at floor, and
the search ends at the first leaf that reaches ceiling.  A node or a time
limit, passed as keywords, ends a search early with its incumbent.
`XorOracle` estimates the 2^i-th largest weight as the median of T
constrained maxima under random (A, d) pairs with i rows, nested across
indices within a repetition, so each repetition holds a proven interval
on its maximum.  A query solves only the repetitions whose interval
straddles the bracket the intervals put on the median, each inside it,
and a solution set several repetitions' prefixes share once.  Before any
solve, the first query settles what two numpy enumerations prove,
through one recorder.  Up to n = PREFIX_BITS the indices below n - K are
settled from the model's 2^(n - K + 1) heaviest assignments (the scan):
at such an index a repetition's maximum is almost always one of them.
The deepest K indices, whose cosets hold at most 2^K points, are then
settled by enumerating every repetition's coset at n - K, T 2^K <=
SWEEP_POINTS points in all (`sweep_depth`; the sweep).  The proofs are
in `XorOracle`.
`sample_parity_system` draws any number of pairs as the rows of one
bounded-uint8 draw from a caller's generator, and hands out that draw's
bits beside them; the XOR oracle draws its T pairs from
`rng_from(master_seed, n)`.
`make_oracle` binds a model to any configured oracle kind; `OracleConfig`
is the whole configuration, from c, T, delta and the master seed to the
limits of each MAP solve.  `synthetic_oracle` wraps a known quantile curve.

A query takes an index alone.  Each oracle makes its own QueryLedger,
`oracle.ledger`, which memoises by query index, so a repeated query is
never recomputed and the number of distinct queries can be audited
afterwards, beside the MAP solves and the search nodes they took.  Each
oracle states what its answers prove (`failure_probability`).
"""

from __future__ import annotations

import bisect
import math
import operator
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import gf2
from .errors import StructuralError
from .logspace import NEG_INF
from .model import PREFIX_BITS, QuantileCurve, WeightedModel, exact_quantiles
from .seeds import mix64, rng_from, unit_from

# points one sweep of `XorOracle` scores, over all its repetitions: K = 8 at
# T = 30 and K = 10 at T = 5.  With the scan, in-process CPU time per
# estimate (both schedules, medians of 5 runs) at T = 30, n = 12 was 1.03 ms
# at 2^14 and 1.09 ms at 2^15 against 1.10 ms here, within the host's noise,
# and at T = 5, n = 16 it was 0.91 and 1.06 ms against 0.84 ms here
SWEEP_POINTS = 1 << 13

# ---------------------------------------------------------------------------
# MAP solving


def _count(name: str, value) -> int:
    """The one check of a caller's integer: numpy integers and bools pass as int, all else raises."""
    try:
        return operator.index(value)
    except TypeError:
        raise StructuralError(f"{name} must be an integer, got {value!r}") from None


def _check_limits(node_limit, time_limit) -> int | None:
    """The one check of a solve's limits: node_limit an integer >= 1, time_limit > 0, or None.

    Returns node_limit as an int, so a numpy integer passes as one.
    """
    if node_limit is not None:
        node_limit = _count("node_limit", node_limit)
        if node_limit < 1:
            raise StructuralError("node_limit must be >= 1")
    if time_limit is not None and not time_limit > 0.0:
        raise StructuralError("time_limit must be > 0")
    return node_limit


def _check_gamma(gamma: float) -> None:
    """The pointwise ratio must be >= 1 and finite (NaN fails the first test)."""
    if not gamma >= 1.0:
        raise StructuralError("gamma must be >= 1")
    if gamma == math.inf:
        raise StructuralError("gamma must be finite")


def _check_slack(c: int) -> None:
    """A neighbor oracle's slack c must be >= 2."""
    if c < 2:
        raise StructuralError("neighbor oracle needs c >= 2")


class MapResult(NamedTuple):
    """One MAP solve: the value found, a solution attaining it, and how it was found.

    exact means the question asked was answered: with the default bracket,
    log_value is the constrained maximum; under a bracket [floor, ceiling]
    (`map_solve`) it is that maximum clamped as the bracket allows, and is
    floor with assignment None when no solution beats the floor.  An
    inexact result hit a node or time limit and holds the incumbent, a
    lower bound on what was asked.  feasible is False only for an
    inconsistent system, whose value is -inf.  nodes counts the search's
    nodes, 0 when no search ran.
    """

    log_value: float
    assignment: int | None
    exact: bool
    feasible: bool
    nodes: int = 0


def _result(fields: tuple) -> MapResult:
    """A MapResult of all five fields in order, built with no argument parsing."""
    return tuple.__new__(MapResult, fields)


def sample_parity_system(n: int, m: int, rng: np.random.Generator, reps: int) -> tuple[list, np.ndarray]:
    """reps uniform m x n 0/1 constraint matrices, each with a uniform right-hand side, and their bits.

    Returns the reps `gf2.Gf2System`s and their (reps, m, n + 1) 0/1 uint8
    bits: row r of system t, bit v in column v, then its rhs bit in column
    n, the affine coordinates of `gf2.violation_codes`.
    System t is row t of one (reps, pad + m) bounded-uint8 draw from rng,
    pad = m*n rounded up to a multiple of 4: row r of its matrix is bytes
    r*n .. r*n + n - 1 of the row, bit v first, and its rhs the last m
    bytes.  numpy fills such a draw row by row, four bytes to each fresh
    32-bit word, and drops the unused bytes of the last word, so system t
    does not depend on reps: a draw of k systems is the first k of any
    longer one.  A draw of one system consumes the same words and yields
    the same bits as drawing the matrix and then the rhs in two calls; the
    padding is exactly the bytes the first of those calls would drop.  With
    m = 0 nothing is drawn.  Each matrix row is packed into whole
    little-endian 64-bit words, so one `tolist` turns every row of the
    batch into a Python int; words are joined in Python only when n > 64.
    The packed rows lie inside n bits and the rhs bytes are 0 or 1, so the
    systems are built with no second check (`gf2._trusted_system`).
    """
    if min(n, m, reps) < 0:
        raise StructuralError(f"negative size: n={n}, m={m}, reps={reps}")
    if m == 0:
        return [gf2._trusted_system(n, (), ()) for _ in range(reps)], np.zeros((reps, 0, n + 1), np.uint8)
    pad = -(-m * n // 4) * 4
    draws = rng.integers(0, 2, size=(reps, pad + m), dtype=np.uint8)
    words = max(1, -(-n // 64))
    packed = np.zeros((reps, m, 8 * words), dtype=np.uint8)
    bits = np.concatenate((draws[:, : m * n].reshape(reps, m, n), draws[:, pad:, None]), axis=2)
    packed[:, :, : -(-n // 8)] = np.packbits(bits[:, :, :n], axis=2, bitorder="little")
    word = packed.view("<u8")  # (reps, m, words), word j holding bits 64j..
    if words == 1:
        rows = word[:, :, 0].tolist()
    else:  # join each row's words as Python ints
        rows = sum(word[:, :, j].astype(object) << (64 * j) for j in range(words)).tolist()
    return [gf2._trusted_system(n, tuple(r), tuple(b)) for r, b in zip(rows, draws[:, pad:].tolist())], bits


def sweep_depth(n: int, T: int) -> int | None:
    """K, the largest k <= n with T 2^k <= SWEEP_POINTS: how many of the deepest indices `XorOracle` sweeps.

    None when T > SWEEP_POINTS, where there is no sweep.
    """
    if T > SWEEP_POINTS:
        return None
    return min(n, (SWEEP_POINTS // T).bit_length() - 1)


def _solve_branch_and_bound(
    model: WeightedModel,
    x0: int,
    nulls: tuple[int | None, ...],
    node_limit: int | None,
    time_limit: float | None,
    floor: float,
    ceiling: float,
) -> MapResult:
    """Depth-first search over variables 0..n-1 of the coset (x0, nulls) (`gf2.Coset`).

    A node at variable v carries a full solution x: its free variables
    below v are decided, those from v up are 0, and every pivot holds the
    value its row forces.  nulls[v] is None for a pivot, whose bit in x is
    already right, so the child is x itself; a free v branches into x and
    x ^ nulls[v], which flips v and the pivots above it that v forces.
    The incumbent starts at floor with no assignment, and the search ends
    at the first leaf that reaches ceiling.
    """
    n = model.n
    compiled = model.compiled
    steps = compiled.branch_tables

    best = floor
    best_assign: int | None = None
    nodes = 1  # the root; every child is counted when it is made
    exhausted = False
    # the limits are looked at on a pop once nodes reaches `check`: from
    # node_limit on, and every 1,024 nodes under a deadline; with neither,
    # never
    check = stop = node_limit if node_limit is not None else 1 << 62
    deadline = None
    if time_limit is not None:
        deadline = time.monotonic() + time_limit
        check = min(stop, 0x400)
    # (variable, solution, score of the groups below the variable, score
    # plus the bound on the groups still to score)
    stack = [(0, x0, compiled.const, compiled.const + compiled.bound_tail[0])]
    push = stack.append
    pop = stack.pop
    while stack:
        v, x, g, f = pop()
        # a popped child the incumbent has overtaken is dropped by the
        # dive's test below; the limits only end a search that has work left
        if nodes >= check and f > best:
            if nodes >= stop or time.monotonic() > deadline:
                exhausted = True
                break
            check = min(stop, nodes + 0x400)
        # dive: the child that would be pushed last, and so popped next, is
        # taken up at once
        while f > best:
            if v == n:
                best = g
                best_assign = x
                if g >= ceiling:
                    stack.clear()
                break
            # group v and the bound on groups v+1.. are read at one key: bits lo..v of the child
            lo, window, score, bound = steps[v]
            null = nulls[v]
            if null is None:
                key = (x >> lo) & window
                g += score[key]
                f = g + bound[key]
                nodes += 1
            else:
                one = x ^ null
                k0 = (x >> lo) & window
                k1 = (one >> lo) & window
                g0 = g + score[k0]
                g1 = g + score[k1]
                f0 = g0 + bound[k0]
                f1 = g1 + bound[k1]
                nodes += 2
                # the child with the larger bound is searched first; on a tie,
                # the 0-child.  The other is pushed only if it can still beat
                # the incumbent, which never falls.
                if f1 > f0:
                    if f0 > best:
                        push((v + 1, x, g0, f0))
                    x, g, f = one, g1, f1
                else:
                    if f1 > best:
                        push((v + 1, one, g1, f1))
                    g, f = g0, f0
            v += 1

    return _result((best, best_assign, not exhausted, True, nodes))


def check_columns(system, model: WeightedModel) -> None:
    """A system, or its coset, must have one column per model variable.

    The rest of a system or a coset was checked when it was built
    (`gf2.Gf2System`, `gf2.Coset`), so this check is O(1).
    """
    if system.cols != model.n:
        raise StructuralError(f"system over {system.cols} columns, model has {model.n} variables")


def map_solve(
    model: WeightedModel,
    system: gf2.Gf2System | gf2.Coset,
    *,
    floor: float = NEG_INF,
    ceiling: float = math.inf,
    node_limit: int | None = None,
    time_limit: float | None = None,
) -> MapResult:
    """max log w(x) subject to the parity system; empty systems mean unconstrained.

    An exact result's value is the maximum over the solution coset: the
    bounds never fall below a leaf they cover, rounding included
    (`CompiledModel.branch_tables`).  Among equal maxima the assignment is
    the first one the search meets.  nodes counts the root and every child
    made, pruned ones included.  The search runs on the system's coset,
    built by `gf2.row_reduce`, or on a coset passed in its place, as
    `XorOracle` passes each prefix's from its chain; an inconsistent one
    makes the result infeasible.  Only a `Gf2System` or a `gf2.Coset`,
    each validated when it was built, is accepted, over one column per
    model variable (`check_columns`): anything else raises
    StructuralError.

    floor <= ceiling bracket the question asked; the defaults, -inf and
    +inf, ask for the maximum v itself.  The search starts its incumbent at
    floor and prunes every node whose bound does not beat it, and it stops
    at the first leaf worth ceiling or more.  So an exact bracketed result
    has value max(v, floor) when v < ceiling, and a value in [ceiling, v]
    otherwise.  When no leaf beats the floor the value is floor, the
    assignment None and the result still feasible; otherwise the
    assignment is a solution worth exactly the value.  An inconsistent
    system is infeasible at -inf whatever the bracket.  `XorOracle` asks
    each solve only what its lower median needs.

    node_limit and time_limit (seconds), when given, limit the search: an
    integer >= 1 and a number > 0 (`_check_limits`).  A search that
    finishes within them is exact; otherwise the incumbent is returned and
    the result is flagged inexact, a lower bound on what was asked.  The
    limits are checked when a node is popped, not at every node, so a
    limited solve runs on to the end of the dive it is in: it may overrun
    node_limit by one dive, at most 2n nodes over n variables (two children
    at each free variable).  The clock is read at the first pop after every
    1,024 nodes.  A popped node that can no longer beat the incumbent is
    dropped before the limits are looked at, so a search whose every
    remaining node is pruned ends exact.
    """
    # a chained coset, the oracle's every solve, passes with one type test
    if type(system) is not gf2.Coset and not isinstance(system, (gf2.Gf2System, gf2.Coset)):
        raise StructuralError(f"expected a Gf2System or a Coset, got {type(system).__name__}")
    if system.cols != model.n:
        check_columns(system, model)  # raises, naming both counts
    if not floor <= ceiling:
        raise StructuralError(f"bracket [{floor}, {ceiling}] is empty")
    if node_limit is not None or time_limit is not None:
        node_limit = _check_limits(node_limit, time_limit)
    _, _, x0, nulls = system if isinstance(system, gf2.Coset) else gf2.row_reduce(system)
    if x0 is None:
        return _result((NEG_INF, None, True, False, 0))
    return _solve_branch_and_bound(model, x0, nulls, node_limit, time_limit, floor, ceiling)


# ---------------------------------------------------------------------------
# Oracle configuration and ledger


@dataclass(frozen=True)
class OracleConfig:
    """Which oracle backs the quantile queries, and its parameters.

    kind "exact" reads the true quantile curve (n <= 24); "pointwise" is the
    exact value under a deterministic multiplicative jitter within
    [1/gamma, gamma]; "neighbor" runs the randomized XOR query, whose
    constrained MAP solves `map_solve` runs under node_limit and time_limit
    (seconds per solve; None is unlimited).  A solve cut short by either
    voids the estimate's guarantee.  T defaults from delta and the
    concentration rate (`repetitions`), which the XOR oracle resolves once,
    when built.
    """

    kind: str = "neighbor"
    c: int = 5
    T: int | None = None
    delta: float = 0.01
    gamma: float = 1.0
    master_seed: int = 0
    node_limit: int | None = None
    time_limit: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "c", _count("c", self.c))
        object.__setattr__(self, "master_seed", _count("master_seed", self.master_seed))
        if self.T is not None:
            object.__setattr__(self, "T", _count("T", self.T))
        if self.kind not in ("exact", "pointwise", "neighbor"):
            raise StructuralError(f"unknown oracle kind {self.kind!r}")
        if not 0.0 < self.delta < 1.0:
            raise StructuralError("delta must be in (0, 1)")
        _check_gamma(self.gamma)
        if self.kind == "neighbor":
            _check_slack(self.c)
        if self.T is not None and self.T < 1:
            raise StructuralError("T must be >= 1")
        object.__setattr__(self, "node_limit", _check_limits(self.node_limit, self.time_limit))

    def concentration_rate(self) -> float | None:
        """alpha, the paper's 0.078 at c = 5; None at any other c, where no rate is known."""
        return 0.078 if self.c == 5 else None

    def repetitions(self, n: int) -> int:
        """T, or its default ceil(ln(1/delta)/alpha * ln n) once n is known.

        StructuralError when T is not given and no alpha is known.
        """
        if self.T is not None:
            return self.T
        if n < 2:
            return 1
        alpha = self.concentration_rate()
        if alpha is None:
            raise StructuralError(f"no concentration rate known for c={self.c}; pass --T")
        return math.ceil(-math.log(self.delta) / alpha * math.log(n))


@dataclass
class QueryLedger:
    """Memo table plus counters for auditing oracle traffic; one per oracle, `oracle.ledger`.

    distinct_queries is the number of indices computed, one memo entry each;
    repeat accesses are cache hits.  map_calls counts actual MAP solver
    invocations and search_nodes sums their `MapResult.nodes`, plus the
    points `XorOracle`'s sweep and scan weighed.
    guarantee_void flips when any solve came back inexact, cut short by
    `OracleConfig.node_limit` or `time_limit`.
    """

    memo: dict[int, float] = field(default_factory=dict)
    map_calls: int = 0
    search_nodes: int = 0
    cache_hits: int = 0
    guarantee_void: bool = False

    def record_solve(self, result: MapResult) -> None:
        self.map_calls += 1
        self.search_nodes += result.nodes
        if not result.exact:
            self.guarantee_void = True

    @property
    def distinct_queries(self) -> int:
        return len(self.memo)


# ---------------------------------------------------------------------------
# Quantile oracles


def _record_leaf(lo_run: list[float], d: int, value: float) -> None:
    """A leaf worth value at d (`XorOracle`): lo_run[j] rises to value at j = d, d - 1, ... while below it."""
    while d >= 0 and lo_run[d] < value:
        lo_run[d] = value
        d -= 1


def _record_cap(hi_run: list[float], i: int, value: float) -> None:
    """A cap worth value at i (`XorOracle`): hi_run[j] falls to value at j = i, i + 1, ... while above it."""
    n = len(hi_run)
    while i < n and hi_run[i] > value:
        hi_run[i] = value
        i += 1


class QuantileOracle:
    """Base: memoised point queries plus index-appropriate lower/upper reads."""

    def __init__(self, n: int):
        self.n = n
        self.ledger = QueryLedger()

    def _compute(self, i: int) -> float:
        raise NotImplementedError

    def failure_probability(self) -> float | None:
        """The probability that the estimate misses its factor bound; None when nothing is proven."""
        return None

    def query(self, i: int) -> float:
        if type(i) is not int:  # np.int64 and bool become int; 1.5 is refused
            i = _count("query index", i)
        if not 0 <= i <= self.n:
            raise StructuralError(f"query index {i} outside 0..{self.n}")
        ledger = self.ledger
        if i in ledger.memo:
            ledger.cache_hits += 1
            return ledger.memo[i]
        value = ledger.memo[i] = self._compute(i)
        return value

    def lower(self, i: int) -> float:
        return self.query(i)

    def upper(self, i: int) -> float:
        return self.query(i)


class ExactCurveOracle(QuantileOracle):
    def __init__(self, curve: QuantileCurve):
        super().__init__(curve.n)
        self.curve = curve

    def _compute(self, i: int) -> float:
        return self.curve[i]


class PointwiseCurveOracle(QuantileOracle):
    """Exact quantile scaled by a deterministic per-index factor in [1/gamma, gamma]."""

    def __init__(self, curve: QuantileCurve, gamma: float, master_seed: int = 0):
        _check_gamma(gamma)
        super().__init__(curve.n)
        self.curve = curve
        self.gamma = gamma
        self.master_seed = _count("master_seed", master_seed)
        self._log_gamma = math.log(gamma)

    def _compute(self, i: int) -> float:
        u = 2.0 * unit_from(self.master_seed, 0x9077, i) - 1.0
        return self.curve[i] + u * self._log_gamma

    def lower(self, i: int) -> float:
        return self.query(i) - self._log_gamma

    def upper(self, i: int) -> float:
        return self.query(i) + self._log_gamma


class NeighborOracle(QuantileOracle):
    """Base of the neighbor oracles: lower/upper shift the index by c, clamped to 0..n."""

    c: int

    def lower(self, i: int) -> float:
        return self.query(min(i + self.c, self.n))

    def upper(self, i: int) -> float:
        return self.query(max(i - self.c, 0))


class XorOracle(NeighborOracle):
    """Randomized constrained-MAP median over nested parity systems.

    The first query draws the T n-row systems in one call,
    `sample_parity_system(n, n, rng_from(master_seed, n), T)`, and
    repetition t keeps the t-th; query i reads its first i rows and rhs
    bits, the prefix system P_{i,t}.  A solve runs on P_{i,t}'s coset, read
    from repetition t's chain of prefix cosets (`gf2.prefix_coset`), which
    is extended one row at a time, and only as far as a solve or the sweep
    reads it.  The answer is the lower median s, the (r + 1)-th smallest,
    r = (T - 1) // 2, of the T maxima v_{i,t} = max log w over the
    solutions S_{i,t} of P_{i,t}, so each answer is a pure function of
    (master_seed, i, T) and does not depend on query order; how many solves
    it takes (map_calls) does.

    Guarantee.  The first i rows of a uniform n-row system with a uniform
    rhs are a uniform i-row system with a uniform rhs, so each index's T
    prefixes have the law of T independent i-row draws.  The per-index
    coverage argument, and the union bound over indices built on it, read
    only these per-index marginals; the joint law across indices, which the
    nesting changes, is never used.

    Intervals.  Adding rows only removes solutions, S_{i+1,t} is a subset
    of S_{i,t}, so v_{i+1,t} <= v_{i,t}.  A leaf worth x at d, a solution
    of the first d rows, proves v_{j,t} >= x at every j <= d, and a cap
    worth x at i proves v_{j,t} <= x at every j >= i.  Per repetition the
    oracle keeps what its records prove as two running bounds over 0..n:
    lo_run[j], the highest leaf at j or above, and hi_run[j], the lowest
    cap at j or below (-inf and inf until proven).  So v_{i,t} lies in
    [lo_t, hi_t] = [lo_run[i], hi_run[i]], read by index.  Both are
    non-increasing in j, and a record walks only while it tightens one: a
    leaf at d raises lo_run[d], lo_run[d - 1], ... until one is already at
    least as high, and a cap at i lowers hi_run[i], hi_run[i + 1], ...
    until one is already at most as low.  A solve in [floor, ceiling]
    (`map_solve`) records: any assignment it returns is a solution, a leaf
    at its first violated row; an exact result with no assignment proves v
    <= floor, and an exact value below ceiling is v, either a cap at i; a
    ceiling stop or a limited search proves no cap.  An inconsistent prefix
    caps i at -inf, and so every longer prefix of t.

    Selection.  s lies in [S_lo, S_hi], the (r + 1)-th smallest lo_t and
    hi_t.  A query answers S_lo at once when S_lo == S_hi.  Otherwise it
    visits the repetitions that straddle the bracket (lo_t < hi_t, hi_t >
    S_lo and lo_t < S_hi) once, in descending hi_t, and solves each that
    still straddles in [max(S_lo, lo_t), min(S_hi, hi_t)]; it answers S_lo
    once S_lo == S_hi.  One pass is enough: bounds only tighten, so S_lo
    only rises and S_hi only falls, and a repetition that stops straddling
    never straddles again, so one that does not straddle at the start is
    never visited.  An exact solve ends its repetition's straddling: no
    leaf above the floor leaves hi_t at or below it, a value below the
    ceiling makes lo_t = hi_t, and a ceiling stop leaves lo_t at or above
    it.  Were S_lo < S_hi after the pass, each repetition would have hi_t <
    S_hi or lo_t > S_lo, but at most r can have the first and at most T - r
    - 1 the second.  A settle moves its bounds in the sorted ends past only
    the ones between their old and new values, so a query whose
    repetitions all settle to one value is linear in T.

    A solution set several repetitions' prefixes share, inconsistent ones
    included, is solved once per query, keyed by its coset: equal solution
    sets of i rows give equal cosets, and a solve's result, and the
    interval its repetition's records prove, hold for the solution set and
    not for the rows.  The others record its solution, as their own solve
    would, and its interval as a leaf and a cap at i, which settles them.
    Under node or time limits an inexact result pins its repetition, for
    this query, at the value returned, clamped into its interval, and
    records only its solution; the answer is then a heuristic, and the
    ledger's guarantee_void says so.

    Enumeration.  Let K be the largest k <= n with T 2^k <= SWEEP_POINTS
    (`sweep_depth`) and i0 = n - K (`sweep_from`); with T > SWEEP_POINTS
    there is no enumeration.  The first query, at any index, settles what
    two enumerations prove before any solve: the scan, when the prefix table
    is the whole weight table (n <= PREFIX_BITS) and i0 >= 1, then the
    sweep.  Each point enumerated is given its depth in a repetition, the
    first row past a start index that it violates, read from the rows it
    violates (`gf2.violation_codes`), and both record through one method
    (`_record`): per repetition, the heaviest point of depth j or more is a
    leaf at j, and its maximum with a cap is a cap at j.  These replace
    lo_run and hi_run from the start index on, and the leaf there walks
    lo_run below it.  The enumerated points are added to search_nodes;
    map_calls counts `map_solve` calls alone, and the node and time limits
    bind `map_solve` alone too: both enumerations are always exact.  Each
    weight is one lookup in the model's prefix table over its low
    PREFIX_BITS (13) variables, kept from the first enumeration on, plus one
    per window of a later group, and it is the float sum the search forms at
    a leaf, so a maximum among them is what an exact `map_solve` returns,
    bit for bit.  The scan weighs the model's M = min(2^n, 2^(i0 + 1))
    heaviest assignments (`scan_size`), the first M of
    `CompiledModel.descending`, against all n rows of every repetition, from
    index 0, with the (M + 1)-th weight as its cap (-inf when M = 2^n: no
    assignment is left).  Let x be the heaviest scanned point of depth j or
    more.  Every unscanned assignment weighs at most the cap, which is at
    most log w(x), so v_{j,t} = log w(x), a leaf and a cap at j.  Where no
    scanned point has depth j or more, every solution of the first j rows is
    unscanned, so the cap caps v_{j,t}.  About 2 scanned points reach depth
    i0 in each repetition, so most repetitions are settled at every index up
    to i0 and many past it.  The sweep then settles indices i0..n of every
    repetition whose prefix at i0 is inconsistent or of full rank, from
    index i0 with cap -inf.  After a scan, which leaves few shallow solves
    to read the chains, each prefix at i0 is reduced anew (`gf2.row_reduce`)
    and the chains stay the solver's lazy cache; without one the shallow
    solves read the chain below i0 again, so the sweep extends it to i0
    (`gf2.prefix_coset`).  An inconsistent prefix has no points, which
    caps i0 and every longer prefix at -inf.  A full-rank prefix's coset
    holds 2^K points, all scored at once (`CompiledModel.coset_weights`).
    The prefixes nest, so S_{j,t} for j >= i0 is the set of points of depth
    j or more, and v_{j,t} is the largest weight among them: a point attains
    it, a leaf at j, and it is the maximum, a cap at j.  So the sweep's
    records are exact and replace whatever the scan proved there.  A
    rank-deficient prefix, whose coset holds more than 2^K points, is left
    to the solver.  Both schedules query index n, so every estimate runs the
    sweep, and running it first leaves the shallow solves fewer repetitions.
    """

    def __init__(self, model: WeightedModel, config: OracleConfig):
        super().__init__(model.n)
        self.model = model
        self.config = config
        self.c = config.c
        self.T = config.repetitions(model.n)
        depth = sweep_depth(model.n, self.T)
        # i0 = n - K, the first index the sweep settles; None when there is no sweep
        self.sweep_from = None if depth is None else model.n - depth
        # M, how many of the heaviest assignments the first query scans; None when there is no scan
        i0 = self.sweep_from
        self.scan_size = 1 << min(model.n, i0 + 1) if i0 and model.n <= PREFIX_BITS else None
        # per repetition, filled on the first query: the system, its chain
        # of prefix cosets (`gf2.prefix_coset`), lo_run and hi_run, and the
        # draw's (T, n, n + 1) 0/1 rows the scan and the sweep code points against
        self._systems: list[gf2.Gf2System] = []
        self._chains: list[list[gf2.Coset]] = []
        self._lo: list[list[float]] = []
        self._hi: list[list[float]] = []
        self._rows: np.ndarray | None = None

    def failure_probability(self) -> float | None:
        """delta_T = exp(-alpha T / ln n), what the T repetitions buy.

        None after an inexact solve, at n < 2, or with no alpha known.
        """
        alpha = self.config.concentration_rate()
        if self.ledger.guarantee_void or self.n < 2 or alpha is None:
            return None
        return math.exp(-alpha * self.T / math.log(self.n))

    def _compute(self, i: int) -> float:
        T = self.T
        if not self._systems:
            self._start()
        # lower middle for even counts: never overestimates the median
        r = (T - 1) // 2
        lows = [lo_run[i] for lo_run in self._lo]
        highs = [hi_run[i] for hi_run in self._hi]
        los, his = sorted(lows), sorted(highs)
        s_lo, s_hi = los[r], his[r]
        if s_lo == s_hi:
            return s_lo
        # descending hi_t; the sort is stable, so ties keep ascending t
        visit = [t for t in range(T) if lows[t] < highs[t] and highs[t] > s_lo and lows[t] < s_hi]
        visit.sort(key=highs.__getitem__, reverse=True)
        shared: dict[gf2.Coset, tuple[MapResult, float, float, float]] = {}
        for t in visit:
            s_lo, s_hi = los[r], his[r]
            if s_lo == s_hi:
                break
            lo, hi = lows[t], highs[t]
            if hi <= s_lo or lo >= s_hi:
                continue
            new_lo, new_hi = self._settle(i, t, lo, hi, s_lo, s_hi, shared)
            # move each bound past only the ones between its old and new value
            if new_lo != lo:  # lower ends rise
                k, j = bisect.bisect_right(los, lo) - 1, bisect.bisect_left(los, new_lo)
                los[k : j - 1] = los[k + 1 : j]
                los[j - 1] = new_lo
            if new_hi != hi:  # upper ends fall
                k, j = bisect.bisect_left(his, hi), bisect.bisect_right(his, new_hi)
                his[j + 1 : k + 1] = his[j:k]
                his[j] = new_hi
        return los[r]

    def _start(self) -> None:
        """The first query's set-up: draw the T systems, start every interval at (-inf, inf), then scan and sweep."""
        n, T = self.n, self.T
        self._systems, rows = sample_parity_system(n, n, rng_from(self.config.master_seed, n), T)
        free = gf2.row_reduce(gf2.Gf2System(n, (), ()))
        self._chains = [[free] for _ in range(T)]
        self._lo = [[NEG_INF] * (n + 1) for _ in range(T)]
        self._hi = [[math.inf] * (n + 1) for _ in range(T)]
        if self.sweep_from is None:
            return
        self._rows = rows
        if self.scan_size is not None:
            self._scan()
        self._sweep()

    def _scan(self) -> None:
        """Record what the model's M heaviest assignments prove in every repetition; see the class docstring."""
        compiled = self.model.compiled
        n, M = self.n, self.scan_size
        order = compiled.descending[: M + 1]
        weights = compiled.prefix[order]
        points = ((order[:M, None] | 1 << n) >> np.arange(n + 1) & 1).astype(np.uint8)
        depths = gf2.code_depths(gf2.violation_codes(points, self._rows), n)
        cap = float(weights[M]) if M < len(weights) else NEG_INF  # no weight is left when M = 2^n
        self._record(range(self.T), 0, depths, weights[:M, None], cap)

    def _sweep(self) -> None:
        """Record every repetition whose prefix at i0 is inconsistent or of full rank; see the class docstring."""
        n, i0 = self.n, self.sweep_from
        if self.scan_size is None:  # no scan: the shallow solves read the chains again
            prefixes = (gf2.prefix_coset(chain, s, i0) for chain, s in zip(self._chains, self._systems))
        else:
            prefixes = (gf2.row_reduce(gf2._trusted_system(n, s.rows[:i0], s.rhs[:i0])) for s in self._systems)
        empty, full, cosets = [], [], []
        for t, prefix in enumerate(prefixes):
            if prefix.x0 is None:
                empty.append(t)
            elif prefix.nulls.count(None) == i0:  # rank i0: K free variables
                full.append(t)
                cosets.append(prefix)
        if empty:  # no points: -inf from i0 on
            nothing = np.empty((0, len(empty)), int)
            self._record(empty, i0, nothing, nothing, NEG_INF)
        if full:
            bits = gf2.basis_bits(cosets)
            weights = self.model.compiled.coset_weights(bits[:, :, :n])  # (2^K, len(full))
            codes = gf2.span(gf2.violation_codes(bits, self._rows[full, i0:]))
            self._record(full, i0, gf2.code_depths(codes, n - i0), weights, NEG_INF)

    def _record(self, reps, start: int, depths: np.ndarray, weights: np.ndarray, cap: float) -> None:
        """Record an enumeration's points in repetitions reps from index start on.

        depths[p, k] is point p's depth in repetition reps[k], counted from
        start, and weights, broadcast to depths, its weight.  The heaviest
        point of depth j or more, -inf if none, is a leaf at j, and its
        maximum with cap a cap at j: these replace lo_run and hi_run from
        start on, and the leaf at start walks lo_run below it.  The maxima
        per repetition and depth are one `np.maximum.at`, and a maximum
        over deeper depths follows.  The points are added to search_nodes.
        """
        count, width = len(reps), self.n - start + 1
        best = np.full(width * count, NEG_INF)
        np.maximum.at(best, (depths * count + np.arange(count)).ravel(), np.broadcast_to(weights, depths.shape).ravel())
        values = np.maximum.accumulate(best.reshape(width, count)[::-1], axis=0)[::-1].T
        for t, lo, hi in zip(reps, values.tolist(), np.maximum(values, cap).tolist()):
            lo_run = self._lo[t]
            lo_run[start:] = lo
            self._hi[t][start:] = hi
            _record_leaf(lo_run, start - 1, lo[0])
        self.ledger.search_nodes += depths.size

    def interval(self, t: int, i: int) -> tuple[float, float]:
        """[lo_t, hi_t], repetition t's proven interval on v_{i,t}, read from its running bounds."""
        return self._lo[t][i], self._hi[t][i]

    def _settle(
        self, i: int, t: int, lo: float, hi: float, s_lo: float, s_hi: float, shared: dict
    ) -> tuple[float, float]:
        """Repetition t's interval, [lo, hi] before, once its prefix is solved in [s_lo, s_hi].

        The solve's records tighten t's running bounds, and the new
        interval is read from them at i; see the class docstring.
        """
        system = self._systems[t]
        chain = self._chains[t]
        prefix = chain[i] if i < len(chain) else gf2.prefix_coset(chain, system, i)
        hit = shared.get(prefix)
        if hit is None:
            top = min(s_hi, hi)
            result = self._solve(prefix, max(s_lo, lo), top)
        else:
            result, top, a, b = hit
        value, x = result.log_value, result.assignment
        lo_run, hi_run = self._lo[t], self._hi[t]
        if x is not None:  # a solution of rows 0..d-1, d its first violated row
            rows, rhs, n = system.rows, system.rhs, self.n
            d = i
            while d < n and (rows[d] & x).bit_count() & 1 == rhs[d]:
                d += 1
            _record_leaf(lo_run, d, value)
        if not result.exact:
            lo = hi = min(max(value, lo_run[i]), hi_run[i])
        else:
            if x is None or value < top:
                _record_cap(hi_run, i, value)
            if hit is not None:  # the interval the prefix's solve left holds v here too
                _record_leaf(lo_run, i, a)
                _record_cap(hi_run, i, b)
            lo, hi = lo_run[i], hi_run[i]
        shared[prefix] = (result, top, lo, hi)
        return lo, hi

    def _solve(self, prefix: gf2.Coset, floor: float, ceiling: float) -> MapResult:
        """A prefix's chained coset solved in [floor, ceiling], and counted."""
        config = self.config
        result = map_solve(
            self.model, prefix, floor=floor, ceiling=ceiling,
            node_limit=config.node_limit, time_limit=config.time_limit,
        )
        self.ledger.record_solve(result)
        return result


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
    ):
        if policy not in self.policies:
            raise StructuralError(f"unknown policy {policy!r}")
        c = _count("c", c)
        _check_slack(c)
        super().__init__(curve.n)
        self.curve = curve
        self.c = c
        self.policy = policy
        self.master_seed = _count("master_seed", master_seed)

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
) -> QuantileOracle:
    """Wrap a known curve as an oracle so schedules can run without a model."""
    if kind == "exact":
        return ExactCurveOracle(curve)
    if kind == "pointwise":
        return PointwiseCurveOracle(curve, gamma, seed)
    if kind == "neighbor-stub":
        return NeighborStubOracle(curve, c, policy, seed)
    raise StructuralError(f"unknown synthetic oracle kind {kind!r}")


def make_oracle(model: WeightedModel, config: OracleConfig) -> QuantileOracle:
    """Bind a model to the configured oracle kind.

    Exact and pointwise kinds enumerate the true quantile curve up front and
    are therefore limited to n <= 24.
    """
    if config.kind == "neighbor":
        return XorOracle(model, config)
    return synthetic_oracle(exact_quantiles(model), config.kind, config.gamma, seed=config.master_seed)
