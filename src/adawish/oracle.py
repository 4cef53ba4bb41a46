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
constrained maxima under random (A, d) pairs with i rows.  Repetition t
draws one n-row pair on the first query, and query i takes its first i
rows, so within a repetition the solution sets nest as i grows and every
index solved bounds the maximum at every other.  So each repetition holds
a proven interval on its maximum, and the lower median lies between the
same order statistic of the intervals' lower ends and of their upper
ends.  The query visits the repetitions once and solves only those whose
interval straddles that bracket, each inside it, so a solve stops once its
value can no longer move the answer; it ends when the bracket closes, and
the answer is the one full solves give (the proof is in `XorOracle`).
Each repetition keeps the cosets of its prefixes in a chain, each one
row's elimination step (`gf2.extend`) from the one before, so no solve
re-eliminates a prefix.  A solve's answer depends only on the prefix's
solution set, which its coset names, so a solution set several
repetitions' prefixes share is solved once per query.
`draw_parity_systems` draws the T pairs as the rows of one bounded-uint8
draw from `rng_from(master_seed, n)`, and `sample_parity_system` draws one
pair from a caller's generator; both pack their bits through one helper,
which turns every row of a batch into a Python int in one call.  `make_oracle` binds a model to any configured
oracle kind; `OracleConfig` is the whole configuration, from c, T, delta
and the master seed to the limits of each MAP solve.  `synthetic_oracle`
wraps a known quantile curve.

Each oracle makes its own QueryLedger, `oracle.ledger`, which memoises by
query index, so a repeated query is never recomputed and the number of
distinct queries can be audited afterwards, beside the MAP solves and the
search nodes they took.
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
from .model import QuantileCurve, WeightedModel, exact_quantiles
from .seeds import mix64, rng_from, unit_from


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


def _draw_bytes(n: int, m: int) -> tuple[int, int]:
    """(pad, pad + m): where a system's rhs starts in its draw, and the draw's length.

    pad is m*n rounded up to a multiple of 4, so the rhs starts on a fresh
    32-bit word of the generator, as in the two-call draw.
    """
    pad = -(-m * n // 4) * 4
    return pad, pad + m


def _pack_systems(n: int, m: int, draws: np.ndarray) -> list[gf2.Gf2System]:
    """The systems in an (S, pad + m) array of 0/1 draws, one system per row.

    Row r of a system is bits r*n .. r*n + n - 1 of its draw, bit v first;
    the rhs is bits pad .. pad + m - 1.  Each row is packed into whole
    little-endian 64-bit words, so one `tolist` turns every row into Python
    ints; words are joined in Python only when n > 64.
    """
    pad, _ = _draw_bytes(n, m)
    count = len(draws)
    words = max(1, -(-n // 64))
    packed = np.zeros((count, m, 8 * words), dtype=np.uint8)
    bits = draws[:, : m * n].reshape(count, m, n)
    packed[:, :, : -(-n // 8)] = np.packbits(bits, axis=2, bitorder="little")
    word = packed.view("<u8")  # (count, m, words), word j holding bits 64j..
    if words == 1:
        rows = word[:, :, 0].tolist()
    else:  # join each row's words as Python ints
        rows = sum(word[:, :, j].astype(object) << (64 * j) for j in range(words)).tolist()
    return [gf2.Gf2System(n, r, b) for r, b in zip(rows, draws[:, pad:].tolist())]


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
    if min(n, m) < 0:
        raise StructuralError(f"negative size: n={n}, m={m}")
    if m == 0:
        return gf2.Gf2System(n, (), ())
    draw = rng.integers(0, 2, size=_draw_bytes(n, m)[1], dtype=np.uint8)
    return _pack_systems(n, m, draw[None])[0]


def draw_parity_systems(n: int, m: int, master_seed: int, reps: int) -> list[gf2.Gf2System]:
    """reps uniform m-row systems over n columns, drawn from `rng_from(master_seed, m)`.

    System t is row t of one (reps, pad + m) bounded-uint8 draw, laid out as
    in `sample_parity_system`.  The generator fills the draw row by row, so
    system t does not depend on reps: a draw of k systems is the first k of
    any longer one.
    """
    if min(n, m, reps) < 0:
        raise StructuralError(f"negative size: n={n}, m={m}, reps={reps}")
    if m == 0:
        return [gf2.Gf2System(n, (), ()) for _ in range(reps)]
    draws = rng_from(master_seed, m).integers(0, 2, size=(reps, _draw_bytes(n, m)[1]), dtype=np.uint8)
    return _pack_systems(n, m, draws)


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
    # node_limit on, and every 1,024 nodes under a deadline
    stop = node_limit if node_limit is not None else 1 << 62
    deadline = time.monotonic() + time_limit if time_limit is not None else None
    check = min(stop, 0x400) if deadline is not None else stop
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

    return MapResult(best, best_assign, not exhausted, True, nodes)


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
    if not isinstance(system, (gf2.Gf2System, gf2.Coset)):
        raise StructuralError(f"expected a Gf2System or a Coset, got {type(system).__name__}")
    check_columns(system, model)
    if not floor <= ceiling:
        raise StructuralError(f"bracket [{floor}, {ceiling}] is empty")
    node_limit = _check_limits(node_limit, time_limit)
    coset = system if isinstance(system, gf2.Coset) else gf2.row_reduce(system)
    if coset.x0 is None:
        return MapResult(NEG_INF, None, True, False)
    return _solve_branch_and_bound(model, coset.x0, coset.nulls, node_limit, time_limit, floor, ceiling)


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
    voids the estimate's guarantee.
    """

    kind: str = "neighbor"
    c: int = 5
    T: int | None = None
    delta: float = 0.01
    alpha: float | None = None
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
        if self.alpha is not None and not 0.0 < self.alpha < math.inf:
            raise StructuralError("alpha must be finite and > 0")
        _check_gamma(self.gamma)
        if self.kind == "neighbor":
            _check_slack(self.c)
        if self.T is not None and self.T < 1:
            raise StructuralError("T must be >= 1")
        object.__setattr__(self, "node_limit", _check_limits(self.node_limit, self.time_limit))

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
    """Memo table plus counters for auditing oracle traffic; one per oracle, `oracle.ledger`.

    distinct_queries is the number of indices computed, one memo entry each;
    repeat accesses are cache hits.  map_calls counts actual MAP solver
    invocations and search_nodes sums their `MapResult.nodes`.
    guarantee_void flips when any solve came back inexact, cut short by
    `OracleConfig.node_limit` or `time_limit`.
    """

    memo: dict[int, float] = field(default_factory=dict)
    map_calls: int = 0
    search_nodes: int = 0
    cache_hits: int = 0
    trace: list[tuple[int, int, float]] = field(default_factory=list)
    guarantee_void: bool = False

    def record_solve(self, result: MapResult) -> None:
        self.map_calls += 1
        self.search_nodes += result.nodes
        if not result.exact:
            self.guarantee_void = True

    def lookup(self, index: int) -> float | None:
        if index in self.memo:
            self.cache_hits += 1
            return self.memo[index]
        return None

    def record(self, index: int, value: float, depth: int) -> float:
        self.memo[index] = value
        self.trace.append((index, depth, value))
        return value

    @property
    def distinct_queries(self) -> int:
        return len(self.memo)

    def queried_indices(self) -> set[int]:
        return set(self.memo)


# ---------------------------------------------------------------------------
# Quantile oracles


class QuantileOracle:
    """Base: memoised point queries plus index-appropriate lower/upper reads."""

    kind = "abstract"

    def __init__(self, n: int):
        self.n = n
        self.ledger = QueryLedger()

    def _compute(self, i: int) -> float:
        raise NotImplementedError

    def query(self, i: int, depth: int = 0) -> float:
        if type(i) is not int:  # np.int64 and bool become int; 1.5 is refused
            i = _count("query index", i)
        if not 0 <= i <= self.n:
            raise StructuralError(f"query index {i} outside 0..{self.n}")
        hit = self.ledger.lookup(i)
        if hit is not None:
            return hit
        return self.ledger.record(i, self._compute(i), depth)

    def lower(self, i: int, depth: int = 0) -> float:
        return self.query(i, depth)

    def upper(self, i: int, depth: int = 0) -> float:
        return self.query(i, depth)


class ExactCurveOracle(QuantileOracle):
    kind = "exact"

    def __init__(self, curve: QuantileCurve):
        super().__init__(curve.n)
        self.curve = curve

    def _compute(self, i: int) -> float:
        return self.curve[i]


class PointwiseCurveOracle(QuantileOracle):
    """Exact quantile scaled by a deterministic per-index factor in [1/gamma, gamma]."""

    kind = "pointwise"

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
    """Randomized constrained-MAP median over nested parity systems.

    The first query draws the T n-row systems in one call,
    `draw_parity_systems(n, n, master_seed, T)`, and repetition t keeps the
    t-th; query i reads its first i rows and rhs bits, the prefix system
    P_{i,t}.  A solve runs on P_{i,t}'s coset, read from repetition t's
    chain of prefix cosets (`gf2.prefix_coset`), which is extended one row
    at a time, and only as far as the highest index settled.  The answer is
    the lower median s, the (r + 1)-th smallest, r = (T - 1) // 2, of the T
    maxima v_{i,t} = max log w over the solutions S_{i,t} of P_{i,t}, so
    each answer is a pure function of (master_seed, i, T) and does not
    depend on query order; how many solves it takes (map_calls) does.

    Guarantee.  The first i rows of a uniform n-row system with a uniform
    rhs are a uniform i-row system with a uniform rhs, so each index's T
    prefixes have the law of T independent i-row draws.  The per-index
    coverage argument, and the union bound over indices built on it, read
    only these per-index marginals; the joint law across indices, which the
    nesting changes, is never used.

    Intervals.  Adding rows only removes solutions, S_{i+1,t} is a subset
    of S_{i,t}, so v_{i+1,t} <= v_{i,t}.  Per repetition the oracle keeps
    proven bounds over 0..n: caps[j] >= v_{j,t} and leaves[d] <= v_{d,t}
    (inf and -inf until proven), so v_{i,t} lies in [lo_t, hi_t], lo_t =
    max(leaves[i:]) and hi_t = min(caps[:i + 1]).  A solve in [floor,
    ceiling] (`map_solve`) tightens them: any assignment it returns is a
    solution, entered in leaves at its first violated row; an exact result
    with no assignment proves v <= floor, and an exact value below ceiling
    is v, either entered in caps[i]; a ceiling stop or a limited search
    proves no cap.  An inconsistent prefix gets caps[i] = -inf, which every
    longer prefix of t inherits.

    Selection.  s lies in [S_lo, S_hi], the (r + 1)-th smallest lo_t and
    hi_t.  The query visits the repetitions once, in descending hi_t, and
    solves each that straddles the bracket (lo_t < hi_t, hi_t > S_lo and
    lo_t < S_hi) in [max(S_lo, lo_t), min(S_hi, hi_t)]; it answers S_lo
    once S_lo == S_hi.  One pass is enough: bounds only tighten, so S_lo
    only rises and S_hi only falls, and a repetition that stops straddling
    never straddles again.  An exact solve ends its repetition's
    straddling: no leaf above the floor leaves hi_t at or below it, a
    value below the ceiling makes lo_t = hi_t, and a ceiling stop leaves
    lo_t at or above it.  Were S_lo < S_hi after the pass, each repetition
    would have hi_t < S_hi or lo_t > S_lo, but at most r can have the
    first and at most T - r - 1 the second.

    A solution set several repetitions' prefixes share, inconsistent ones
    included, is solved once per query, keyed by its coset: equal solution
    sets of i rows give equal cosets, and a solve's result, and the
    interval its repetition's records prove, hold for the solution set and
    not for the rows.  The others enter its solution in their records, as
    their own solve would, and its interval in caps[i] and leaves[i],
    which settles them.  Under node or time limits an inexact result pins
    its repetition, for this query, at the value returned, clamped into
    its interval; the answer is then a heuristic, and the ledger's
    guarantee_void says so.
    """

    def __init__(self, model: WeightedModel, config: OracleConfig):
        super().__init__(model.n)
        self.model = model
        self.config = config
        self.c = config.c
        # per repetition, filled on the first query: the system, its chain
        # of prefix cosets (`gf2.prefix_coset`), caps and leaves
        self._systems: list[gf2.Gf2System] = []
        self._chains: list[list[gf2.Coset]] = []
        self._caps: list[list[float]] = []
        self._leaves: list[list[float]] = []

    def _compute(self, i: int) -> float:
        reps = self.config.repetitions(self.n)
        if not self._systems:
            self._systems = draw_parity_systems(self.n, self.n, self.config.master_seed, reps)
            free = gf2.row_reduce(gf2.Gf2System(self.n, (), ()))
            self._chains = [[free] for _ in range(reps)]
            self._caps = [[math.inf] * (self.n + 1) for _ in range(reps)]
            self._leaves = [[NEG_INF] * (self.n + 1) for _ in range(reps)]
        # lower middle for even counts: never overestimates the median
        r = (reps - 1) // 2
        lows = [max(leaves[i:]) for leaves in self._leaves]
        highs = [min(caps[: i + 1]) for caps in self._caps]
        los, his = sorted(lows), sorted(highs)
        shared: dict[gf2.Coset, tuple[MapResult, float, float, float]] = {}
        # descending hi_t; the sort is stable, so ties keep ascending t
        for t in sorted(range(reps), key=highs.__getitem__, reverse=True):
            s_lo, s_hi = los[r], his[r]
            if s_lo == s_hi:
                break
            lo, hi = lows[t], highs[t]
            if lo == hi or hi <= s_lo or lo >= s_hi:
                continue
            new_lo, new_hi = self._settle(i, t, lo, hi, s_lo, s_hi, shared)
            del los[bisect.bisect_left(los, lo)]
            bisect.insort(los, new_lo)
            del his[bisect.bisect_left(his, hi)]
            bisect.insort(his, new_hi)
        return los[r]

    def interval(self, t: int, i: int) -> tuple[float, float]:
        """[lo_t, hi_t], repetition t's proven interval on v_{i,t} from its records."""
        return max(self._leaves[t][i:]), min(self._caps[t][: i + 1])

    def _settle(
        self, i: int, t: int, lo: float, hi: float, s_lo: float, s_hi: float, shared: dict
    ) -> tuple[float, float]:
        """Repetition t's interval, [lo, hi] before, once its prefix is solved in [s_lo, s_hi].

        Only leaves[d >= i] and caps[i] change, so the new interval is the
        old one tightened by the values entered; see the class docstring.
        """
        system = self._systems[t]
        caps, leaves = self._caps[t], self._leaves[t]
        prefix = gf2.prefix_coset(self._chains[t], system, i)
        hit = shared.get(prefix)
        if hit is None:
            top = min(s_hi, hi)
            result = self._solve(prefix, max(s_lo, lo), top)
        else:
            result, top, a, b = hit
        value, x = result.log_value, result.assignment
        if x is not None:  # a solution of rows 0..d-1, d its first violated row
            d = i
            while d < self.n and (system.rows[d] & x).bit_count() & 1 == system.rhs[d]:
                d += 1
            leaves[d] = max(leaves[d], value)
            lo = max(lo, value)
        if not result.exact:
            lo = hi = min(max(value, lo), hi)
        else:
            if x is None or value < top:
                caps[i] = hi = min(hi, value)
            if hit is not None:  # the interval the prefix's solve left holds v here too
                leaves[i] = max(leaves[i], a)
                caps[i] = min(caps[i], b)
                lo, hi = max(lo, a), min(hi, b)
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
