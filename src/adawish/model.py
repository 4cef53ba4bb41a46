"""Weighted binary models and exact desk-scale references.

A model is a product of non-negative factors over n binary variables, stored
in the log domain (-inf = zero weight): log w(x) = sum_f table_f[x restricted
to scope_f].  Assignments are indexed by bitmask with bit v = variable v.
Factor tables follow the UAI convention: the last scope variable varies
fastest, so the entry of x is the scope's bits read as a binary number with
the first scope variable most significant.

Every evaluator of log w reads one `CompiledModel`, built once per model from
the model alone (`WeightedModel.compiled`).  It holds the constant term, the
factors grouped by their highest scope variable, the optimistic bound on the
groups not yet scored, and the table-index rule.  Every evaluator makes the
same additions in the same order -- the constant, then groups 0..n-1, each
group summed from 0.0 in factor order -- so they agree to the last bit:

- `log_weight` and `log_weights_at` gather each factor's entry point by
  point (`CompiledModel.completed`);
- `CompiledModel.blocks`, behind the enumeration helpers
  (`exact_log_partition`, `exact_quantiles`, `log_weight_table`, n <= 24),
  builds the table of all 2^n log-weights by broadcasting, in place: a
  prefix table over the low variables doubles by one variable per group in
  one preallocated buffer, and each block of 2^18 entries fixes the high
  variables and adds their groups straight into its destination, a slice
  of the caller's table (`log_weight_table`) or one reused buffer, so a
  yielded block is valid only until the next one is drawn.  Group sums
  alternate between the two rows of one scratch array; nothing is
  allocated per step.
  `exact_log_partition` reduces block by block in a fixed order, so its
  result is bit-reproducible, and `exact_quantiles` sorts the table in
  place;
- `CompiledModel.windows`, behind branch-and-bound MAP, holds one lookup
  table per group v over the bit window lo_v..v that its factors read (lo_v
  the lowest scope variable in the group, or lower, down to the frontier of
  the cost-to-go table after v).  It is built on the first solve
  by the same broadcasting, and each entry equals `completed(v, x)` bit for
  bit at every x in its window, so the search scores a node with one shift,
  one mask and one index.  A group whose table would pass WINDOW_ENTRIES
  (2^16) or the model's WINDOW_BUDGET (2^20 entries, 8 MB) scores through
  `completed` in its place.  `CompiledModel.branch_tables` pairs each window
  with a cost-to-go table read at the same key: a bound on the groups after
  v that no leaf exceeds, rounding included, from a backward max over the
  window tables (bucket elimination used as a search heuristic, Kask &
  Dechter, AIJ 2001), built on the first solve too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InvalidSize, ParseError, StructuralError, TooLarge, UnsupportedCardinality
from .logspace import NEG_INF, log_sum_exp

ENUMERATION_LIMIT = 24
BLOCK_BITS = 18  # enumeration blocks hold 2^18 assignments
WINDOW_ENTRIES = 1 << 16  # largest window table of one group
WINDOW_BUDGET = 1 << 20  # window-table entries per model (8 MB)
FRONTIER_BITS = 12  # widest frontier of a cost-to-go table


@dataclass(frozen=True)
class Factor:
    scope: tuple[int, ...]
    log_table: np.ndarray  # flat, length 2^len(scope), last scope var fastest

    def __post_init__(self):
        object.__setattr__(self, "scope", tuple(int(v) for v in self.scope))
        table = np.asarray(self.log_table, dtype=float)
        object.__setattr__(self, "log_table", table)
        if len(set(self.scope)) != len(self.scope):
            raise StructuralError(f"duplicate variable in scope {self.scope}")
        if table.ndim != 1 or table.size != 1 << len(self.scope):
            raise StructuralError(
                f"table size {table.size} does not match scope arity {len(self.scope)}"
            )
        if np.any(np.isnan(table)) or np.any(table == np.inf):
            raise StructuralError("factor entries must be finite or -inf")


@dataclass(frozen=True)
class WeightedModel:
    n: int
    factors: tuple[Factor, ...]
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        if self.n < 0:
            raise StructuralError("negative variable count")
        for f in self.factors:
            if any(v < 0 or v >= self.n for v in f.scope):
                raise StructuralError(f"scope {f.scope} outside {self.n} variables")

    @cached_property
    def compiled(self) -> "CompiledModel":
        return CompiledModel(self)


class CompiledModel:
    """The evaluation structure of a model; see the module docstring.

    groups[v] holds the (scope, table) pairs of the factors whose highest
    variable is v: they are scored the moment v is assigned.  bound_tail[v]
    sums the per-factor maxima of groups v..n-1, and reach[v] is the lowest
    scope variable of groups v..n-1 (v if none is lower).  `completed` and
    `log_weight` evaluate at given bitmasks; `blocks` yields the whole table;
    `windows` gives every group a lookup with
    table[(x >> lo) & mask] == completed(v, x), and `branch_tables` adds the
    cost-to-go bound read at the same key, both built on first use.
    """

    def __init__(self, model: WeightedModel):
        n = model.n
        groups: list[list[tuple[tuple[int, ...], np.ndarray]]] = [[] for _ in range(n)]
        const = 0.0
        for f in model.factors:
            if f.scope:
                groups[max(f.scope)].append((f.scope, f.log_table))
            else:
                const += float(f.log_table[0])
        bound_tail = [0.0] * (n + 1)
        reach = [n] * (n + 1)
        for v in range(n - 1, -1, -1):
            bound_tail[v] = bound_tail[v + 1] + sum(float(np.max(t)) for _, t in groups[v])
            reach[v] = min([v, reach[v + 1]] + [min(scope) for scope, _ in groups[v]])
        self.n = n
        self.const = const
        self.groups = tuple(tuple(g) for g in groups)
        self.bound_tail = tuple(bound_tail)
        self.reach = tuple(reach)

    def completed(self, v: int, x):
        """Summed entries at x of the factors in groups[v].

        x is one bitmask (an int) or an int64 array of bitmasks; only its
        bits 0..v are read.
        """
        total = 0.0
        for scope, table in self.groups[v]:
            idx = 0
            for u in scope:
                idx = (idx << 1) | ((x >> u) & 1)
            total = total + table[idx]
        return total

    def log_weight(self, x):
        """log w at x, a bitmask or an int64 array of bitmasks."""
        total = np.full(np.shape(x), self.const)
        for v in range(self.n):
            total += self.completed(v, x)
        return total

    @cached_property
    def windows(self) -> tuple[tuple[int, int, object], ...]:
        """Per group v, (lo, mask, table) with table[(x >> lo) & mask] == completed(v, x).

        lo is the lowest scope variable of the group (v for an empty group),
        lowered to reach[v + 1] when that frontier of `branch_tables` is
        tabled, so one key reads both tables.  The table is a float64
        `memoryview` over the w = v - lo + 1 window bits, in bitmask order.
        It is the group's factors framed on the window's axes and added from
        0.0 in factor order, the additions of `completed`, so every entry
        equals it bit for bit.  A group whose table would exceed
        WINDOW_ENTRIES, or the WINDOW_BUDGET left by groups 0..v-1, gets
        (0, -1, a view that calls `completed`) instead.
        """
        windows = []
        budget = WINDOW_BUDGET
        for v, group in enumerate(self.groups):
            lo = min((min(scope) for scope, _ in group), default=v)
            if v + 1 - self.reach[v + 1] <= FRONTIER_BITS:
                lo = min(lo, self.reach[v + 1])
            size = 1 << (v - lo + 1)
            if size > min(WINDOW_ENTRIES, budget):
                windows.append((0, -1, _Completed(self, v)))
                continue
            budget -= size
            total = np.zeros((2,) * (v - lo + 1))
            for scope, table in group:
                np.add(total, _frame(scope, table, v, lo), out=total)
            windows.append((lo, size - 1, memoryview(total.reshape(-1))))
        return tuple(windows)

    @cached_property
    def branch_tables(self) -> tuple[tuple[int, int, object, object], ...]:
        """Per group v, (lo, mask, score, bound): the window of `windows` and B_v.

        The search sets variable v of a child x and reads both tables at the
        one key k = (x >> lo) & mask: score[k] is completed(v, x) and bound[k]
        bounds the float sums of groups v+1..n-1 over every completion of x
        that the search can form.

        reach[k] is the lowest scope variable of any group >= k (k if none is
        lower).  H[k] is a table over the frontier bits reach[k]..k-1, in
        bitmask order: H[n] = 0, and H[k](f) = max over x_k of
        window_k + H[k+1], filled backward by broadcasting for as long as
        frontiers span at most FRONTIER_BITS bits and windows are tabled.
        B_v repeats H[v+1] + mu over window v's bits below reach[v + 1].
        Where H[v+1] was not built, or H[v+1] + mu is nowhere below
        bound_tail[v+1] (as on cliques, whose factors are <= 0 with 0 at the
        all-zero entry), B_v is the constant bound_tail[v+1], the bound of
        the plain search.

        Admissibility under rounding.  The search scores a leaf as the
        left-to-right float sum of const and one window entry per group; as
        rounding is monotone, H[v+1](f) is at least the right-to-left float
        sum of the entries of any completion.  Recursive summation of m terms
        errs by at most gamma_{m-1} times the sum of their magnitudes
        (Higham, Accuracy and Stability of Numerical Algorithms, 2002, 4.2),
        gamma_m = m u / (1 - m u), u = 2^-53, and the two roundings of
        g + (H + mu) by u times their results.  Every magnitude involved is at
        most G (1 + gamma_n), G = |const| + the sum over groups of the largest
        finite |entry| of its window, so the leaf exceeds g + (H + mu) by at
        most (2 gamma_n + gamma_n^2 + 3u (1 + gamma_n)) G + 3u mu, which
        mu = gamma_{2n+4} G covers with about u G to spare, enough for the
        roundings in computing mu itself.  An untabled group counts twice the
        sum of its factors' largest finite |entry|.  -inf entries of H stay
        -inf: every completion through them scores -inf.
        """
        n, reach, windows, tail = self.n, self.reach, self.windows, self.bound_tail
        heights: list[np.ndarray | None] = [None] * (n + 1)
        heights[n] = np.zeros(1)
        for k in range(n - 1, -1, -1):
            lo, _, score = windows[k]
            if not isinstance(score, memoryview) or k - reach[k] > FRONTIER_BITS:
                break
            width, below = k - reach[k] + 1, reach[k + 1] - reach[k]
            window = np.asarray(score).reshape((2,) * (k - lo + 1) + (1,) * (lo - reach[k]))
            after = heights[k + 1].reshape((2,) * (width - below) + (1,) * below)
            heights[k] = (window + after).max(axis=0).reshape(-1)

        largest = [abs(self.const)]
        for (_, _, score), group in zip(windows, self.groups):
            if isinstance(score, memoryview):
                magnitude = np.abs(np.asarray(score))
                largest.append(float(magnitude[np.isfinite(magnitude)].max(initial=0.0)))
            else:
                largest.extend(2.0 * float(np.abs(t[np.isfinite(t)]).max(initial=0.0)) for _, t in group)
        m = 2 * n + 4
        mu = m * _UNIT_ROUNDOFF / (1.0 - m * _UNIT_ROUNDOFF) * math.fsum(largest)

        tables = []
        for v, (lo, mask, score) in enumerate(windows):
            if not isinstance(score, memoryview):
                tables.append((lo, mask, score, _Uniform(tail[v + 1])))
                continue
            bound = memoryview(np.broadcast_to(np.float64(tail[v + 1]), (mask + 1,)))
            height = heights[v + 1]
            if height is not None and reach[v + 1] >= lo:
                inflated = height + mu  # -inf + mu stays -inf
                if np.any(inflated < tail[v + 1]):
                    bound = memoryview(np.repeat(inflated, 1 << (reach[v + 1] - lo)))
            tables.append((lo, mask, score, bound))
        return tuple(tables)

    def blocks(self, bits: int, out: np.ndarray | None = None):
        """Yield log w of all 2^n assignments in bitmask order, 2^b at a time.

        b = min(n, bits).  Each factor table becomes an array with one axis
        per variable v..0 (highest first): length 2 on its scope, 1 elsewhere,
        so adding it broadcasts over the variables it does not read.  The
        prefix table over variables 0..b-1 lives in one 2^b buffer and doubles
        by one variable per group v: the x_v = 1 half is written first as the
        old half plus group v's sum at x_v = 1, then the sum at x_v = 0 is
        added into the old half in place.  Each block then fixes the high bits
        h, indexes the axes of variables >= b with them, and adds groups
        b..n-1 into its destination.  Group sums run from 0.0 in factor order
        through the two rows of one scratch array in turn.  The additions are
        those of `log_weight`, in its order, so every block equals
        `log_weights_at` over its bitmasks bit for bit.

        With `out` (length 2^n) every block is written into its slice of
        `out` and the slice is yielded.  Without it the blocks share one
        buffer: a yielded block is valid only until the next iteration.
        """
        n, b = self.n, min(self.n, bits)
        frames = [[_frame(scope, table, v) for scope, table in group]
                  for v, group in enumerate(self.groups)]
        scratch = np.empty((2, 1 << b))  # two rows, so they never overlap
        low = out if out is not None and b == n else np.empty(1 << b)
        low[0] = self.const
        for v in range(b):
            total = _group_sum(frames[v], (2,) + (1,) * v, scratch)
            old = low[: 1 << v].reshape((2,) * v)
            np.add(old, total[1], out=low[1 << v : 2 << v].reshape((2,) * v))
            np.add(old, total[0], out=old)
        if b == n:
            yield low
            return
        axes = (2,) * b
        reused = np.empty(1 << b) if out is None else None
        for h in range(1 << (n - b)):
            dst = reused if out is None else out[h << b : (h + 1) << b]
            src = low
            for v in range(b, n):
                terms = []
                for t in frames[v]:  # a length-1 axis masks its bit of h to index 0
                    high = tuple((h >> (v - b - j)) & (t.shape[j] - 1) for j in range(v - b + 1))
                    terms.append(t[high])
                np.add(src.reshape(axes), _group_sum(terms, (1,) * b, scratch), out=dst.reshape(axes))
                src = dst
            yield dst


def _group_sum(terms, shape: tuple[int, ...], scratch) -> np.ndarray:
    """0.0 plus each term in order, written into the two scratch rows in turn.

    All shapes have one axis per variable, of length 1 or 2.  The running
    sum starts as zeros of `shape` in scratch[0] and broadcasts to the union
    of the shapes so far; step k writes scratch[k % 2], so each step reads
    one row and writes the other.
    """
    total = scratch[0][: math.prod(shape)].reshape(shape)
    total.fill(0.0)
    for k, t in enumerate(terms, start=1):
        shape = tuple(map(max, shape, t.shape))
        total = np.add(total, t, out=scratch[k & 1][: math.prod(shape)].reshape(shape))
    return total


_UNIT_ROUNDOFF = 2.0**-53


class _Uniform:
    """A constant behind the indexing of a bound table, for any key."""

    def __init__(self, value: float):
        self.value = value

    def __getitem__(self, x: int) -> float:
        return self.value


class _Completed:
    """`completed(v, ·)` behind the indexing of a window table.

    The factor tables are held as lists of Python floats, so each entry is
    added as a float rather than a numpy scalar: the same IEEE additions in
    the same order, at a fraction of the cost.
    """

    def __init__(self, compiled: CompiledModel, v: int):
        self.group = tuple((scope, table.tolist()) for scope, table in compiled.groups[v])

    def __getitem__(self, x: int) -> float:
        total = 0.0
        for scope, table in self.group:
            idx = 0
            for u in scope:
                idx = (idx << 1) | ((x >> u) & 1)
            total += table[idx]
        return total


def _frame(scope: tuple[int, ...], table: np.ndarray, v: int, lo: int = 0) -> np.ndarray:
    """The table on axes for variables v..lo: length 2 on the scope, 1 elsewhere."""
    order = sorted(range(len(scope)), key=lambda i: -scope[i])
    shape = [1] * (v - lo + 1)
    for u in scope:
        shape[v - u] = 2
    return table.reshape((2,) * len(scope)).transpose(order).reshape(shape)


@dataclass(frozen=True)
class QuantileCurve:
    """Non-increasing log-weights b_0 >= b_1 >= ... >= b_n.

    When derived from a model, b_i is the log-weight of the 2^i-th largest
    assignment (1-based rank).
    """

    n: int
    log_values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.log_values, dtype=float)
        object.__setattr__(self, "log_values", vals)
        if vals.shape != (self.n + 1,):
            raise StructuralError(f"curve over n={self.n} needs {self.n + 1} values, got {vals.shape}")
        if np.any(np.isnan(vals)):
            raise StructuralError("curve values must not be NaN")
        if np.any(vals[:-1] < vals[1:]):
            raise StructuralError("curve values must be non-increasing")

    def __getitem__(self, i: int) -> float:
        return float(self.log_values[i])


def _as_mask(assignment, n: int) -> int:
    if isinstance(assignment, (int, np.integer)):
        mask = int(assignment)
        if mask < 0 or mask >> n:
            raise StructuralError(f"assignment mask outside {n} variables")
        return mask
    bits = list(assignment)
    if len(bits) != n:
        raise StructuralError(f"assignment length {len(bits)} != n={n}")
    mask = 0
    for i, b in enumerate(bits):
        if b not in (0, 1):
            raise StructuralError(f"assignment bit {i} must be 0 or 1")
        mask |= int(b) << i
    return mask


def log_weight(model: WeightedModel, assignment) -> float:
    """log w(x); -inf when any factor vanishes."""
    return float(model.compiled.log_weight(_as_mask(assignment, model.n)))


def log_weights_at(model: WeightedModel, indices: np.ndarray) -> np.ndarray:
    """Vectorised log w over an array of assignment bitmasks."""
    return model.compiled.log_weight(np.asarray(indices, dtype=np.int64))


def _enumerable(model: WeightedModel) -> CompiledModel:
    if model.n > ENUMERATION_LIMIT:
        raise TooLarge(f"n={model.n} exceeds enumeration limit {ENUMERATION_LIMIT}")
    return model.compiled


def log_weight_table(model: WeightedModel) -> np.ndarray:
    """All 2^n log-weights, indexed by assignment bitmask (n <= 24)."""
    table = np.empty(1 << model.n)
    for _ in _enumerable(model).blocks(BLOCK_BITS, out=table):
        pass
    return table


def exact_log_partition(model: WeightedModel) -> float:
    """log sum_x w(x) by enumeration: one log-sum-exp per block, then one over those."""
    return log_sum_exp([log_sum_exp(block) for block in _enumerable(model).blocks(BLOCK_BITS)])


def exact_quantiles(model: WeightedModel) -> QuantileCurve:
    """The 2^i-th largest log-weight for i = 0..n (n <= 24)."""
    table = log_weight_table(model)
    table.sort()  # ascending: the 2^i-th largest sits at 2^n - 2^i
    return QuantileCurve(model.n, table[(1 << model.n) - (1 << np.arange(model.n + 1))])


# ---------------------------------------------------------------------------
# UAI text format


def _tokens(text: str):
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0]
        for tok in body.split():
            yield tok, lineno


class _TokenReader:
    def __init__(self, text: str):
        self._gen = _tokens(text)
        self.line = 0

    def next(self, what: str) -> str:
        try:
            tok, self.line = next(self._gen)
        except StopIteration:
            raise ParseError(f"unexpected end of file while reading {what}", self.line) from None
        return tok

    def next_int(self, what: str, minimum: int | None = None) -> int:
        tok = self.next(what)
        try:
            value = int(tok)
        except ValueError:
            raise ParseError(f"expected integer for {what}, got {tok!r}", self.line) from None
        if minimum is not None and value < minimum:
            raise ParseError(f"{what} must be >= {minimum}, got {value}", self.line)
        return value

    def next_float(self, what: str) -> float:
        tok = self.next(what)
        try:
            return float(tok)
        except ValueError:
            raise ParseError(f"expected number for {what}, got {tok!r}", self.line) from None

    def expect_end(self):
        try:
            tok, line = next(self._gen)
        except StopIteration:
            return
        raise ParseError(f"unexpected trailing token {tok!r}", line)


def parse_uai(text: str, name: str = "uai") -> WeightedModel:
    """Parse UAI MARKOV/BAYES text into a model (binary variables only).

    Tables are converted to the log domain; both headers are treated as plain
    factor products since only the total weight is of interest here.
    """
    rd = _TokenReader(text)
    header = rd.next("header").upper()
    if header not in ("MARKOV", "BAYES"):
        raise ParseError(f"unknown header {header!r}, expected MARKOV or BAYES", rd.line)
    n = rd.next_int("variable count", minimum=0)
    for v in range(n):
        card = rd.next_int(f"cardinality of variable {v}")
        if card != 2:
            raise UnsupportedCardinality(
                f"variable {v} has cardinality {card}; only binary variables are supported",
                rd.line,
            )
    n_factors = rd.next_int("factor count", minimum=0)
    scopes: list[tuple[int, ...]] = []
    for k in range(n_factors):
        size = rd.next_int(f"scope size of factor {k}", minimum=0)
        scope = tuple(rd.next_int(f"scope variable of factor {k}") for _ in range(size))
        for v in scope:
            if v < 0 or v >= n:
                raise ParseError(f"factor {k} references variable {v} outside 0..{n - 1}", rd.line)
        if len(set(scope)) != len(scope):
            raise ParseError(f"factor {k} repeats a variable in its scope", rd.line)
        scopes.append(scope)
    factors = []
    for k, scope in enumerate(scopes):
        size = rd.next_int(f"table size of factor {k}", minimum=0)
        if size != 1 << len(scope):
            raise ParseError(
                f"factor {k} table size {size} != 2^{len(scope)}", rd.line
            )
        entries = np.empty(size, dtype=float)
        for j in range(size):
            val = rd.next_float(f"table entry of factor {k}")
            if val < 0:
                raise ParseError(f"factor {k} entry {j} is negative ({val})", rd.line)
            entries[j] = math.log(val) if val > 0 else NEG_INF
        factors.append(Factor(scope, entries))
    rd.expect_end()
    return WeightedModel(n, tuple(factors), name=name)


def serialize_uai(model: WeightedModel) -> str:
    """Model back to UAI MARKOV text; 17 significant digits round-trip exactly."""
    lines = ["MARKOV", str(model.n), " ".join(["2"] * model.n), str(len(model.factors))]
    for f in model.factors:
        lines.append(" ".join([str(len(f.scope))] + [str(v) for v in f.scope]))
    lines.append("")
    for f in model.factors:
        lines.append(str(f.log_table.size))
        lines.append(" ".join(f"{math.exp(x):.17g}" if x > NEG_INF else "0" for x in f.log_table))
        lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Experiment-style instance generators.  Deterministic under (params, seed):
# draws happen in a fixed documented order from one PCG64 stream.


def _check_coupling(coupling_w: float) -> None:
    if not 0.0 <= coupling_w < math.inf:  # NaN fails every comparison
        raise StructuralError("coupling w must be finite and >= 0")


def gen_clique_ising(n: int, coupling_w: float = 0.1, seed: int = 0) -> WeightedModel:
    """Fully connected Ising model over x in {0,1}^n.

    log w(x) = -sum_{i<j} w_ij x_i x_j with w_ij drawn uniformly from
    [0, coupling_w * sqrt(j - i)].  Two closed chains over floor(0.3 n)
    randomly chosen vertices each overlay extra repulsive strengths drawn from
    [0, 100 * coupling_w]; chain strengths add to the base couplings.

    Draw order: base couplings in (i, j) lexicographic order, then per chain
    its vertex tour, then its edge strengths.
    """
    if n < 4:
        raise InvalidSize(f"clique model needs n >= 4, got {n}")
    _check_coupling(coupling_w)
    rng = np.random.default_rng(seed)
    coupling = {}
    for i in range(n):
        for j in range(i + 1, n):
            coupling[(i, j)] = rng.uniform(0.0, coupling_w * math.sqrt(j - i))
    chain_len = int(0.3 * n)
    for _ in range(2):
        if chain_len < 2:
            break
        tour = rng.permutation(n)[:chain_len]
        strengths = rng.uniform(0.0, 100.0 * coupling_w, size=chain_len)
        for k in range(chain_len):
            a, b = int(tour[k]), int(tour[(k + 1) % chain_len])
            # chain of length 2 closes onto a single doubled edge
            key = (min(a, b), max(a, b))
            coupling[key] += strengths[k]
    factors = []
    for (i, j), w_ij in sorted(coupling.items()):
        table = np.array([0.0, 0.0, 0.0, -w_ij])
        factors.append(Factor((i, j), table))
    return WeightedModel(n, tuple(factors), name=f"clique-n{n}-w{coupling_w}-s{seed}")


def gen_grid_ising(rows: int, cols: int, coupling_w: float, seed: int = 0) -> WeightedModel:
    """Grid Ising model over spins s in {-1,+1} stored as bits (0 -> -1).

    log w(s) = sum_i f_i s_i + sum_{(i,j) in grid} w_ij s_i s_j with fields
    f_i ~ U[-0.1, 0.1] and couplings w_ij ~ U[-w, w].  A rectangle of
    ceil(rows/2) x ceil(cols/2) cells at a seed-determined position has its
    couplings amplified by 10 (an edge counts as inside when both endpoints
    are).

    Draw order: fields in row-major order, then couplings (right edge then
    down edge per cell, row-major), then the rectangle corner.
    """
    if rows < 2 or cols < 2:
        raise InvalidSize(f"grid must be at least 2x2, got {rows}x{cols}")
    _check_coupling(coupling_w)
    rng = np.random.default_rng(seed)
    n = rows * cols
    var = lambda r, c: r * cols + c
    fields = rng.uniform(-0.1, 0.1, size=n)
    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append(((r, c), (r, c + 1), rng.uniform(-coupling_w, coupling_w)))
            if r + 1 < rows:
                edges.append(((r, c), (r + 1, c), rng.uniform(-coupling_w, coupling_w)))
    box_r, box_c = math.ceil(rows / 2), math.ceil(cols / 2)
    r0 = int(rng.integers(0, rows - box_r + 1))
    c0 = int(rng.integers(0, cols - box_c + 1))
    inside = lambda rc: r0 <= rc[0] < r0 + box_r and c0 <= rc[1] < c0 + box_c

    factors = []
    for i in range(n):
        f_i = float(fields[i])
        factors.append(Factor((i,), np.array([-f_i, +f_i])))
    for a, b, w_ab in edges:
        w_ab = float(w_ab) * (10.0 if inside(a) and inside(b) else 1.0)
        i, j = var(*a), var(*b)
        # s_i * s_j = +1 when the stored bits agree
        table = np.array([+w_ab, -w_ab, -w_ab, +w_ab])
        factors.append(Factor((i, j), table))
    return WeightedModel(
        n, tuple(factors), name=f"grid-{rows}x{cols}-w{coupling_w}-s{seed}"
    )
