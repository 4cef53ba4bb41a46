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
- `CompiledModel.windows` holds one lookup table per group v over the bit
  window lo_v..v that its factors read (lo_v the lowest scope variable in
  the group, or lower, down to the frontier of the cost-to-go table after
  v).  It is built on first use by doubling: each factor is added over
  the bits read so far, on one axis per run of bits that the running sum
  and the factor read alike, so a step is one numpy call however wide the
  window, and the last step writes the window itself.  A pair whose lower
  variable is new and above the others read so far, as in every group of
  the generators, takes its axes from the sizes alone.  Each
  entry equals `completed(v, x)` bit for bit at every x in its window, so
  the search scores a node with one shift, one mask and one index.  A
  group whose table would pass WINDOW_ENTRIES (2^16) or the model's
  WINDOW_BUDGET (2^20 entries, 8 MB) scores through `completed` in its
  place.  Each group is summed once per model, and its table serves both
  evaluators below;
- `CompiledModel.blocks`, behind the enumeration helpers
  (`exact_quantiles`, `log_weight_table`, `enumerated_log_partition`,
  n <= 24), builds the table of all 2^n log-weights in place: a prefix
  table over the low variables doubles by one variable per group in one
  buffer, adding the group's window table where it has one, and each block
  fixes the high variables and adds each of their groups straight into its
  destination, a slice of the caller's table or one reused buffer, so a
  yielded block is valid only until the next one is drawn.  A tabled group
  adds the one row of its window table that the block's high bits select.
  Nothing is allocated per step.  `enumerated_log_partition` reduces block
  by block in a fixed order, so its result is bit-reproducible; up to
  BLOCK_BITS (18) variables, where every group past the prefix is tabled,
  its blocks are 2^PREFIX_BITS entries over the kept `prefix`, so it
  builds no 2^n table.  `exact_quantiles` selects b_n .. b_0 from the
  table in place by halving selection, each partition on the upper half
  the last one left, with no sort and no copy;
- `CompiledModel.eliminate` is the one backward recursion over the window
  tables (bucket elimination, Dechter, AIJ 1999), on frontiers of up to
  FRONTIER_BITS bits.  Reduced by log-sum-exp it gives log Z exactly, up
  to a stated rounding bound, at O(n 2^w) cost for a widest frontier of w
  bits (`CompiledModel.log_partition`), so `exact_log_partition` reaches
  grids far past n = 24.  It enumerates where the recursion would reduce
  no fewer entries than the 2^n it replaces (a clique's frontier spans
  every earlier variable, so every clique) or stops: at a frontier past
  FRONTIER_BITS or an untabled window (models past WINDOW_BUDGET);
- `CompiledModel.coset_weights` weighs every point of a batch of parity
  cosets at once, for the XOR oracle's sweep of its deepest indices.  It
  reads `CompiledModel.prefix`, a table of const plus groups 0..P-1 over
  the low P = min(n, PREFIX_BITS) variables, built on first use by the
  doubling of `blocks` and kept with the model, then the windows of
  groups P..n-1, and an untabled group's factors, all at keys spanned
  over each coset (`gf2.span`), so no n-bit integer is formed per point
  and a point of a model of at most PREFIX_BITS (13) variables costs one
  lookup.  The key map is built once per model with the prefix.  Only
  the prefix is merged: it is the running sum's own first P additions,
  while a merged sum of later groups would reorder them;
- branch-and-bound MAP reads the windows through
  `CompiledModel.branch_tables`, which pairs each window with a cost-to-go
  table read at the same key: a bound on the groups after v that no leaf
  exceeds, rounding included, from the recursion reduced by max
  (bucket elimination used as a search heuristic, Kask & Dechter, AIJ
  2001), built on the first solve.  A pair of tables of at most
  2^FRONTIER_BITS (4,096) entries is held as Python lists, so a lookup
  returns a float the list already holds; a wider pair stays a pair of
  memoryviews, each lookup of which builds a float, because converting
  it would cost more per model than its lookups save (a clique of 16
  variables has windows of up to 2^16 entries).  Every table of a grid
  at paper scale fits under the cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import gf2
from .errors import InvalidSize, ParseError, StructuralError, TooLarge, UnsupportedCardinality
from .gf2 import as_mask
from .logspace import LN2, NEG_INF, log_sum_exp

ENUMERATION_LIMIT = 24
BLOCK_BITS = 18  # enumeration blocks hold 2^18 assignments
WINDOW_ENTRIES = 1 << 16  # largest window table of one group
WINDOW_BUDGET = 1 << 20  # window-table entries per model (8 MB)
FRONTIER_BITS = 12  # widest frontier of a cost-to-go table
PREFIX_BITS = 13  # variables of the prefix table that `coset_weights` reads


@dataclass(frozen=True)
class Factor:
    scope: tuple[int, ...]
    log_table: np.ndarray  # flat, length 2^len(scope), last scope var fastest

    def __post_init__(self):
        scope = tuple(map(int, self.scope))
        table = np.asarray(self.log_table, dtype=float)
        object.__setattr__(self, "scope", scope)
        object.__setattr__(self, "log_table", table)
        if len(set(scope)) != len(scope):
            raise StructuralError(f"duplicate variable in scope {scope}")
        if table.ndim != 1 or table.size != 1 << len(scope):
            raise StructuralError(f"table size {table.size} does not match scope arity {len(scope)}")
        # a float sum below +inf rules NaN and +inf out; only one that overflows needs the max
        if not (sum(table.tolist()) < np.inf or table.max() < np.inf):
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
            if f.scope and not (0 <= min(f.scope) and max(f.scope) < self.n):
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
    `log_weight` evaluate at given bitmasks; `windows` gives every group a
    lookup with table[(x >> lo) & mask] == completed(v, x), and
    `branch_tables` adds the cost-to-go bound read at the same key, both
    built on first use; `eliminate` runs the backward recursion over the
    windows that both `branch_tables` (by max) and `log_partition` (by
    log-sum-exp) read; `blocks` yields the whole table, doubling a prefix
    table over its low variables from the windows of its prefix groups
    (`_prefix_table`); `prefix` is that table over the low
    min(n, PREFIX_BITS) variables, built on first use and kept, and
    `coset_weights` weighs every point of a batch of cosets with one lookup
    in it plus one per later window.
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
        for v in range(n - 1, -1, -1):  # a table holds no NaN, so max over its floats is np.max
            bound_tail[v] = bound_tail[v + 1] + sum(max(t.tolist()) for _, t in groups[v])
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
        It is `_group_sum` of the group's factors, from 0.0 in factor order,
        its last step spread straight over the window.  Those are the
        additions of `completed`, so every entry equals it bit for bit.  A
        group whose table would exceed WINDOW_ENTRIES, or the WINDOW_BUDGET
        left by groups 0..v-1, gets (0, -1, a view that calls `completed`).
        """
        windows = []
        budget = WINDOW_BUDGET
        scratch = np.empty((2, WINDOW_ENTRIES))
        for v, group in enumerate(self.groups):
            lo = min((min(scope) for scope, _ in group), default=v)
            if v + 1 - self.reach[v + 1] <= FRONTIER_BITS:
                lo = min(lo, self.reach[v + 1])
            size = 1 << (v - lo + 1)
            if size > min(WINDOW_ENTRIES, budget):
                windows.append((0, -1, _Completed(self, v)))
                continue
            budget -= size
            table = np.empty(size) if group else np.zeros(size)  # the last step writes every entry
            terms = [_term(scope, t) for scope, t in group]
            _group_sum(terms, 1 << v, scratch, table, (2 << v) - (1 << lo))
            windows.append((lo, size - 1, memoryview(table)))
        return tuple(windows)

    def eliminate(self, op: np.ufunc) -> list[np.ndarray | None]:
        """H[n] .. H[0], the backward recursion over the window tables, reduced by the ufunc `op`.

        reach[k] is the lowest scope variable of any group >= k (k if none is
        lower).  H[k] is a table over the frontier bits reach[k]..k-1, in
        bitmask order: H[n] = 0, and H[k](f) = op over x_k of
        window_k + H[k+1], by broadcasting, for as long as frontiers span at
        most FRONTIER_BITS bits and windows are tabled (bucket elimination,
        Dechter, AIJ 1999).  The H[k] past the first group that fails are
        None.  Reduced by np.maximum, H[k] is the best score of groups
        k..n-1 over the completions of each frontier (`branch_tables`); by
        np.logaddexp, the log of their summed weight (`log_partition`).
        """
        n, reach, windows = self.n, self.reach, self.windows
        heights: list[np.ndarray | None] = [None] * (n + 1)
        heights[n] = np.zeros(1)
        for k in range(n - 1, -1, -1):
            lo, _, score = windows[k]
            if not isinstance(score, memoryview) or k - reach[k] > FRONTIER_BITS:
                break
            width, below = k - reach[k] + 1, reach[k + 1] - reach[k]
            window = np.asarray(score).reshape((2,) * (k - lo + 1) + (1,) * (lo - reach[k]))
            after = heights[k + 1].reshape((2,) * (width - below) + (1,) * below)
            heights[k] = op.reduce(window + after, axis=0).reshape(-1)
        return heights

    @cached_property
    def magnitude(self) -> float:
        """G, the rounding scale of `branch_tables` and `log_partition`.

        |const| (left out when -inf) plus, per group, the largest finite
        |entry| of its window table, or, for an untabled group, twice the
        sum of its factors' largest finite |entry|.
        """
        largest = [abs(self.const)] if self.const > NEG_INF else []
        for (_, _, score), group in zip(self.windows, self.groups):
            if isinstance(score, memoryview):
                entries = np.abs(np.asarray(score))
                largest.append(float(entries[np.isfinite(entries)].max(initial=0.0)))
            else:
                largest.extend(2.0 * float(np.abs(t[np.isfinite(t)]).max(initial=0.0)) for _, t in group)
        return math.fsum(largest)

    def log_partition(self) -> tuple[float, float] | None:
        """(log Z, its rounding bound B) by `eliminate` under np.logaddexp; None where it stops short.

        log Z is const + H[0].  The reference is the exact log-sum-exp of
        const plus the window entries of each assignment, which equal the
        evaluators' group sums bit for bit.  Let S = G + n ln 2, G as in
        `magnitude`.  A finite entry of H[k] is the log of a sum of at most
        2^(n-k) terms exp(s), |s| <= G, so it and every sum window + H[k+1]
        lie within S to first order in u = 2^-53.  A step rounds that sum (by
        u S) and calls numpy's logaddexp(x, y) = max + log1p(exp(-|x - y|)):
        the subtraction errs by u |x - y| <= 2 u S, which the term's slope,
        at most 1/2, turns into u S; exp and log1p (within an ulp in glibc)
        of values in [0, 1] add at most 2u; the last addition errs by u S.
        Log-sum-exp and addition pass earlier errors on without growth (both
        are 1-Lipschitz in the max norm), and adding const costs u S more, so
        the result errs by at most (3n + 1) u S + 2n u, which
        B = gamma_{4n+2} (S + 1), gamma_m = m u / (1 - m u), covers with
        (n + 1) u (S + 1) to spare for second-order terms.  -inf entries stay
        -inf exactly.
        """
        heights = self.eliminate(np.logaddexp)
        if heights[0] is None:
            return None
        n = self.n
        return self.const + float(heights[0][0]), _gamma(4 * n + 2) * (self.magnitude + n * LN2 + 1.0)

    @cached_property
    def branch_tables(self) -> tuple[tuple[int, int, object, object], ...]:
        """Per group v, (lo, mask, score, bound): the window of `windows` and B_v.

        The search sets variable v of a child x and reads both tables at the
        one key k = (x >> lo) & mask: score[k] is completed(v, x) and bound[k]
        bounds the float sums of groups v+1..n-1 over every completion of x
        that the search can form.  A pair of at most 2^FRONTIER_BITS entries
        is held as two lists of Python floats, which a lookup hands back as
        they are; a wider pair stays a pair of memoryviews over float64
        arrays, which build a new float on every lookup but cost nothing to
        convert.  Both hold the same values, so the search's sums, nodes and
        order are the same either way.

        H is `eliminate` reduced by max: H[k](f) is the best float sum of
        groups k..n-1 over the completions of frontier f, where it was built.
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
        most G (1 + gamma_n), G as in `magnitude`, so the leaf exceeds
        g + (H + mu) by at most (2 gamma_n + gamma_n^2 + 3u (1 + gamma_n)) G
        + 3u mu, which mu = gamma_{2n+4} G covers with about u G to spare,
        enough for the roundings in computing mu itself.  -inf entries of H
        stay -inf: every completion through them scores -inf.  A const of
        -inf, left out of G, makes every leaf score -inf, and any bound is
        then admissible.
        """
        n, reach, windows, tail = self.n, self.reach, self.windows, self.bound_tail
        heights = self.eliminate(np.maximum)
        # H[n] + mu = mu never falls below bound_tail[n] = 0: only an H[k < n] needs mu
        mu = _gamma(2 * n + 4) * self.magnitude if n and heights[n - 1] is not None else 0.0

        tables = []
        for v, (lo, mask, score) in enumerate(windows):
            if not isinstance(score, memoryview):
                tables.append((lo, mask, score, _Uniform(tail[v + 1])))
                continue
            bound = None
            height = heights[v + 1]
            if height is not None and reach[v + 1] >= lo:
                inflated = height + mu  # -inf + mu stays -inf
                if (inflated < tail[v + 1]).any():
                    bound = np.repeat(inflated, 1 << (reach[v + 1] - lo))
            if mask < 1 << FRONTIER_BITS:  # a list hands back the floats it holds
                bound = [tail[v + 1]] * (mask + 1) if bound is None else bound.tolist()
                tables.append((lo, mask, score.tolist(), bound))
            else:  # a memoryview builds a float per lookup, but costs no conversion
                bound = np.broadcast_to(tail[v + 1], mask + 1) if bound is None else bound
                tables.append((lo, mask, score, memoryview(bound)))
        return tuple(tables)

    @cached_property
    def prefix(self) -> np.ndarray:
        """const plus groups 0..P-1 at every assignment of variables 0..P-1, P = min(n, PREFIX_BITS).

        A float64 table in bitmask order, built on first use by
        `_prefix_table`, the doubling that `blocks` runs, and kept with the
        model: 2^13 entries (64 KB) at most.  It is read-only, since `blocks`
        yields it and `coset_weights` reads it for every later batch.
        """
        table = self._prefix_table(min(self.n, PREFIX_BITS))
        table.flags.writeable = False
        return table

    @cached_property
    def descending(self) -> np.ndarray:
        """The indices of `prefix` by descending entry, equal entries in any order.

        Built on first use and kept with the model, as `prefix` is: 2^13
        entries at most.  At n <= PREFIX_BITS the prefix is the whole weight
        table, so the order starts at the model's heaviest assignments, which
        the XOR oracle's scan weighs (`oracle.XorOracle`).  The scan takes
        maxima of the weights it reads and caps with the next one, so any
        descending order proves the same; an unstable sort is the cheaper.
        It is read-only.
        """
        order = np.argsort(-self.prefix)
        order.flags.writeable = False
        return order

    @cached_property
    def _coset_keys(self) -> tuple[np.ndarray, list, np.dtype]:
        """(weigh, tables, dtype): the key map of `coset_weights`, built once per model with `prefix`.

        tables holds `prefix`, then per group v >= P its window table, or,
        for an untabled group, the list of its factors' tables.  Key c, the
        index into the c-th of those tables, is the sum over the variables
        it reads of bit u at its place value, weigh[u, c]; dtype is the
        smallest unsigned type that holds every key.
        """
        p = min(self.n, PREFIX_BITS)
        scopes, tables = [range(p - 1, -1, -1)], [self.prefix]
        for v in range(p, self.n):
            lo, mask, table = self.windows[v]
            if isinstance(table, memoryview):  # bits lo.., lowest first
                scopes.append(range(lo + mask.bit_length() - 1, lo - 1, -1))
                tables.append(np.asarray(table))
            else:  # a factor's scope, its first variable most significant
                scopes.extend(scope for scope, _ in self.groups[v])
                tables.append([factor for _, factor in self.groups[v]])
        variables, columns, places = [], [], []
        for c, scope in enumerate(scopes):
            variables += scope
            columns += [c] * len(scope)
            places += [1 << j for j in range(len(scope) - 1, -1, -1)]
        weigh = np.zeros((self.n, len(scopes)), np.int32)
        weigh[variables, columns] = places
        top = max(len(scope) for scope in scopes)
        return weigh, tables, np.min_scalar_type((1 << top) - 1)

    def coset_weights(self, bits: np.ndarray) -> np.ndarray:
        """log w at every point of each coset: (2^k, count) from the point columns of `gf2.basis_bits`, (count, k + 1, n).

        The key into `prefix` (a point's low P bits), each later group's
        window key, and for an untabled group each factor's table index, is
        XOR-linear in x: its value at x0 and at each null vector is a row of
        one integer matrix product, and `gf2.span` lists it at every point.
        Each weight is then the prefix entry plus the window entries of
        groups P..n-1 in group order, an untabled group summed from 0.0
        factor by factor.  The prefix entry is const plus groups 0..P-1
        summed left to right, so these are the additions of `completed` and
        of the search's leaf, and each weight equals `log_weight` bit for
        bit; the maximum over a coset is the value `oracle.map_solve` finds.
        Only the prefix can be merged into one table this way: a pre-merged
        sum of later groups would be added to the running total as one
        term, which changes the float order.  At n <= PREFIX_BITS a point
        costs one lookup.
        """
        weigh, tables, dtype = self._coset_keys
        # (count, k + 1, keys), by an integer product (no BLAS buffer), then
        # in the smallest type that holds every key, to keep the spanned keys small
        images = (bits @ weigh).astype(dtype)
        keys = gf2.span(images.transpose(1, 2, 0))  # (2^k, keys, count)
        weights = np.take(tables[0], keys[:, 0])
        c = 1
        for table in tables[1:]:
            if isinstance(table, np.ndarray):
                weights += np.take(table, keys[:, c])
                c += 1
                continue
            total = 0.0
            for factor in table:
                total = total + np.take(factor, keys[:, c])
                c += 1
            weights += total
        return weights

    def blocks(self, bits: int, out: np.ndarray | None = None):
        """Yield log w of all 2^n assignments in bitmask order, 2^b at a time.

        b = min(n, bits).  The prefix table over variables 0..b-1 is
        `prefix` where b is its width, unless `out` must receive it, and
        `_prefix_table` otherwise.  Each block then fixes the high bits h and
        adds groups b..n-1 into its destination, each in one numpy call: a
        tabled group adds the row of its window table that h selects, over
        the window's bits below b (one entry when the window lies above b),
        and an untabled group adds its factors fixed at h and summed
        (`_group_sum`, through the two rows of one scratch array).  Each row
        entry is the group's sum at its bits (`windows`), so the additions
        are those of `log_weight`, in its order, and every block equals
        `log_weights_at` bit for bit.

        With `out` (length 2^n) every block is written into its slice of
        `out` and the slice is yielded.  Without it the blocks share one
        buffer: a yielded block is valid only until the next iteration, and
        it is read-only when it is `prefix` itself (b = n <= PREFIX_BITS).
        """
        n, b = self.n, min(self.n, bits)
        if b == min(n, PREFIX_BITS) and (out is None or b < n):
            low = self.prefix
        else:
            low = self._prefix_table(b, out if out is not None and b == n else None)
        if b == n:
            yield low
            return
        rows, terms = {}, {}
        for v in range(b, n):
            lo, mask, table = self.windows[v]
            if isinstance(table, memoryview):
                k = max(b - lo, 0)  # window bits below b: the row's length is 2^k
                rows[v] = np.asarray(table).reshape(-1, 1 << k, 1), max(lo, b), mask >> k, 1 << k
            else:
                terms[v] = [_term(scope, t) for scope, t in self.groups[v]]
        scratch = np.empty((2, 1 << b)) if terms else None  # two rows, so they never overlap
        every = (1 << b) - 1
        reused = np.empty(1 << b) if out is None else None
        for h in range(1 << (n - b)):
            dst = reused if out is None else out[h << b : (h + 1) << b]
            src = low
            for v in range(b, n):
                if v in rows:
                    table, shift, select, length = rows[v]
                    row = table[(h << b) >> shift & select]  # over bits lo..b-1, or one entry
                    np.add(src.reshape(length, -1), row, out=dst.reshape(length, -1))
                else:
                    have, total = _group_sum([_fix(term, h, b) for term in terms[v]], 0, scratch)
                    full, _, part = _axes(every, every, have)
                    np.add(src.reshape(full), total.reshape(part), out=dst.reshape(full))
                src = dst
            yield dst

    def _prefix_table(self, b: int, out: np.ndarray | None = None) -> np.ndarray:
        """const plus groups 0..b-1 at all 2^b assignments of variables 0..b-1, in bitmask order.

        The table lives in one 2^b buffer (`out` when given) and doubles by
        one variable per group v: the x_v = 1 half is written first as the
        old half plus group v's sum at x_v = 1, then the sum at x_v = 0 is
        added into the old half in place.  A tabled group's sum is its window
        table over bits lo..v, whose halves are added as one row per
        assignment of bits lo..v-1 over the old half viewed as those rows of
        2^lo entries, with no run scan.  The others are summed here
        (`_group_sum`, through the two rows of one scratch array, allocated
        only then) over the bits they read, and lined up by `_axes`.  Groups
        0..b-1 read only variables below b, and each entry is their
        left-to-right float sum from const, the additions of `log_weight` up
        to group b - 1.  Nothing is allocated per step.  `blocks` and
        `prefix` both build their prefix here.
        """
        windows = self.windows
        terms = {
            v: [_term(scope, table) for scope, table in self.groups[v]]
            for v in range(b)
            if not isinstance(windows[v][2], memoryview)
        }
        # two rows, so they never overlap; none when every group reads its window
        scratch = np.empty((2, 1 << b)) if terms else None
        low = np.empty(1 << b) if out is None else out
        low[0] = self.const
        for v in range(b):
            if v in terms:
                have, total = _group_sum(terms[v], 1 << v, scratch)
                full, _, part = _axes((1 << v) - 1, (1 << v) - 1, have ^ 1 << v)  # v, the top bit, splits the halves
            else:
                lo, _, total = windows[v]
                full, part = (1 << (v - lo), 1 << lo), (1 << (v - lo), 1)  # bits lo..v-1, spread over 0..lo-1
                total = np.asarray(total)
            old = low[: 1 << v].reshape(full)
            np.add(old, total[total.size // 2 :].reshape(part), out=low[1 << v : 2 << v].reshape(full))
            np.add(old, total[: total.size // 2].reshape(part), out=old)
        return low


def _group_sum(terms, have: int, scratch, out: np.ndarray | None = None, bits: int = 0):
    """(bits, sum): 0.0 plus each (mask, table) term in order, over the bits they read and `have`.

    A table over a bit set (an int mask) is a flat array over those bits in
    bitmask order.  The sum starts as zeros over `have` in scratch[0]; step
    k writes scratch[k % 2], reading the other row, or, with `out` (a table
    over `bits`, which holds them all), the last step writes `out`.  A step
    that adds a pair over the sum's top bit and a new bit above the rest,
    as each factor of a window's group does when its scopes come in
    ascending order (the generators'), takes its shapes from the sizes
    alone; any other step lines its tables up by `_axes`.
    """
    top = 1 << have.bit_length() >> 1  # the group's variable: every term of a window reads it
    rows = scratch[0], scratch[1]
    total = rows[0][: 1 << have.bit_count()]
    total.fill(0.0)
    last = len(terms) if out is not None else 0
    for k, (mask, table) in enumerate(terms, start=1):
        union = bits if k == last else have | mask
        dest = out if k == last else rows[k & 1][: 1 << union.bit_count()]
        new = mask ^ top
        if mask & top and have ^ top < new and new & (new - 1) == 0 and union == have | mask:
            # bits top, new, then the rest: the pair's table is (top, new) already
            np.add(total.reshape(2, 1, -1), table.reshape(2, 2, 1), out=dest.reshape(2, 2, -1))
        else:
            full, part, own = _axes(union, have, mask)
            np.add(total.reshape(part), table.reshape(own), out=dest.reshape(full))
        have, total = union, dest
    return have, total


def _axes(bits: int, a: int, b: int) -> tuple[list[int], list[int], list[int]]:
    """Shapes that line tables over the bit sets a, b inside `bits` up with one over `bits`.

    Each run of bits that lie in the same ones of a and b is one axis, so
    numpy's per-call cost stays low however many variables a table spans.
    """
    full, over_a, over_b = [], [], []
    while bits:
        top = bits.bit_length()
        in_a, in_b = a >> (top - 1) & 1, b >> (top - 1) & 1
        same = (a if in_a else ~a) & (b if in_b else ~b)
        low = (bits & ~same & ((1 << top) - 1)).bit_length()  # the run is bits low..top-1
        length = 1 << (bits >> low).bit_count()
        full.append(length)
        over_a.append(length if in_a else 1)
        over_b.append(length if in_b else 1)
        bits &= (1 << low) - 1
    return full, over_a, over_b


_UNIT_ROUNDOFF = 2.0**-53


def _gamma(m: int) -> float:
    """Higham's gamma_m = m u / (1 - m u), the relative error bound of m roundings."""
    return m * _UNIT_ROUNDOFF / (1.0 - m * _UNIT_ROUNDOFF)


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


def _term(scope: tuple[int, ...], table: np.ndarray) -> tuple[int, np.ndarray]:
    """A factor as (its scope as a bit mask, its table with one axis per scope variable, highest first)."""
    if len(scope) == 1:
        return 1 << scope[0], table
    if len(scope) == 2:  # a pair is read as it is, or transposed: no sort
        a, b = scope
        pair = table.reshape(2, 2)
        return 1 << a | 1 << b, pair if a > b else pair.T
    order = sorted(range(len(scope)), key=scope.__getitem__, reverse=True)
    return sum(map((1).__lshift__, scope)), table.reshape((2,) * len(scope)).transpose(order)


def _fix(term: tuple[int, np.ndarray], h: int, b: int) -> tuple[int, np.ndarray]:
    """The term with each variable b + j it reads fixed to bit j of h, on its leading axes."""
    mask, table = term
    high = range((mask >> b).bit_length() - 1, -1, -1)
    return mask & ((1 << b) - 1), table[tuple(h >> j & 1 for j in high if mask >> b + j & 1)]


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
        if np.any(vals == np.inf):
            raise StructuralError("curve values must be finite or -inf")
        if np.any(vals[:-1] < vals[1:]):
            raise StructuralError("curve values must be non-increasing")

    def __getitem__(self, i: int) -> float:
        return float(self.log_values[i])


def log_weight(model: WeightedModel, assignment) -> float:
    """log w(x) at an assignment (`gf2.as_mask`); -inf when any factor vanishes."""
    return float(model.compiled.log_weight(as_mask(assignment, model.n)))


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
    """log sum_x w(x), by the backward recursion where it is the cheaper path and by enumeration elsewhere.

    The recursion (`CompiledModel.log_partition`) reduces one table over
    bits reach[k]..k per group k, sum_k 2^(k - reach[k] + 1) entries in
    all, within B = gamma_{4n+2} (G + n ln 2 + 1) of the exact value
    (derived there).  It is taken where those entries are fewer than the
    2^n that `enumerated_log_partition` reads and the recursion reaches:
    every group has a window table and every frontier spans at most
    FRONTIER_BITS bits.  A clique's frontiers span every earlier variable,
    so its recursion reduces 2^(n+1) - 2 entries and every clique
    enumerates, as do models past WINDOW_BUDGET: TooLarge past
    ENUMERATION_LIMIT.
    """
    compiled = model.compiled
    if sum(1 << (k - compiled.reach[k] + 1) for k in range(model.n)) < 1 << model.n:
        summed = compiled.log_partition()
        if summed is not None:
            return summed[0]
    return enumerated_log_partition(model)


def enumerated_log_partition(model: WeightedModel) -> float:
    """log sum_x w(x) by enumeration: one log-sum-exp per block, then one over those (n <= 24).

    Up to BLOCK_BITS variables, where every group from PREFIX_BITS on has a
    window table, the blocks are the 2^PREFIX_BITS-entry ones `blocks`
    forms over the kept `prefix`, each the prefix plus one window row per
    later group, so no 2^n table is built; elsewhere they hold 2^BLOCK_BITS
    assignments.  The per-block order is fixed, so the value is
    bit-reproducible.  Its error is below the recursion's B: each weight is
    a sum of n + 1 terms (within gamma_n G), and each of the two
    log-sum-exps adds a few u S and the relative error of a pairwise sum of
    at most 2^n terms in [0, 1], so the two paths agree within 2B
    (`verify.check_partition_agreement`), whichever blocks are summed.
    """
    compiled = _enumerable(model)
    tabled = all(isinstance(table, memoryview) for _, _, table in compiled.windows[PREFIX_BITS:])
    bits = PREFIX_BITS if tabled and model.n <= BLOCK_BITS else BLOCK_BITS
    return log_sum_exp([log_sum_exp(block) for block in compiled.blocks(bits)])


def exact_quantiles(model: WeightedModel) -> QuantileCurve:
    """The 2^i-th largest log-weight for i = 0..n (n <= 24).

    b_i is read from the table `log_weight_table` returns by halving
    selection (`_select_quantiles`), in place: each value is an entry of the
    table, the one an ascending sort would put at 2^n - 2^i, so the curve
    equals the sorted readout bit for bit, at about 2 * 2^n element visits
    instead of the sort's 2^n * n.
    """
    return QuantileCurve(model.n, _select_quantiles(log_weight_table(model)))


def _select_quantiles(table: np.ndarray) -> np.ndarray:
    """The 2^i-th largest of 2^n floats for i = 0..n, selected in place.

    The top 2^(i+1) entries hold the table's 2^i-th largest.  Partitioning
    them at k = 2^(i+1) - 2^i (Hoare's FIND, CACM 1961; numpy's introselect)
    puts it at k and the 2^i - 1 entries at or above it after k, so b_i is
    read at k and the next step partitions the view from k on, half the
    size.  The first step leaves the minimum, b_n, in the lower half.  Only
    views are taken, so the table is permuted and nothing is copied.  Equal
    entries are equal bit for bit as long as the table holds no -0.0 (a
    log-weight sum starts from 0.0, so it never does) and no NaN.
    """
    n = table.size.bit_length() - 1
    values = np.empty(n + 1)
    rest = table
    for i in range(n - 1, -1, -1):
        k = rest.size - (1 << i)
        rest.partition(k)
        values[i] = rest[k]
        rest = rest[k:]
    values[n] = table[: (table.size + 1) // 2].min()
    return values


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


def _trusted_factors(scopes: list[tuple[int, ...]], tables: np.ndarray) -> list[Factor]:
    """Factors from scopes valid by construction and the rows of one table array, checked as a whole.

    A generator's scopes are tuples of distinct ints, each as long as the
    log2 of the row length, so `Factor.__post_init__` is skipped; one
    comparison over the whole array stands for each factor's NaN and +inf
    check (NaN compares false).  Each table is the row itself, as the
    checked `Factor` keeps it.
    """
    if not (tables < np.inf).all():
        raise StructuralError("factor entries must be finite or -inf")
    factors = []
    for scope, table in zip(scopes, tables):
        factor = object.__new__(Factor)
        object.__setattr__(factor, "scope", scope)
        object.__setattr__(factor, "log_table", table)
        factors.append(factor)
    return factors


def _trusted_model(n: int, factors: tuple[Factor, ...], name: str) -> WeightedModel:
    """A WeightedModel whose factor scopes lie inside n variables by construction: no per-factor check.

    The generators build their factors over variables 0..n-1 only
    (`_trusted_factors`), so `WeightedModel.__post_init__`'s scope check
    is skipped, as `gf2._trusted_system` skips a system's; hand-built and
    UAI models keep it.
    """
    model = object.__new__(WeightedModel)
    object.__setattr__(model, "n", n)
    object.__setattr__(model, "factors", factors)
    object.__setattr__(model, "name", name)
    return model


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
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    # one draw per pair, in order: the values and the generator state of scalar draws
    coupling = rng.uniform(0.0, [coupling_w * math.sqrt(j - i) for i, j in pairs]).tolist()
    chain_len = int(0.3 * n)
    for _ in range(2):
        if chain_len < 2:
            break
        tour = rng.permutation(n)[:chain_len].tolist()
        strengths = rng.uniform(0.0, 100.0 * coupling_w, size=chain_len).tolist()
        for k in range(chain_len):
            a, b = tour[k], tour[(k + 1) % chain_len]
            # chain of length 2 closes onto a single doubled edge
            i, j = min(a, b), max(a, b)
            coupling[i * (2 * n - i - 1) // 2 + j - i - 1] += strengths[k]
    tables = np.zeros((len(pairs), 4))
    tables[:, 3] = np.negative(coupling)
    return _trusted_model(n, tuple(_trusted_factors(pairs, tables)), f"clique-n{n}-w{coupling_w}-s{seed}")


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
    steps = ((0, 1), (1, 0))  # right edge, then down edge
    edges = [((r, c), (r + dr, c + dc)) for r in range(rows) for c in range(cols) for dr, dc in steps
             if r + dr < rows and c + dc < cols]
    # one draw per edge, in order: the values and the generator state of scalar draws
    strengths = rng.uniform(-coupling_w, coupling_w, size=len(edges))
    box_r, box_c = math.ceil(rows / 2), math.ceil(cols / 2)
    r0 = int(rng.integers(0, rows - box_r + 1))
    c0 = int(rng.integers(0, cols - box_c + 1))
    inside = lambda rc: r0 <= rc[0] < r0 + box_r and c0 <= rc[1] < c0 + box_c
    scale = [10.0 if inside(a) and inside(b) else 1.0 for a, b in edges]
    # s_i * s_j = +1 when the stored bits agree
    couplings = np.multiply.outer(np.multiply(strengths, scale), [1.0, -1.0, -1.0, 1.0])
    factors = _trusted_factors([(i,) for i in range(n)], np.stack((-fields, fields), axis=1))
    factors += _trusted_factors([(var(*a), var(*b)) for a, b in edges], couplings)
    return _trusted_model(n, tuple(factors), f"grid-{rows}x{cols}-w{coupling_w}-s{seed}")
