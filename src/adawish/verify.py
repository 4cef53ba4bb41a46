"""The library's contracts, each checked in one place.

Each check exercises one of the library's core contracts on the inputs it
is given and returns a (name, passed, detail) row; the test suite calls the
same checks with its own pinned inputs, so every contract has one
definition.  `run_checks` builds the suites of the `verify` CLI command:
the fast level keeps models at n <= 12, but for the sweep check's grid 3x5,
clique 25 and grid 33x2 (`sweep_cases`) and the median bracket's clique 14,
whose solves the scan of the heaviest assignments does not replace (it
runs at n <= 13), and finishes in seconds; the full level
raises sizes to n <= 16 and adds the statistical checks (hash uniformity,
randomized query coverage).  The references the checks and the
test suite share live here too: the model zoo, the curve and parity-system
suites, and `reference_map`, the enumeration of `gf2.row_reduce`'s coset
that `map_solve` is compared against.  `row_reduce` and the chain of
`gf2.extend` steps are each other's witness (`check_coset`), and so are the
backward recursion and the enumeration of log Z (`check_partition_agreement`);
the XOR oracle's batched sweep of its deepest indices and its scan of the
model's heaviest assignments answer what `map_solve` finds (`check_sweep`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce
from operator import xor

import numpy as np

from . import gf2
from .errors import TooLarge
from .estimator import adawish_from_oracle, sandwich_bounds, wish_from_oracle
from .logspace import LN2, NEG_INF
from .model import (
    BLOCK_BITS,
    ENUMERATION_LIMIT,
    PREFIX_BITS,
    Factor,
    QuantileCurve,
    WeightedModel,
    enumerated_log_partition,
    exact_log_partition,
    exact_quantiles,
    gen_clique_ising,
    gen_grid_ising,
    log_weight,
    log_weight_table,
    log_weights_at,
)
from .optbench import (
    compute_opt,
    gen_adversarial_pair,
    gen_geometric_curve,
    gen_kvalued_curve,
    regret_bound,
    synthetic_oracle,
)
from .oracle import (
    MapResult,
    NeighborStubOracle,
    OracleConfig,
    XorOracle,
    check_columns,
    map_solve,
    sample_parity_system,
)
from .seeds import rng_from

_ENUM_BLOCK = 1 << BLOCK_BITS
_MASK_BITS = 62  # enumerated assignments are int64 bitmasks
MAX_ARITY = 3  # widest factor of `random_factor_model`
BRUTE_COLS = 12  # `check_coset` enumerates the solutions up to this many columns
# `check_xor_coverage`: master seeds, and the least per-index share of medians in the sandwich
COVERAGE_SEEDS = 40
COVERAGE_THRESHOLD = 0.8


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def random_factor_model(n: int, rng: np.random.Generator) -> WeightedModel:
    n_factors = int(rng.integers(n, 2 * n + 1))
    factors = []
    for _ in range(n_factors):
        arity = int(rng.integers(1, min(MAX_ARITY, n) + 1))
        scope = tuple(int(v) for v in rng.choice(n, size=arity, replace=False))
        factors.append(Factor(scope, rng.normal(0.0, 1.5, size=1 << arity)))
    return WeightedModel(n, tuple(factors), name=f"random-n{n}")


def model_zoo(count: int, max_n: int, seed: int) -> list[WeightedModel]:
    """Deterministic mix of clique, grid, and random-factor models with n <= max_n."""
    rng = np.random.default_rng(seed)
    models = []
    for k in range(count):
        family = k % 3
        if family == 0:
            n = int(rng.integers(4, min(11, max_n) + 1))
            models.append(gen_clique_ising(n, coupling_w=0.1, seed=int(rng.integers(0, 2**31))))
        elif family == 1:
            rows = int(rng.integers(2, 5))
            cols = int(rng.integers(2, 5))
            while rows * cols > max_n:
                cols = max(2, cols - 1) if cols > 2 else cols
                rows = max(2, rows - 1)
            models.append(
                gen_grid_ising(rows, cols, coupling_w=float(rng.uniform(0.2, 1.5)),
                               seed=int(rng.integers(0, 2**31)))
            )
        else:
            models.append(random_factor_model(int(rng.integers(4, max_n + 1)), rng))
    return models


def reference_map(model: WeightedModel, system: gf2.Gf2System) -> MapResult:
    """Constrained MAP by enumerating the solution coset: the reference for `map_solve`.

    Exact; takes up to 24 free variables (n - rank) over at most 62 variables.
    The coset is `gf2.row_reduce`'s (x0, nulls), which `check_coset` proves
    is the solution set.  The system must have one column per model
    variable, as in `map_solve`.
    """
    check_columns(system, model)
    got = gf2.row_reduce(system)
    if got.x0 is None:
        return MapResult(NEG_INF, None, exact=True, feasible=False)
    basis = [vec for vec in got.nulls if vec is not None]
    if len(basis) > ENUMERATION_LIMIT or model.n > _MASK_BITS:
        raise TooLarge(
            f"enumeration limited to {ENUMERATION_LIMIT} free variables over n <= {_MASK_BITS},"
            f" got {len(basis)} free over n={model.n}"
        )
    sols = np.array([got.x0], dtype=np.int64)
    for vec in basis:
        sols = np.concatenate([sols, sols ^ np.int64(vec)])
    best_val = NEG_INF
    best_idx = None
    for start in range(0, sols.size, _ENUM_BLOCK):
        block = sols[start : start + _ENUM_BLOCK]
        w = log_weights_at(model, block)
        k = int(np.argmax(w))
        if w[k] > best_val:
            best_val = float(w[k])
            best_idx = int(block[k])
    return MapResult(best_val, best_idx, exact=True, feasible=True, nodes=int(sols.size))


def check_enumeration_agreement(models: list[WeightedModel], widths) -> CheckResult:
    """The enumeration helpers match the per-point evaluator exactly.

    For each width the concatenated blocks of `CompiledModel.blocks`, each
    copied before the next is drawn (the blocks share one buffer), and the
    table that `blocks` fills through `out=` must both equal `log_weights_at`
    over every bitmask under `np.array_equal` (so -inf entries sit at the
    same positions).  `exact_quantiles` must read the reference sorted
    ascending at 2^n - 2^i for i = 0..n, with equal sign bits, so its
    selection is the sort bit for bit.
    """
    for model in models:
        ref = log_weights_at(model, np.arange(1 << model.n))
        for w in widths:
            if not np.array_equal(np.concatenate([b.copy() for b in model.compiled.blocks(w)]), ref):
                return CheckResult("enumeration agreement", False, f"{model.name}: blocks at width {w}")
            filled = np.full(ref.size, np.nan)
            for _ in model.compiled.blocks(w, out=filled):
                pass
            if not np.array_equal(filled, ref):
                return CheckResult("enumeration agreement", False, f"{model.name}: out= fill at width {w}")
        got = exact_quantiles(model).log_values
        want = np.sort(ref)[ref.size - (1 << np.arange(model.n + 1))]
        if not (np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))):
            return CheckResult("enumeration agreement", False, f"{model.name}: exact_quantiles")
    return CheckResult("enumeration agreement", True, f"{len(models)} models x widths {tuple(widths)}")


def check_partition_agreement(models: list[WeightedModel]) -> CheckResult:
    """The backward recursion and the enumeration give log Z within twice the recursion's bound.

    Each path is the other's witness: on every model the recursion reaches
    (`CompiledModel.log_partition`, with its rounding bound B), the
    enumeration (`enumerated_log_partition`) must be equal or within 2B, as
    both lie within B of the exact value.  `exact_log_partition` must return
    the recursion's value where it reaches and is the cheaper path, the
    entries it reduces, sum over k of 2^(k - reach[k] + 1), being fewer
    than the 2^n the enumeration reads, and the enumeration's elsewhere.
    The detail counts the models the recursion reached and those on which
    `exact_log_partition` took it.
    """
    reached = taken = 0
    for model in models:
        compiled = model.compiled
        summed = compiled.log_partition()
        enumerated = enumerated_log_partition(model)
        if summed is not None:
            reached += 1
            log_z, bound = summed
            if not (log_z == enumerated or abs(log_z - enumerated) <= 2.0 * bound):
                detail = f"{model.name}: recursion {log_z!r} vs enumeration {enumerated!r}, bound {bound:.3g}"
                return CheckResult("partition agreement", False, detail)
        cheaper = sum(2 ** (k - compiled.reach[k] + 1) for k in range(model.n)) < 2**model.n
        recursion = summed is not None and cheaper
        taken += recursion
        if exact_log_partition(model) != (summed[0] if recursion else enumerated):
            return CheckResult("partition agreement", False, f"{model.name}: exact_log_partition")
    return CheckResult(
        "partition agreement",
        True,
        f"{reached} of {len(models)} models reached by the recursion, {taken} of them summed by it",
    )


def check_window_agreement(models: list[WeightedModel]) -> CheckResult:
    """Every table of `CompiledModel.windows` equals `completed` over its window exactly.

    A group's table must cover its scopes (lo at or below each scope
    variable, mask + 1 entries) and entry k must equal completed(v, k << lo)
    for every k <= mask under `np.array_equal`, with equal sign bits, so
    -inf and signed-zero entries sit where `completed` puts them.  The score
    table the search reads in `CompiledModel.branch_tables`, a list up to
    2^FRONTIER_BITS entries and the window's memoryview past that, must
    match in the same way.  Groups past the size caps score through
    `completed` itself and have no table.  The detail counts the tables
    the search reads as lists, so a caller can see that its inputs reached
    both kinds.
    """
    tables = lists = 0
    for model in models:
        compiled = model.compiled
        searched = compiled.branch_tables
        for v, (lo, mask, table) in enumerate(compiled.windows):
            if not isinstance(table, memoryview):
                continue
            keys = np.arange(mask + 1, dtype=np.int64)
            if v < 63:
                ref = compiled.completed(v, keys << lo)
            else:  # the masks outgrow int64; completed takes Python ints too
                ref = [compiled.completed(v, int(k) << lo) for k in keys]
            ref = np.broadcast_to(np.asarray(ref, dtype=float), keys.shape)
            score = searched[v][2]
            covered = all(lo <= min(scope) for scope, _ in compiled.groups[v])
            if not (covered and all(
                np.array_equal(got, ref) and np.array_equal(np.signbit(got), np.signbit(ref))
                for got in (np.array(table), np.array(score))
            )):
                return CheckResult("window agreement", False, f"{model.name}: group {v}")
            tables += 1
            lists += isinstance(score, list)
    return CheckResult(
        "window agreement", True, f"{tables} window tables over {len(models)} models, {lists} searched as lists"
    )


def check_cost_to_go(models: list[WeightedModel]) -> CheckResult:
    """No bound of `CompiledModel.branch_tables` falls below a leaf it covers.

    For every assignment x and every variable v, the search's child at v
    scores prefix_v(x) = const + completed(0, x) + ... + completed(v, x)
    (left to right, as the search adds) and adds bound_v at that child's
    window key.  That sum must be >= log w(x): each x is a leaf below the
    child, and two assignments that agree on bits 0..v share the child, its
    prefix and its key.  So every frontier assignment of every level is
    checked against every completion, in the float sums the search forms.
    """
    levels = 0
    for model in models:
        compiled = model.compiled
        xs = np.arange(1 << model.n, dtype=np.int64)
        leaf = log_weights_at(model, xs)
        prefix = np.full(xs.shape, compiled.const)
        for v, (lo, mask, _, bound) in enumerate(compiled.branch_tables):
            prefix = prefix + compiled.completed(v, xs)
            keys, at = np.unique((xs >> lo) & mask, return_inverse=True)
            covered = prefix + np.array([bound[int(k)] for k in keys])[at]
            below = np.flatnonzero(~(covered >= leaf))
            if below.size:
                return CheckResult("cost-to-go bound", False, f"{model.name}: group {v} at x={below[0]}")
            levels += 1
    return CheckResult("cost-to-go bound", True, f"{levels} levels over {len(models)} models")


def coset_systems(seed: int) -> tuple[list[gf2.Gf2System], dict[int, int | None]]:
    """Parity systems for `check_coset`, drawn from one generator, and their witnesses.

    n runs over 0, 1, 3, 6, 10, 65 and 100 (masks of two words), m over 0,
    1, n // 2, n and n + 2.  Each draw of two rows or more is also taken
    with the XOR of its first two rows appended, rhs included, so
    rank-deficient consistent systems come up beside full-rank and
    inconsistent ones; with that rhs flipped, which has no solution
    (witness None); and with rhs = A x* for a drawn x* (witness x*).
    """
    rng = np.random.default_rng(seed)
    systems, witnesses = [], {}
    for n in (0, 1, 3, 6, 10, 65, 100):
        for m in sorted({0, 1, n // 2, n, n + 2}):
            [system], _ = sample_parity_system(n, m, rng, 1)
            systems.append(system)
            if m >= 2:
                rows, rhs = system.rows, system.rhs
                dependent, both = rows + (rows[0] ^ rows[1],), rhs[0] ^ rhs[1]
                planted = gf2.as_mask(rng.integers(0, 2, size=n), n)
                systems.append(gf2.Gf2System(n, dependent, rhs + (both,)))
                witnesses[len(systems)] = None
                systems.append(gf2.Gf2System(n, dependent, rhs + (both ^ 1,)))
                witnesses[len(systems)] = planted
                systems.append(gf2.Gf2System(n, rows, tuple((row & planted).bit_count() & 1 for row in rows)))
    return systems, witnesses


def check_coset(systems: list[gf2.Gf2System], witnesses: dict[int, int | None] | None = None) -> CheckResult:
    """`gf2.row_reduce` and the chain of `gf2.extend` steps give each system's solution set.

    Each prefix of each system is read from a chain (`gf2.prefix_coset`),
    as `XorOracle` reads it, started from the unconstrained coset built by
    hand, and must equal `gf2.row_reduce` of that prefix system: the two
    share no step, so each is the other's witness.  The whole system's
    coset is then checked against the solutions.  Every system of at most
    BRUTE_COLS columns is enumerated: x0 and the null vectors must span
    exactly the solutions found, and an inconsistent system must have none.
    Wider, x0 must solve the system and each null vector its homogeneous
    form.  At every width, a system t with witnesses[t] None must have x0
    None, and one with a solution there must hold it.  The detail counts
    the prefixes compared, with how many were inconsistent, the witnesses
    of each kind, and the enumerated systems that are consistent of full
    rank (rank m), consistent and rank-deficient, and inconsistent, so a
    caller can see that its inputs reached each case.
    """
    witnesses = witnesses or {}
    enumerated = dict.fromkeys(("full rank", "rank-deficient", "inconsistent"), 0)
    prefixes = broken = 0
    for t, system in enumerate(systems):
        cols, rows, rhs = system.cols, system.rows, system.rhs
        chain = [gf2.Coset(cols, 0, 0, [1 << v for v in range(cols)])]
        for k in range(system.m + 1):
            got = gf2.row_reduce(gf2.Gf2System(cols, rows[:k], rhs[:k]))  # the whole system's at k = m
            if gf2.prefix_coset(chain, system, k) != got:
                return CheckResult("gf2 coset", False, f"system {t}: chained prefix {k} differs from row_reduce")
            prefixes += 1
            broken += got.x0 is None
        x0 = got.x0
        free = [(v, vec) for v, vec in enumerate(got.nulls) if vec is not None]
        if t in witnesses:  # a solution's free bits pick the one point of the coset it must be
            known = witnesses[t]
            point = x0 if None in (known, x0) else reduce(xor, (vec for v, vec in free if known >> v & 1), x0)
            if point != known:
                return CheckResult("gf2 coset", False, f"system {t}: disagrees with its witness")
        if cols > BRUTE_COLS:
            if x0 is not None and not (
                gf2.satisfies(system, x0) and not any(gf2.evaluate(system, vec) for _, vec in free)
            ):
                return CheckResult("gf2 coset", False, f"system {t}: not the solution set")
            continue
        span = set() if x0 is None else {x0}
        for _, vec in free:
            span |= {x ^ vec for x in span}
        if span != {x for x in range(1 << cols) if gf2.satisfies(system, x)}:
            return CheckResult("gf2 coset", False, f"system {t}: not the solution set")
        if x0 is None:
            enumerated["inconsistent"] += 1
        else:
            enumerated["full rank" if cols - len(free) == system.m else "rank-deficient"] += 1
    kinds = ", ".join(f"{count} {kind}" for kind, count in enumerated.items())
    planted = sum(known is not None for known in witnesses.values())
    return CheckResult(
        "gf2 coset",
        True,
        f"{len(systems)} systems, {prefixes} prefixes chained ({broken} inconsistent),"
        f" witnesses: {planted} planted solutions, {len(witnesses) - planted} systems with none;"
        f" {sum(enumerated.values())} enumerated: {kinds}",
    )


class _SolveLog(XorOracle):
    """An `XorOracle` that keeps (prefix coset, floor, ceiling, result) per solve, and (t, start, cap, values) per record.

    A record is one repetition of an enumeration (`XorOracle._record`):
    values[j - start] is its heaviest point of depth j or more, -inf if
    none.  The scan starts at 0 and the sweep at `sweep_from`, >= 1 when
    there is a scan.  It also counts early stops: answers given while a
    repetition's interval still holds the answer strictly inside, which
    the one-pass selection leaves only when it stops before the end of its
    pass.
    """

    def __init__(self, model: WeightedModel, config: OracleConfig):
        super().__init__(model, config)
        self.solves: list[tuple[gf2.Coset, float, float, MapResult]] = []
        self.records: list[tuple[int, int, float, list[float]]] = []
        self.early_stops = 0

    def _compute(self, i: int) -> float:
        s = super()._compute(i)
        intervals = [self.interval(t, i) for t in range(self.T)]
        self.early_stops += any(lo < s < hi for lo, hi in intervals)
        return s

    def _solve(self, prefix: gf2.Coset, floor: float, ceiling: float) -> MapResult:
        result = super()._solve(prefix, floor, ceiling)
        self.solves.append((prefix, floor, ceiling, result))
        return result

    def _record(self, reps, start: int, depths: np.ndarray, weights: np.ndarray, cap: float) -> None:
        super()._record(reps, start, depths, weights, cap)
        self.records += [(t, start, cap, self._lo[t][start:]) for t in reps]


def check_median_bracket(models: list[WeightedModel], reps=(1, 2, 5, 10), masters=(0, 1)) -> CheckResult:
    """`XorOracle`'s one-pass selection answers the medians full solves give.

    For each model, T in reps and master seed, the reference names each
    prefix P_{i,t} (the first i rows of the t-th system of
    `sample_parity_system(n, n, rng_from(master, n), T)`) by its coset,
    `gf2.row_reduce(P_{i,t})`, and solves each distinct one with no
    bracket: v_{i,t} is its `map_solve` value, and s_i is the lower median
    of v_{i,0..T-1}.  The oracle then runs in three query orders, the
    `wish` sweep, `adawish` bisection at beta = 2 and a full sweep from
    i = n down to 0, and must answer s_i at every index it queried.  Every
    solve it makes in [floor, ceiling] must be on a prefix's coset, exact,
    and agree with its v: infeasible only when v is -inf, no assignment
    only when v <= floor (the floor returned), a value below ceiling only
    when it is v, and otherwise a value in [ceiling, v].  After the
    queries every repetition's interval (`XorOracle.interval`) at every
    index 0..n must hold its v, have lo <= hi, and have both ends
    non-increasing in i, as v_{i,t} is.  No query may solve one coset twice,
    map_calls must not exceed the distinct cosets of the queried indices,
    and each full sweep must query all n + 1 indices, with medians that do
    not increase with i.  The detail counts the repetitions settled with
    no search, the solves that ended at the floor and at the ceiling, the
    infeasible ones, ties (a further distinct coset whose maximum equals a
    finite s_i), early stops (`_SolveLog`) and the repetitions the oracle's
    sweep settled (`check_sweep`), so a caller can see that its inputs
    reached each case.
    """
    queries = solves = unsearched = floors = ceilings = infeasible = ties = early = swept = 0
    for model, count, master in itertools.product(models, reps, masters):
        n = model.n
        systems, _ = sample_parity_system(n, n, rng_from(master, n), count)
        full: list[dict[gf2.Coset, float]] = []  # per index, v of each distinct prefix coset
        maxima: list[list[float]] = []  # v_{i,t}
        medians: list[float] = []
        for i in range(n + 1):
            prefixes = [gf2.row_reduce(gf2.Gf2System(n, s.rows[:i], s.rhs[:i])) for s in systems]
            full.append({prefix: map_solve(model, prefix).log_value for prefix in dict.fromkeys(prefixes)})
            maxima.append([full[i][prefix] for prefix in prefixes])
            s = sorted(maxima[i])[(count - 1) // 2]
            medians.append(s)
            if s > NEG_INF:
                ties += max(0, sum(v == s for v in full[i].values()) - 1)
        for order in ("wish", "adawish", "descending"):
            where = f"{model.name}, T={count}, master={master}, {order}"
            oracle = _SolveLog(model, OracleConfig(kind="neighbor", c=2, T=count, master_seed=master))
            if order == "wish":
                wish_from_oracle(oracle)
            elif order == "adawish":
                adawish_from_oracle(oracle, 2.0)
            else:
                for i in reversed(range(n + 1)):
                    oracle.query(i)
            memo = oracle.ledger.memo
            for i, answer in memo.items():
                if answer != medians[i]:
                    return CheckResult("median bracket", False, f"{where}, i={i}: median moved")
            solved = [prefix for prefix, *_ in oracle.solves]
            if len(set(solved)) < len(solved):  # a coset's m is its query's index
                return CheckResult("median bracket", False, f"{where}: a prefix solved twice in one query")
            for prefix, floor, ceiling, result in oracle.solves:
                i = prefix.m
                if prefix not in full[i]:
                    return CheckResult("median bracket", False, f"{where}, i={i}: solved a coset no prefix has")
                v, u = full[i][prefix], result.log_value
                if not result.feasible:
                    agrees = v == u == NEG_INF
                    infeasible += 1
                elif result.assignment is None:
                    agrees = v <= floor == u
                    floors += 1
                elif u < ceiling:
                    agrees = u == v
                else:
                    agrees = ceiling <= u <= v
                    ceilings += 1
                if not (result.exact and agrees):
                    detail = f"{where}, i={i}: solved {u} in [{floor}, {ceiling}] for maximum {v}"
                    return CheckResult("median bracket", False, detail)
            for i, t in itertools.product(range(n + 1), range(count)):
                lo, hi = oracle.interval(t, i)
                if not lo <= maxima[i][t] <= hi:
                    detail = f"{where}, i={i}, t={t}: interval [{lo}, {hi}] misses maximum {maxima[i][t]}"
                    return CheckResult("median bracket", False, detail)
                lo_next, hi_next = oracle.interval(t, min(i + 1, n))
                if not (lo <= hi and lo_next <= lo and hi_next <= hi):
                    detail = f"{where}, i={i}, t={t}: interval [{lo}, {hi}] then [{lo_next}, {hi_next}]"
                    return CheckResult("median bracket", False, f"{detail}: empty or not monotone")
            if oracle.ledger.map_calls > sum(len(full[i]) for i in memo):
                return CheckResult("median bracket", False, f"{where}: more solves than distinct prefixes")
            if order != "adawish":
                if oracle.ledger.distinct_queries != n + 1:
                    return CheckResult("median bracket", False, f"{where}: sweep missed an index")
                if any(memo[i] < memo[i + 1] for i in range(n)):
                    return CheckResult("median bracket", False, f"{where}: sweep medians increase")
            queries += len(memo)
            solves += oracle.ledger.map_calls
            unsearched += len(memo) * count - oracle.ledger.map_calls
            early += oracle.early_stops
            swept += sum(start == oracle.sweep_from for _, start, _, _ in oracle.records)
    return CheckResult(
        "median bracket",
        True,
        f"{queries} queries, {solves} solves: {unsearched} repetitions with no search,"
        f" {floors} at the floor, {ceilings} at the ceiling, {infeasible} infeasible, {ties} ties,"
        f" {early} early stops, {swept} repetitions swept",
    )


def check_sweep(cases) -> CheckResult:
    """`XorOracle`'s sweep and scan settle each repetition at the maxima `map_solve` finds.

    cases holds (model, T, master seeds), T at most `SWEEP_POINTS`.  Each
    oracle (neighbor kind, c = 2) queries i0 = n - K
    (`XorOracle.sweep_from`), the first index its sweep settles, and the
    reference v_{j,t} is `map_solve` on `gf2.row_reduce` of repetition t's
    first j rows.  The scan's and the sweep's values are read from the one
    recorder's log (`_SolveLog`).  Sweep: each repetition's prefix at i0 is reduced anew;
    one of full rank must be swept and an inconsistent one settled at
    -inf, and one of lower rank must be left to the solver.  For each
    settled repetition and each j in i0..n, the sweep's value must be
    v_{j,t}, and the repetition's interval [v, v].  Every solve the query
    made must be on a prefix of more than K free variables.  Scan: the
    oracle must scan exactly when n <= PREFIX_BITS and i0 >= 1, M =
    min(2^n, 2^(i0 + 1)) points, and its cap must be the (M + 1)-th largest
    of the model's 2^n log-weights, sorted anew (-inf when M = 2^n).  For
    each repetition and each j in 0..n, a scanned value at or above the
    cap must be v_{j,t}, and any other must be -inf with the cap at or
    above v_{j,t}; the interval must hold v_{j,t}.  search_nodes must be
    the solves' nodes plus 2^K per repetition swept plus M per repetition
    scanned.  The detail counts the repetitions swept, settled
    inconsistent and left to the solver, and the values compared, with
    the inconsistent and the rank-deficient prefixes among them, then the
    repetitions scanned, their exact values and their caps, so a caller
    can see that its inputs reached each case.
    """
    swept = inconsistent = left = compared = empty = deficient = scanned = exact = capped = 0
    for model, count, masters in cases:
        n = model.n
        for master in masters:
            where = f"{model.name}, T={count}, master={master}"
            oracle = _SolveLog(model, OracleConfig(kind="neighbor", c=2, T=count, master_seed=master))
            i0 = oracle.sweep_from
            oracle.query(i0)
            maxima: dict[tuple[int, int], tuple[gf2.Coset, float]] = {}

            def maximum(t: int, j: int) -> tuple[gf2.Coset, float]:
                """Repetition t's first j rows reduced anew, and v_{j,t}."""
                if (t, j) not in maxima:
                    system = oracle._systems[t]
                    reduced = gf2.row_reduce(gf2.Gf2System(n, system.rows[:j], system.rhs[:j]))
                    maxima[t, j] = reduced, map_solve(model, reduced).log_value
                return maxima[t, j]

            swept_values = {t: values for t, start, _, values in oracle.records if start == i0}
            scanned_records = [record for record in oracle.records if record[1] < i0]
            points = 0
            for t, system in enumerate(oracle._systems):
                at = gf2.row_reduce(gf2.Gf2System(n, system.rows[:i0], system.rhs[:i0]))
                rank = at.nulls.count(None)
                full = at.x0 is not None and rank == i0
                if (t in swept_values) != (at.x0 is None or full):
                    return CheckResult("sweep", False, f"{where}, t={t}: swept {t in swept_values} at rank {rank}")
                if t not in swept_values:
                    left += 1
                    continue
                swept += full
                inconsistent += not full
                points += full << (n - i0)
                for j, value in enumerate(swept_values[t], start=i0):
                    reduced, want = maximum(t, j)
                    if not (value == want and oracle.interval(t, j) == (want, want)):
                        detail = f"{where}, t={t}, j={j}: swept {value}, interval {oracle.interval(t, j)}, map_solve {want}"
                        return CheckResult("sweep", False, detail)
                    compared += 1
                    empty += reduced.x0 is None
                    deficient += reduced.x0 is not None and reduced.nulls.count(None) < j
            size = 1 << min(n, i0 + 1) if n <= PREFIX_BITS and i0 >= 1 else None
            if oracle.scan_size != size or len(scanned_records) != (0 if size is None else count):
                return CheckResult("sweep", False, f"{where}: scanned {oracle.scan_size} points, not {size}")
            if size is not None:
                ranked = np.sort(log_weight_table(model))[::-1]
                cap = ranked[size] if size < ranked.size else NEG_INF
                if {record[2] for record in scanned_records} != {cap}:
                    return CheckResult("sweep", False, f"{where}: a scan cap is not weight {size + 1}, {cap}")
                for (t, _, _, values), j in itertools.product(scanned_records, range(n + 1)):
                    value, want = values[j], maximum(t, j)[1]
                    lo, hi = oracle.interval(t, j)
                    if value >= cap:
                        ok = value == want
                        exact += 1
                    else:
                        ok = value == NEG_INF and cap >= want
                        capped += 1
                    if not (ok and lo <= want <= hi):
                        detail = f"{where}, t={t}, j={j}: scanned {value} under cap {cap}, interval [{lo}, {hi}], map_solve {want}"
                        return CheckResult("sweep", False, detail)
                scanned += count
                points += count * size
            if any(n - prefix.nulls.count(None) <= n - i0 for prefix, *_ in oracle.solves):
                return CheckResult("sweep", False, f"{where}: solved a prefix the sweep settles")
            if oracle.ledger.search_nodes != points + sum(result.nodes for *_, result in oracle.solves):
                return CheckResult("sweep", False, f"{where}: search_nodes does not count the swept and scanned points")
    return CheckResult(
        "sweep",
        True,
        f"{swept} repetitions swept, {inconsistent} settled inconsistent, {left} left to the solver;"
        f" {compared} values compared, {empty} of inconsistent prefixes, {deficient} of rank-deficient ones;"
        f" {scanned} repetitions scanned, {exact} exact values, {capped} caps",
    )


def _within_budget(ledger, n: int) -> bool:
    """At most n + 1 distinct queries, all inside 0..n."""
    return ledger.distinct_queries <= n + 1 and set(ledger.memo) <= set(range(n + 1))


def check_sandwich(models: list[WeightedModel]) -> CheckResult:
    """Quantile-derived bounds bracket the exact integral within a factor 2."""
    tol = 1e-9
    for model in models:
        log_w = exact_log_partition(model)
        lo, up = sandwich_bounds(exact_quantiles(model))
        if not (lo <= log_w + tol and log_w <= up + tol and up <= lo + LN2 + tol):
            return CheckResult("quantile sandwich", False, model.name)
    return CheckResult("quantile sandwich", True, f"{len(models)} models")


def check_schedules(models: list[WeightedModel], betas=(1.1, 2.0, 10.0)) -> CheckResult:
    """Exact-oracle schedules land within their approximation factors and query budget.

    The full sweep must be within a factor 2 of the integral and each
    adaptive run within 2 beta; every run makes at most n + 1 distinct
    queries, all inside 0..n.
    """
    tol = 1e-9
    for model in models:
        curve = exact_quantiles(model)
        log_w = exact_log_partition(model)
        full = wish_from_oracle(synthetic_oracle(curve, "exact"))
        if abs(full.log_w - log_w) > LN2 + tol:
            return CheckResult("schedule accuracy", False, f"{model.name}: full sweep off")
        if not _within_budget(full.ledger, model.n):
            return CheckResult("schedule accuracy", False, f"{model.name}: full sweep query budget")
        for beta in betas:
            adaptive = adawish_from_oracle(synthetic_oracle(curve, "exact"), beta)
            if abs(adaptive.log_w - log_w) > math.log(2 * beta) + tol:
                return CheckResult("schedule accuracy", False, f"{model.name}: beta={beta}")
            if not _within_budget(adaptive.ledger, model.n):
                return CheckResult("schedule accuracy", False, f"{model.name}: query budget")
    return CheckResult("schedule accuracy", True, f"{len(models)} models x {len(betas)} betas")


def curve_mix(
    count: int, n: int, seed: int, max_k: int = 6, drop=(1.0, 12.0), base: float = 40.0, top=None
) -> list[QuantileCurve]:
    """Alternating step and geometric curves over 0..n, drawn from one generator.

    Curve t is, for even t, a step curve of k in [2, max_k) plateaus whose
    values fall from base by uniform(*drop) each, and for odd t a geometric
    curve of ratio uniform(1.01, 4) whose top is uniform(*top), or 0 when
    top is None.
    """
    rng = np.random.default_rng(seed)
    curves = []
    for t in range(count):
        if t % 2 == 0:
            k = int(rng.integers(2, max_k))
            bps = sorted(rng.choice(np.arange(1, n), size=k - 1, replace=False).tolist())
            vals = np.cumsum(-rng.uniform(*drop, size=k)) + base
            curves.append(gen_kvalued_curve(n, vals.tolist(), bps))
        else:
            ratio = float(rng.uniform(1.01, 4.0))
            shift = 0.0 if top is None else float(rng.uniform(*top))
            curves.append(gen_geometric_curve(n, ratio, top=shift))
    return curves


def check_regret(curves: list[QuantileCurve], beta: float = 2.0) -> CheckResult:
    """Adaptive query counts stay within the greedy-OPT regret budget.

    Exhaustive certification is out of reach at these sizes, so the (never
    smaller) greedy optimum feeds the budget.
    """
    for t, curve in enumerate(curves):
        result = adawish_from_oracle(synthetic_oracle(curve, "exact"), beta)
        opt = compute_opt(curve, 2 * beta, "greedy")
        budget = regret_bound(opt.opt_size, curve.n)
        if result.ledger.distinct_queries > budget:
            return CheckResult("regret budget", False, f"curve {t}: {result.ledger.distinct_queries} > {budget}")
    sizes = ", ".join(str(n) for n in sorted({curve.n for curve in curves}))
    return CheckResult("regret budget", True, f"{len(curves)} curves at n={sizes}")


def _stub_curves(count: int, seed: int) -> list[QuantileCurve]:
    """Geometric curves of random length 8..32, ratio and top, for `check_adversarial_stub`."""
    rng = np.random.default_rng(seed)
    curves = []
    for _ in range(count):
        n, ratio = int(rng.integers(8, 33)), float(rng.uniform(1.0, 3.0))
        curves.append(gen_geometric_curve(n, ratio, top=float(rng.uniform(-2, 2))))
    return curves


def check_adversarial_stub(curves: list[QuantileCurve], beta: float = 2.0) -> CheckResult:
    """Worst-case neighbor answers keep the output within 2^(2c) * beta and the query budget.

    Curve t is answered by the stub at c = 2 and 3 under every policy, seeded
    with t; each run must also make at most n + 1 distinct queries, all inside
    0..n.
    """
    for t, curve in enumerate(curves):
        implied, _ = sandwich_bounds(curve)
        for c in (2, 3):
            for policy in NeighborStubOracle.policies:
                oracle = synthetic_oracle(curve, "neighbor-stub", c=c, policy=policy, seed=t)
                result = adawish_from_oracle(oracle, beta)
                bound = 2 * c * LN2 + math.log(beta) + 1e-9
                if abs(result.log_w - implied) > bound:
                    return CheckResult("adversarial stub", False, f"curve {t} c={c} {policy}")
                if not _within_budget(result.ledger, curve.n):
                    return CheckResult("adversarial stub", False, f"curve {t} c={c} {policy}: query budget")
    return CheckResult("adversarial stub", True, f"{len(curves)} curves, both c, all policies")


def check_adversarial_pair() -> CheckResult:
    """Block sums of the lower-bound construction match the closed forms."""
    prev_ratio = 0.0
    for n in (64, 256, 1024):
        pair = gen_adversarial_pair(n, 2.0)
        for brute, closed in (
            (pair.w1_brute_force, pair.w1_closed_form),
            (pair.w2_brute_force, pair.w2_closed_form),
        ):
            if abs(brute - closed) > 1e-9 * abs(closed):
                return CheckResult("adversarial pair", False, f"n={n}")
        ratio = pair.w2_brute_force / pair.w1_brute_force
        if ratio <= prev_ratio or ratio >= 4.0:
            return CheckResult("adversarial pair", False, f"ratio not increasing toward 4 at n={n}")
        prev_ratio = ratio
    return CheckResult("adversarial pair", True, "closed forms match, ratio increasing")


def check_solver_agreement(models: list[WeightedModel], trials: int, seed: int) -> CheckResult:
    """`map_solve` matches `reference_map` exactly on random parity systems.

    m runs up to n + 2, so full-rank and inconsistent systems come up.
    Feasibility must agree, both solves must be exact, and the maxima must be
    equal or within 1e-12.  Every assignment either returns must solve the
    system and have exactly the returned value under `log_weight`.
    """
    rng = np.random.default_rng(seed)
    for t in range(trials):
        model = models[t % len(models)]
        m = int(rng.integers(0, model.n + 3))
        [system], _ = sample_parity_system(model.n, m, rng, 1)
        a = reference_map(model, system)
        b = map_solve(model, system)
        same = a.log_value == b.log_value or abs(a.log_value - b.log_value) <= 1e-12
        if not (same and a.feasible == b.feasible and a.exact and b.exact):
            return CheckResult(
                "solver agreement",
                False,
                f"trial {t} on {model.name}: enumeration {a.log_value} vs branch and bound {b.log_value}",
            )
        for name, r in (("enumeration", a), ("branch and bound", b)):
            if r.assignment is not None and not (
                gf2.satisfies(system, r.assignment) and log_weight(model, r.assignment) == r.log_value
            ):
                return CheckResult("solver agreement", False, f"trial {t} on {model.name}: {name} assignment")
    return CheckResult("solver agreement", True, f"{trials} (model, parity system) pairs match")


def check_hash_uniformity(samples: int = 20000, seed: int = 17) -> CheckResult:
    """Sampled (A, d) hashes two fixed points uniformly over bucket pairs."""
    n, m = 8, 3
    x1, x2 = 0b10110001, 0b01110010
    rng = rng_from(seed, 0xA5)
    counts = np.zeros((1 << m, 1 << m), dtype=np.int64)
    for _ in range(samples):
        [system], _ = sample_parity_system(n, m, rng, 1)
        d = gf2.as_mask(system.rhs, m)
        h1 = gf2.evaluate(system, x1) ^ d
        h2 = gf2.evaluate(system, x2) ^ d
        counts[h1, h2] += 1
    tv = 0.5 * float(np.abs(counts / samples - 1.0 / counts.size).sum())
    return CheckResult(
        "hash pair uniformity", tv <= 0.03, f"total variation {tv:.4f} over {counts.size} cells"
    )


def xor_coverage(model: WeightedModel, c: int, reps: int, seeds) -> np.ndarray:
    """Per index i, the share of master seeds whose XOR median lies in [b_{i+c}, b_{i-c}].

    One `XorOracle` (neighbor kind, c, T = reps) per master seed answers
    every index 0..n; b is the model's exact quantile curve, its indices
    clamped to 0..n, with 1e-12 of slack at both ends.
    """
    curve = exact_quantiles(model)
    n = model.n
    hits = np.zeros(n + 1, dtype=np.int64)
    for s in seeds:
        oracle = XorOracle(model, OracleConfig(kind="neighbor", c=c, T=reps, master_seed=s))
        for i in range(n + 1):
            m = oracle.query(i)
            if curve[min(i + c, n)] - 1e-12 <= m <= curve[max(i - c, 0)] + 1e-12:
                hits[i] += 1
    return hits / len(seeds)


def check_xor_coverage() -> CheckResult:
    """Randomized query medians land between the c-shifted quantiles."""
    freq = xor_coverage(gen_grid_ising(2, 5, coupling_w=1.0, seed=3), 2, 30, range(COVERAGE_SEEDS))
    ok = bool(np.all(freq >= COVERAGE_THRESHOLD))
    return CheckResult(
        "xor median coverage",
        ok,
        f"min per-index frequency {freq.min():.3f} over {COVERAGE_SEEDS} seeds"
        f" (threshold {COVERAGE_THRESHOLD})",
    )


def benchmark_models(max_n: int) -> list[WeightedModel]:
    """The pinned instances of the benchmark workloads with n <= max_n."""
    models = [
        gen_grid_ising(3, 4, coupling_w=1.0, seed=2),
        gen_clique_ising(12, coupling_w=0.1, seed=0),
        gen_grid_ising(4, 4, coupling_w=1.0, seed=0),
        gen_clique_ising(16, coupling_w=0.1, seed=0),
    ]
    return [m for m in models if m.n <= max_n]


def sweep_cases(models: list[WeightedModel], masters=(0,)) -> list:
    """`check_sweep` cases: each model, grid 3x5 and two edge models at T = 5 and 30, clique 25 and grid 33x2.

    Grid 3x5 has n = PREFIX_BITS + 2, so its weights read the prefix table
    and two windows past it.  The edge models are scanned at T = 30: on
    "ties" the 256 heaviest assignments share one weight, so the scan's cap
    equals every weight it scans; on "zeros" only 8 assignments have
    nonzero weight, so the scan's M = 8 points are all of them and its cap
    is -inf.  Clique 25 scores its groups past variable 15 factor by factor
    (their windows pass WINDOW_ENTRIES), and at T = 512 (K = 4) its
    prefixes at i0 include inconsistent and rank-deficient ones; grid 33x2
    has n = 66, past one 64-bit word.
    """
    seam = gen_grid_ising(3, 5, coupling_w=1.0, seed=0)
    ties = WeightedModel(
        11, (Factor((0, 1), [0.0, 1.0, 1.0, 0.0]), Factor((4,), [0.0, -0.5]), Factor((7, 9), [0.3, 0.0, 0.0, 0.3])),
        name="ties",
    )
    chain = [Factor((v, v + 1), [0.2 * v, NEG_INF, NEG_INF, -0.1 * v]) for v in range(7)]
    zeros = WeightedModel(10, (*chain, Factor((8,), [0.0, 0.4]), Factor((9,), [0.1, -0.3])), name="zeros")
    cases = [(model, count, masters) for model in models + [seam, ties, zeros] for count in (5, 30)]
    cases.append((gen_clique_ising(25, coupling_w=0.1, seed=0), 512, masters))
    cases.append((gen_grid_ising(33, 2, coupling_w=1.0, seed=0), 30, masters))
    return cases


def run_checks(level: str = "fast") -> list[CheckResult]:
    if level not in ("fast", "full"):
        raise ValueError(f"unknown level {level!r}")
    max_n = 12 if level == "fast" else 16
    models = model_zoo(9 if level == "fast" else 15, max_n, seed=23)
    checks = [
        check_coset(*coset_systems(seed=13)),
        check_enumeration_agreement(models, (3, BLOCK_BITS)),
        check_partition_agreement(models + benchmark_models(max_n)),
        check_window_agreement(models + benchmark_models(max_n)),
        check_cost_to_go(models + benchmark_models(max_n)),
        check_sandwich(models),
        check_schedules(models),
        check_regret(curve_mix(30, 64, seed=5)),
        check_adversarial_stub(_stub_curves(10, seed=7)),
        check_adversarial_pair(),
        check_solver_agreement(model_zoo(6, 12, 3), 40, 3),
        check_median_bracket(benchmark_models(max_n) + [gen_clique_ising(14, 0.1, seed=0)], reps=(1, 2, 5, 10, 100)),
        check_sweep(sweep_cases(models + benchmark_models(max_n), masters=(0,) if level == "fast" else (0, 1))),
    ]
    if level == "full":
        checks.append(check_hash_uniformity())
        checks.append(check_xor_coverage())
    return checks
