import itertools
import math
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adawish import gf2
from adawish.cli import parse_gen_spec
from adawish.errors import StructuralError, TooLarge
from adawish.estimator import adawish_from_oracle, wish_from_oracle
from adawish.model import (
    Factor,
    WeightedModel,
    exact_quantiles,
    gen_clique_ising,
    gen_grid_ising,
    log_weight,
    log_weight_table,
    log_weights_at,
)
from adawish.oracle import (
    ExactCurveOracle,
    NeighborStubOracle,
    OracleConfig,
    PointwiseCurveOracle,
    XorOracle,
    make_oracle,
    map_solve,
    sample_parity_system,
    sweep_depth,
)
from adawish.optbench import gen_geometric_curve, synthetic_oracle
from adawish.seeds import rng_from
from adawish.verify import (
    check_median_bracket,
    check_sweep,
    check_xor_coverage,
    model_zoo,
    reference_map,
    sweep_cases,
)

from conftest import random_factor_model, ref_log_weight

NEG_INF = float("-inf")


def curve_of(values):
    from adawish.model import QuantileCurve

    return QuantileCurve(len(values) - 1, np.log(np.asarray(values, dtype=float)))


class TestMapSolve:
    def test_unconstrained_constant_model(self):
        model = WeightedModel(5, ())
        result = map_solve(model, gf2.Gf2System(5, (), ()))
        assert result.log_value == 0.0
        assert result.exact and result.feasible

    def test_inconsistent_system_is_infeasible(self):
        model = WeightedModel(3, ())
        result = map_solve(model, gf2.Gf2System(3, (0,), (1,)))
        assert not result.feasible
        assert result.log_value == NEG_INF
        assert result.exact

    @pytest.mark.parametrize("seed", range(8))
    def test_branch_and_bound_matches_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        model = gen_grid_ising(2, 5, coupling_w=1.2, seed=seed)
        [system] = sample_parity_system(10, 4, rng, 1)
        a = reference_map(model, system)
        b = map_solve(model, system)
        assert a.log_value == pytest.approx(b.log_value, abs=1e-9)
        assert a.feasible == b.feasible

    def test_constrained_max_matches_table_scan(self):
        rng = np.random.default_rng(77)
        model = random_factor_model(8, rng)
        [system] = sample_parity_system(8, 3, rng, 1)
        result = map_solve(model, system)
        table = log_weight_table(model)
        sols = [x for x in range(256) if gf2.satisfies(system, x)]
        assert result.log_value == pytest.approx(max(table[x] for x in sols), abs=1e-12)
        assert result.assignment in sols

    def test_dimension_mismatch(self):
        model = WeightedModel(4, ())
        with pytest.raises(StructuralError):
            map_solve(model, gf2.Gf2System(5, (), ()))
        with pytest.raises(StructuralError, match="^system over 5 columns, model has 4 variables$"):
            map_solve(model, gf2.row_reduce(gf2.Gf2System(5, (), ())))

    def test_reference_rejects_a_dimension_mismatch(self):
        # a solution over more columns than the model has variables would be
        # scored on its low bits
        model = gen_grid_ising(2, 2, 1.0, 0)
        system = gf2.Gf2System(6, (0b110000,), (1,))
        for solve in (reference_map, map_solve):
            with pytest.raises(StructuralError, match="^system over 6 columns, model has 4 variables$"):
                solve(model, system)

    def test_chained_coset_solves_as_its_system(self):
        # each prefix's coset read from a chain, as `XorOracle` reads it,
        # gives the prefix system's own result, nodes included, under the
        # default bracket, narrowed brackets and a node limit; n + 2 rows
        # reach inconsistent prefixes
        rng = np.random.default_rng(99)
        for model in model_zoo(20, 14, seed=99):
            n = model.n
            [system] = sample_parity_system(n, n + 2, rng, 1)
            chain = [gf2.row_reduce(gf2.Gf2System(n, (), ()))]
            for i in range(n + 3):
                prefix = gf2.Gf2System(n, system.rows[:i], system.rhs[:i])
                coset = gf2.prefix_coset(chain, system, i)
                full = map_solve(model, prefix)
                v = full.log_value if full.feasible else 0.0
                for kwargs in (
                    {},
                    {"floor": v - 0.5, "ceiling": v + 0.5},
                    {"ceiling": v - 0.5},
                    {"floor": v + 0.5},
                    {"node_limit": 3},
                ):
                    assert map_solve(model, coset, **kwargs) == map_solve(model, prefix, **kwargs)

    def test_node_limit_yields_incumbent(self):
        model = gen_grid_ising(3, 3, coupling_w=1.0, seed=0)
        # the unlimited search takes 33 nodes; the first dive ends at 17 on
        # a leaf below the optimum
        [system] = sample_parity_system(model.n, 2, np.random.default_rng(0), 1)
        result = map_solve(model, system, node_limit=5)
        assert not result.exact
        exact = map_solve(model, system)
        assert exact.nodes == 33 and result.nodes == 17
        assert result.log_value < exact.log_value
        # a ceiling of -inf ends the search at the first leaf, the same
        # dive's end, and answers its question exactly
        first = map_solve(model, system, ceiling=NEG_INF)
        assert first == result._replace(exact=True)
        # limits are checked at each pop, so a solve overruns its limit by at
        # most one dive: two children at each of the n variables
        rng = np.random.default_rng(5)
        for m in range(model.n + 1):
            [system] = sample_parity_system(model.n, m, rng, 1)
            for limit in (1, 5, 20):
                limited = map_solve(model, system, node_limit=limit)
                assert limited.nodes <= limit + 2 * model.n
                if limited.assignment is not None:
                    assert gf2.satisfies(system, limited.assignment)
                    assert log_weight(model, limited.assignment) == limited.log_value

    def test_time_limit_that_never_expires_changes_nothing(self):
        # the deadline is looked at every 1,024 nodes; this solve takes
        # 9,799, so the check is re-armed several times before it ends
        model = gen_grid_ising(5, 5, coupling_w=1.0, seed=0)
        [system] = sample_parity_system(model.n, 12, np.random.default_rng(0), 1)
        unlimited = map_solve(model, system)
        assert unlimited.nodes == 9799
        assert map_solve(model, system, time_limit=3600.0) == unlimited

    @pytest.mark.parametrize("limit", [5, 19])
    def test_node_limit_after_the_last_useful_node_stays_exact(self, limit):
        # the first dive meets the optimum in 19 nodes and every child left
        # on the stack is pruned when popped, so the limit cuts nothing
        model = gen_grid_ising(3, 3, coupling_w=1.0, seed=0)
        free = gf2.Gf2System(9, (), ())
        limited = map_solve(model, free, node_limit=limit)
        assert limited == map_solve(model, free)
        assert limited.exact and limited.nodes == 19

    def test_deep_chain_returns_incumbent(self):
        # 1,500 variables is far past the interpreter's recursion limit
        n = 1500
        rng = np.random.default_rng(0)
        model = WeightedModel(n, tuple(Factor((v, v + 1), rng.normal(size=4)) for v in range(n - 1)))
        # parity rows over the whole chain keep the search past its node limit
        [system] = sample_parity_system(n, 20, rng, 1)
        result = map_solve(model, system, node_limit=20_000)
        assert result.feasible and not result.exact
        assert result.log_value == log_weight(model, result.assignment)
        assert gf2.satisfies(system, result.assignment)
        # unconstrained, the cost-to-go bound leads straight to the optimum
        # and prunes every sibling on the way
        free = map_solve(model, gf2.Gf2System(n, (), ()), node_limit=20_000)
        assert free.exact and free.nodes <= 2 * n + 1

    @pytest.mark.parametrize("seed", range(4))
    def test_reduced_and_drawn_rows_solve_alike(self, seed):
        # a system and its reference coset have one solution set, so the
        # search is the same node for node, inconsistent systems included
        model = gen_grid_ising(3, 4, coupling_w=1.0, seed=seed)
        rng = np.random.default_rng(seed)
        for m in range(model.n + 3):
            [system] = sample_parity_system(model.n, m, rng, 1)
            assert map_solve(model, gf2.row_reduce(system)) == map_solve(model, system)

    def test_only_parity_systems_are_solved(self):
        # an inconsistent system's reference coset carries x0 None, so it
        # solves as infeasible; a bare tuple of its fields is refused
        model = gen_grid_ising(3, 4, coupling_w=1.0, seed=0)
        system = gf2.Gf2System(model.n, (0b101, 0b101), (0, 1))
        assert not map_solve(model, system).feasible
        reference = gf2.row_reduce(system)
        assert not map_solve(model, reference).feasible
        with pytest.raises(StructuralError):
            map_solve(model, tuple(reference))
        with pytest.raises(StructuralError):
            gf2.row_reduce(reference)

    @pytest.mark.parametrize(
        "fields",
        [
            (4, 0, 0, ()),
            (4, 0, 1 << 7, (1, 2, 4, 8)),
            (4, 0, -1, (1, 2, 4, 8)),
            (4, 0, 0, (1, 2, 4, 8 | 1 << 9)),
            (4, 0, 0, (1, 2 | 1, 4, 8)),
            (4, 0, 0, (1, 2, 4 | 2, 8)),
            (4, 1, 0, (1, 2, None, 0)),
            (4, 1, 8, (1, 2, None, 8)),
        ],
        ids=[
            "no-nulls", "x0-outside", "x0-negative", "null-outside", "null-below-its-slot",
            "null-on-free-slot", "null-zero", "x0-on-free-slot",
        ],
    )
    def test_malformed_coset_rejected(self, fields):
        # the search would index past nulls, or return an assignment
        # outside the model's variables or outside the coset; a Coset is
        # checked where it is built, so no solve can be handed one
        model = gen_grid_ising(2, 2, coupling_w=1.0, seed=0)
        with pytest.raises(StructuralError, match="^coset's x0 or null vectors do not fit its 4 columns$"):
            map_solve(model, gf2.Coset(*fields))
        assert not map_solve(model, gf2.Coset(4, 1, None, ())).feasible
        with pytest.raises(StructuralError, match="^an inconsistent coset has no null vectors$"):
            gf2.Coset(4, 1, None, (1, 2, 4, 8))

    def test_empty_bracket_rejected(self):
        model = gen_grid_ising(2, 2, coupling_w=1.0, seed=0)
        for floor, ceiling in ((1.0, 0.0), (math.nan, math.inf), (NEG_INF, math.nan)):
            with pytest.raises(StructuralError, match="bracket"):
                map_solve(model, gf2.Gf2System(4, (), ()), floor=floor, ceiling=ceiling)

    def test_enumerate_size_guard(self):
        model = WeightedModel(25, ())
        with pytest.raises(TooLarge):
            reference_map(model, gf2.Gf2System(25, (), ()))

    @staticmethod
    def _small_coset_instance():
        # n = 30 is past the enumeration limit, but 28 independent rows
        # leave a 4-point coset
        [system] = sample_parity_system(30, 28, np.random.default_rng(0), 1)
        got = gf2.row_reduce(system)
        p = got.x0
        u, w = (vec for vec in got.nulls if vec is not None)
        return system, {p, p ^ u, p ^ w, p ^ u ^ w}

    def test_enumerate_guard_counts_free_variables(self):
        system, coset = self._small_coset_instance()
        model = random_factor_model(30, np.random.default_rng(1))
        result = reference_map(model, system)
        assert result.exact and result.feasible and result.nodes == 4
        assert result.assignment in coset
        assert result.log_value == max(log_weight(model, x) for x in coset)

    @pytest.mark.parametrize("k", range(4))
    def test_small_coset_search_branches_only_free_variables(self, k):
        system, coset = self._small_coset_instance()
        model = random_factor_model(30, np.random.default_rng(k))
        result = map_solve(model, system, node_limit=(30 + 1) << (30 - 28))
        assert result.exact and result.feasible
        assert result.assignment in coset
        assert result.log_value == max(log_weight(model, x) for x in coset)

    def test_enumerate_guard_keeps_int64_masks(self):
        system = gf2.Gf2System(70, tuple(1 << v for v in range(70)), (0,) * 70)
        with pytest.raises(TooLarge):
            reference_map(WeightedModel(70, ()), system)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 7), st.integers(0, 2**31 - 1), st.floats(0.0, 0.5), st.data())
    def test_solvers_and_evaluators_agree(self, n, seed, zero_frac, data):
        # m up to n + 2 covers full-rank and inconsistent systems; zeroed
        # entries give -inf weights and cosets of zero weight
        m = data.draw(st.integers(0, n + 2), label="m")
        rng = np.random.default_rng(seed)
        factors = tuple(
            Factor(f.scope, np.where(rng.random(f.log_table.size) < zero_frac, NEG_INF, f.log_table))
            for f in random_factor_model(n, rng).factors
        )
        model = WeightedModel(n, factors)
        [system] = sample_parity_system(n, m, rng, 1)

        points = range(1 << n)
        ref = [ref_log_weight(model, [(x >> v) & 1 for v in range(n)]) for x in points]
        table = log_weights_at(model, np.arange(1 << n))
        for x in points:
            assert log_weight(model, x) == table[x]
            assert table[x] == pytest.approx(ref[x], abs=1e-12)

        sols = [x for x in points if gf2.satisfies(system, x)]
        best = max((ref[x] for x in sols), default=NEG_INF)
        a = reference_map(model, system)
        b = map_solve(model, system)
        assert a.feasible == b.feasible == bool(sols)
        assert a.exact and b.exact
        coset = gf2.row_reduce(system)
        if coset.x0 is not None:
            assert b.nodes <= (n + 1) << sum(vec is not None for vec in coset.nulls)
        assert a.log_value == b.log_value == pytest.approx(best, abs=1e-12)
        for r in (a, b):
            if r.log_value == NEG_INF:
                assert r.assignment is None
            else:
                assert r.assignment in sols and gf2.satisfies(system, r.assignment)
                assert log_weight(model, r.assignment) == r.log_value

        # a bracket drawn from the coset's values, points between them and
        # the infinities, so its ends can tie with leaves
        assert map_solve(model, system, floor=NEG_INF, ceiling=math.inf) == b
        values = sorted({float(table[x]) for x in sols})
        ends = values + [v + d for v in values if v > NEG_INF for d in (-0.25, 0.25)] + [NEG_INF, math.inf]
        floor, ceiling = sorted(data.draw(st.lists(st.sampled_from(ends), min_size=2, max_size=2), label="bracket"))
        c = map_solve(model, system, floor=floor, ceiling=ceiling)
        v = b.log_value
        assert c.exact and c.feasible == b.feasible
        if not b.feasible:
            assert c == b
        elif ceiling > v:
            assert c.log_value == max(v, floor)
        else:
            assert ceiling <= c.log_value <= v
        if c.feasible and c.assignment is None:
            assert c.log_value == floor >= v
        elif c.feasible:
            assert c.log_value > floor and gf2.satisfies(system, c.assignment)
            assert log_weight(model, c.assignment) == c.log_value


class TestParitySampling:
    @staticmethod
    def _packed(n, m, bits, pad):
        # each row packed on its own, the way systems were first drawn
        rows = tuple(
            int.from_bytes(np.packbits(bits[r * n : (r + 1) * n], bitorder="little").tobytes(), "little")
            for r in range(m)
        )
        return gf2.Gf2System(n, rows, tuple(int(b) for b in bits[pad:]))

    @pytest.mark.parametrize("n", [0, 1, 7, 12, 13, 16, 25, 64, 65, 100, 128, 129])
    def test_rows_match_per_row_packing(self, n):
        # the reference draws the matrix and the rhs in two calls; equal
        # generator states afterwards pin numpy's four-bytes-a-word buffering
        for seed in range(3):
            for m in range(n + 3):
                rng = rng_from(seed, n, m)
                [system] = sample_parity_system(n, m, rng, 1)
                ref = rng_from(seed, n, m)
                matrix = ref.integers(0, 2, size=m * n, dtype=np.uint8)
                bits = np.concatenate([matrix, ref.integers(0, 2, size=m, dtype=np.uint8)])
                assert system == self._packed(n, m, bits, m * n)
                assert rng.bit_generator.state == ref.bit_generator.state
        # a batch is one (reps, pad + m) draw of the generator, one system
        # per row with its rhs from byte pad = m*n rounded up to a multiple
        # of 4; row t does not depend on reps
        for master in (-7, 1 << 64, (1 << 70) + 3):
            for m in range(n + 3):
                pad = -(-m * n // 4) * 4
                bits = rng_from(master, m).integers(0, 2, size=(3, pad + m), dtype=np.uint8)
                batch = sample_parity_system(n, m, rng_from(master, m), 3)
                assert batch == [self._packed(n, m, row, pad) for row in bits]
                assert sample_parity_system(n, m, rng_from(master, m), 1) == batch[:1]
                assert sample_parity_system(n, m, rng_from(master, m), 5)[:3] == batch

    def test_negative_sizes_rejected(self):
        rng = np.random.default_rng(0)
        for n, m, reps in ((4, 2, -1), (4, -1, 1), (-1, 2, 1), (4, -1, 3), (-1, 2, 3)):
            with pytest.raises(StructuralError):
                sample_parity_system(n, m, rng, reps)


class _SettleLog(XorOracle):
    """An `XorOracle` that logs each settle: (i, t, the shared entry it read or None, the one it left).

    It also keeps what its sweep settled, per repetition v_{j,t} for j =
    i0..n, and what its scan returned, (values, cap) or None.
    """

    def __init__(self, model, config):
        super().__init__(model, config)
        self.settles = []
        self.swept = {}
        self.scanned = None

    def _sweep(self):
        self.swept = super()._sweep()
        return self.swept

    def _scan(self):
        self.scanned = super()._scan()
        return self.scanned

    def _settle(self, i, t, lo, hi, s_lo, s_hi, shared):
        prefix = gf2.prefix_coset(self._chains[t], self._systems[t], i)
        hit = shared.get(prefix)
        out = super()._settle(i, t, lo, hi, s_lo, s_hi, shared)
        self.settles.append((i, t, hit, shared[prefix]))
        return out


def _replayed_records(oracle):
    """Each repetition's caps and leaves, entered from the scan, the sweep and the settle log one record at a time.

    The scan's value at j, the heaviest scanned point of depth j or more,
    is a leaf at j, and its maximum with the scan's cap a cap at j.  Each
    value v_{j,t} the sweep settled is a leaf and a cap at j.  A returned
    assignment is a leaf at its first violated row, an exact value below
    the ceiling or an exact result with no assignment a cap at the query's
    index, and a shared interval both, at that index.
    """
    n = oracle.n
    caps = [[math.inf] * (n + 1) for _ in range(oracle.T)]
    leaves = [[NEG_INF] * (n + 1) for _ in range(oracle.T)]
    if oracle.scanned is not None:
        values, cap = oracle.scanned
        for t, j in itertools.product(range(oracle.T), range(n + 1)):
            leaves[t][j] = max(leaves[t][j], values[t, j])
            caps[t][j] = min(caps[t][j], max(values[t, j], cap))
    for t, values in oracle.swept.items():
        for j, value in enumerate(values, start=oracle.sweep_from):
            leaves[t][j] = max(leaves[t][j], value)
            caps[t][j] = min(caps[t][j], value)
    for i, t, hit, (result, top, _, _) in oracle.settles:
        value, x = result.log_value, result.assignment
        if x is not None:
            system = oracle._systems[t]
            violated = (gf2.evaluate(system, x) ^ gf2.as_mask(system.rhs, n)) >> i << i
            d = (violated & -violated).bit_length() - 1 if violated else n
            leaves[t][d] = max(leaves[t][d], value)
        if result.exact:
            if x is None or value < top:
                caps[t][i] = min(caps[t][i], value)
            if hit is not None:
                leaves[t][i] = max(leaves[t][i], hit[2])
                caps[t][i] = min(caps[t][i], hit[3])
    return caps, leaves


class TestXorQuery:
    @pytest.mark.parametrize("T", [1, 2, 5, 30])
    @pytest.mark.parametrize(
        "spec", ["grid:3x4:w=1.0:seed=2", "clique:n=12:w=0.1:seed=0", "clique:n=14:w=0.1:seed=0"]
    )
    def test_running_bounds_are_the_records_slices(self, spec, T):
        # lo_run and hi_run are kept by walks; the plain records they stand
        # for give each interval as max(leaves[i:]) and min(caps[:i + 1])
        model = parse_gen_spec(spec)
        n = model.n
        hits = swept = 0
        for order, master in itertools.product(("wish", "adawish", "descending"), range(2)):
            oracle = _SettleLog(model, OracleConfig(kind="neighbor", c=2, T=T, master_seed=master))
            if order == "wish":
                wish_from_oracle(oracle)
            elif order == "adawish":
                adawish_from_oracle(oracle, 2.0)
            else:
                for i in reversed(range(n + 1)):
                    oracle.query(i)
            caps, leaves = _replayed_records(oracle)
            for t, i in itertools.product(range(T), range(n + 1)):
                assert oracle.interval(t, i) == (max(leaves[t][i:]), min(caps[t][: i + 1])), (order, master, t, i)
            solved = [hit is None for _, _, hit, _ in oracle.settles]
            assert oracle.ledger.map_calls == sum(solved)
            hits += len(solved) - sum(solved)
            swept += len(oracle.swept)
        # without the scan, repetitions share the unconstrained coset at i = 0,
        # which lies below the sweep's first index at n = 12, T = 5 (K = 10)
        # and T = 30 (K = 8), and at n = 14 for every T; at n = 12, T = 1 and 2
        # the sweep settles every index, and one repetition shares with none.
        # At n <= 13 the scan settles i = 0
        assert oracle.sweep_from == max(0, n - {1: 13, 2: 12, 5: 10, 30: 8}[T])
        if oracle.scan_size is None:
            assert hits > 0 if oracle.sweep_from > 0 and T > 1 else hits == 0
        assert swept == 6 * T

    def test_sweep_depth(self):
        # K is the largest k <= n with T 2^k <= SWEEP_POINTS = 2^13; past
        # 2^13 repetitions there is no sweep
        assert [sweep_depth(12, T) for T in (1, 2, 5, 30, 100, 8192, 8193)] == [12, 12, 10, 8, 6, 0, None]
        assert sweep_depth(66, 30) == 8 and sweep_depth(0, 1) == 0

    def test_sweep_settles_at_the_maxima_map_solve_finds(self):
        # zoo models at T = 5 and 30, tied and zero weights, clique 25
        # (untabled groups), grid 33x2 (n = 66), no variables at all, and K =
        # 0 (T = 5000), where the sweep settles index n alone and the scan
        # weighs all 2^3 points; the scan reaches every zoo model of at
        # least 9 variables at T = 30 and of 11 or more at T = 5
        three = WeightedModel(3, (Factor((0, 1), [0.1, -0.4, 0.7, 0.2]), Factor((2,), [0.3, -1.0])), name="three")
        cases = sweep_cases(model_zoo(6, 12, 3)) + [
            (WeightedModel(0, (Factor((), [0.5]),), name="no variables"), 3, (0,)),
            (three, 5000, (0,)),
        ]
        result = check_sweep(cases)
        assert result.passed, result.detail
        counts = [int(k) for k in re.findall(r"(\d+) [a-z]", result.detail)]
        assert len(counts) == 9 and min(counts) > 0, result.detail

    def test_sweep_caps_an_inconsistent_prefix_at_minus_inf(self):
        # at T = 1000 (K = 3) a prefix of n - 3 rows is inconsistent about
        # once in sixteen draws: the sweep settles it at -inf from i0 on and
        # proves nothing below i0.  At n = 14 there is no scan, which would
        # prove more below i0
        model = parse_gen_spec("clique:n=14:w=0.1:seed=0")
        oracle = _SettleLog(model, OracleConfig(kind="neighbor", c=2, T=1000, master_seed=0))
        n, i0 = model.n, oracle.sweep_from
        assert i0 == n - 3 and oracle.scan_size is None
        oracle.query(i0)
        empty = [t for t, values in oracle.swept.items() if values[0] == NEG_INF]
        assert empty
        for t in empty:
            assert gf2.prefix_coset(oracle._chains[t], oracle._systems[t], i0).x0 is None
            assert oracle.swept[t] == [NEG_INF] * (n - i0 + 1)
            assert [oracle.interval(t, j) for j in range(i0, n + 1)] == [(NEG_INF, NEG_INF)] * (n - i0 + 1)
            assert oracle.interval(t, i0 - 1) == (NEG_INF, math.inf)
            assert not any(s[1] == t for s in oracle.settles)

    def test_scan_runs_up_to_the_prefix_table_width(self):
        # at n = 13 the prefix table is the whole weight table, and at T = 30
        # (K = 8, i0 = 5) the first query weighs the 2^6 heaviest assignments
        # of every repetition with no solve; at n = 14 it is not, and index 0
        # is solved
        scanned = make_oracle(gen_clique_ising(13, 0.1, seed=0), OracleConfig(kind="neighbor", c=2, T=30))
        assert (scanned.sweep_from, scanned.scan_size) == (5, 64)
        scanned.query(0)
        assert (scanned.ledger.map_calls, scanned.ledger.search_nodes) == (0, 30 * 64)
        solved = make_oracle(gen_clique_ising(14, 0.1, seed=0), OracleConfig(kind="neighbor", c=2, T=30))
        assert (solved.sweep_from, solved.scan_size) == (6, None)
        solved.query(0)
        assert solved.ledger.map_calls == 1 and solved.ledger.search_nodes > 0

    def test_descending_order_is_built_by_the_first_query(self):
        model = gen_grid_ising(3, 4, coupling_w=1.0, seed=2)
        oracle = make_oracle(model, OracleConfig(kind="neighbor", c=2, T=30))
        assert "descending" not in model.compiled.__dict__
        oracle.query(3)
        assert "descending" in model.compiled.__dict__
        deep = gen_grid_ising(4, 4, coupling_w=1.0, seed=0)
        make_oracle(deep, OracleConfig(kind="neighbor", c=2, T=5)).query(3)
        assert "descending" not in deep.compiled.__dict__

    def test_scan_caps_an_open_repetition_then_solves_it(self):
        # the 8 heaviest assignments set variables 0..9 to 0 and differ in
        # 10..12 alone, so a row 0 that reads none of 10..12 and has rhs 1
        # is violated by all of them: the scan proves only the cap, the 9th
        # weight (-2.0), at index 1.  At T = 4 (K = 11, i0 = 2) master seed
        # 116 leaves repetitions 1 and 3 open there, two of four, so the
        # lower median straddles them and each is solved
        factors = [Factor((v,), [0.0, -2.0 - 0.1 * v]) for v in range(10)]
        factors += [Factor((10 + k,), [0.0, -0.01 * (1 << k)]) for k in range(3)]
        model = WeightedModel(13, tuple(factors), name="top eight")
        oracle = _SettleLog(model, OracleConfig(kind="neighbor", c=2, T=4, master_seed=116))
        assert (oracle.sweep_from, oracle.scan_size) == (2, 8)
        oracle.query(0)
        values, cap = oracle.scanned
        assert cap == np.sort(log_weight_table(model))[::-1][8] == -2.0
        assert [t for t in range(4) if values[t, 1] == NEG_INF] == [1, 3]
        assert [oracle.interval(t, 1) for t in (1, 3)] == [(NEG_INF, cap)] * 2
        assert oracle.ledger.map_calls == 0
        answer = oracle.query(1)
        assert [(i, t) for i, t, _, _ in oracle.settles] == [(1, 1), (1, 3)]
        assert oracle.ledger.map_calls == 2
        maxima = []
        for system in oracle._systems:
            prefix = gf2.row_reduce(gf2.Gf2System(13, system.rows[:1], system.rhs[:1]))
            maxima.append(map_solve(model, prefix).log_value)
        assert answer == sorted(maxima)[1] < cap
        # each solve left its repetition's interval below the cap, holding its maximum
        for t in (1, 3):
            lo, hi = oracle.interval(t, 1)
            assert lo <= maxima[t] <= hi < cap

    def test_scan_of_every_point_caps_what_it_misses_at_minus_inf(self):
        # at T = 4096 (K = 1, i0 = n - 1) the scan weighs all 2^n points,
        # so no weight is left for a cap: where no point reaches depth j,
        # v_{j,t} is -inf, and every repetition is settled at every index
        three = WeightedModel(3, (Factor((0, 1), [0.1, -0.4, 0.7, 0.2]), Factor((2,), [0.3, -1.0])), name="three")
        oracle = _SettleLog(three, OracleConfig(kind="neighbor", c=2, T=4096, master_seed=0))
        assert (oracle.sweep_from, oracle.scan_size) == (2, 8)
        oracle.query(0)
        values, cap = oracle.scanned
        assert cap == NEG_INF
        missed = 0
        for t, j in itertools.product(range(0, 4096, 7), range(4)):
            system = oracle._systems[t]
            want = map_solve(three, gf2.Gf2System(3, system.rows[:j], system.rhs[:j])).log_value
            assert oracle.interval(t, j) == (values[t, j], values[t, j]) == (want, want)
            missed += want == NEG_INF
        assert missed > 0 and oracle.ledger.map_calls == 0

    def test_index_zero_is_unconstrained_map(self):
        model = gen_grid_ising(2, 3, coupling_w=0.8, seed=1)
        curve = exact_quantiles(model)
        oracle = make_oracle(model, OracleConfig(kind="neighbor", c=2, T=7, master_seed=123))
        assert oracle.query(0) == pytest.approx(curve[0], abs=1e-12)

    def test_constant_model_answers_zero(self):
        model = WeightedModel(8, ())
        config = OracleConfig(kind="neighbor", c=2, T=9, master_seed=5)
        oracle = make_oracle(model, config)
        # at i near n a bucket can be empty; stay below that regime
        for i in range(7):
            assert oracle.query(i) == 0.0

    def test_shared_solution_set_settles_in_linear_time(self):
        # every prefix of a 0-variable model is one solution set: one solve,
        # then half the repetitions settle from it; deleting and re-inserting
        # each settled bound shifted every sorted bound after it, O(T^2) in
        # all: 11 times the cost of drawing the T systems at T = 10^5, where
        # moving it past only the bounds between its values costs about 2.5
        T = 100_000
        began = time.perf_counter()
        sample_parity_system(0, 0, rng_from(0, 0), T)
        drawn = time.perf_counter() - began
        oracle = make_oracle(WeightedModel(0, ()), OracleConfig(kind="neighbor", c=2, T=T, master_seed=0))
        began = time.perf_counter()
        assert oracle.query(0) == 0.0
        assert time.perf_counter() - began < 6 * drawn
        assert oracle.ledger.map_calls == 1

    def test_memoization(self):
        model = gen_grid_ising(2, 3, coupling_w=0.8, seed=1)
        config = OracleConfig(kind="neighbor", c=2, T=5, master_seed=9)
        oracle = make_oracle(model, config)
        ledger = oracle.ledger
        first = oracle.query(3)
        calls = ledger.map_calls
        second = oracle.query(3)
        assert first == second
        assert ledger.map_calls == calls
        assert ledger.cache_hits == 1
        assert ledger.distinct_queries == 1

    def test_query_index_must_be_an_integer(self):
        model = gen_grid_ising(2, 3, coupling_w=0.8, seed=1)
        oracle = make_oracle(model, OracleConfig(kind="neighbor", c=2, T=3, master_seed=9))
        for bad in (1.5, 2.0, "3", None):
            with pytest.raises(StructuralError, match=f"^query index must be an integer, got {bad!r}$"):
                oracle.query(bad)
        assert oracle.query(np.int64(3)) == oracle.query(3)
        assert oracle.query(True) == oracle.query(1)
        assert set(oracle.ledger.memo) == {1, 3}
        assert all(type(i) is int for i in oracle.ledger.memo)

    def test_deterministic_and_order_free(self):
        model = gen_grid_ising(2, 3, coupling_w=0.8, seed=1)
        config = OracleConfig(kind="neighbor", c=2, T=5, master_seed=41)
        oracle_a = make_oracle(model, config)
        va = [oracle_a.query(i) for i in range(7)]
        oracle_b = make_oracle(model, config)
        vb = list(reversed([oracle_b.query(i) for i in reversed(range(7))]))
        assert va == vb

    @pytest.mark.parametrize("T", [1, 5, 30])
    @pytest.mark.parametrize(
        "model",
        [
            gen_grid_ising(3, 3, coupling_w=1.0, seed=4),
            gen_clique_ising(8, coupling_w=0.1, seed=4),
            gen_clique_ising(4, coupling_w=0.1, seed=4),
        ],
        ids=["grid3x3", "clique8", "clique4"],
    )
    def test_answers_match_per_repetition_reference(self, model, T):
        # the reference solves every repetition's prefix at every index in
        # full; the answers do not depend on query order, the solve count may.
        # On four variables many repetitions draw the same first rows, so
        # prefixes past the empty one are shared and must be solved once
        result = check_median_bracket([model], reps=(T,), masters=(17,))
        assert result.passed, result.detail

    @pytest.mark.parametrize("spec", ["grid:3x5:w=1.0:seed=2", "clique:n=14:w=0.1:seed=0"])
    def test_bracketed_medians_match_unbracketed(self, spec):
        # T = 1 solves with no bracket, T = 2 with a ceiling only, even T
        # takes the lower middle; the clique's complement ties give maxima
        # equal to the median.  The sweep settles indices n - K .. n (K = 6
        # at T = 100), so the solver meets an inconsistent prefix only where
        # one of rank below n - K is extended, which T = 100 draws.  Past n
        # = 13 there is no scan, which would leave the solver few of these
        result = check_median_bracket([parse_gen_spec(spec)], reps=(1, 2, 5, 10, 30, 100), masters=range(3))
        assert result.passed, result.detail
        cases = r"(\d+) (?:repetitions with no search|at the floor|at the ceiling|infeasible|ties|early stops)"
        counts = re.findall(cases, result.detail)
        assert len(counts) == 6 and min(int(k) for k in counts) > 0, result.detail

    def test_node_limited_sweep_answers_every_index(self):
        # each limited solve pins its repetition at the value it returned,
        # so every query still ends; the answers are then heuristic, and
        # the ledger says so.  At n = 15 there is no scan, which would
        # leave the solver almost nothing
        model = gen_grid_ising(3, 5, coupling_w=1.0, seed=2)
        config = OracleConfig(kind="neighbor", c=2, T=10, master_seed=3, node_limit=1)
        oracle = make_oracle(model, config)
        answers = [oracle.query(i) for i in range(model.n + 1)]
        assert oracle.ledger.distinct_queries == model.n + 1
        assert oracle.ledger.guarantee_void and oracle.ledger.map_calls > 0
        assert oracle.failure_probability() is None
        assert not any(math.isnan(a) for a in answers)

    def test_median_sandwich_mostly_holds(self):
        # scaled-down coverage check (grid 2x5, c = 2, T = 30, 40 seeds, 0.8
        # per index); the full-scale run lives in the acceptance suite
        result = check_xor_coverage()
        assert result.passed, result.detail

    @pytest.mark.parametrize(
        "spec, nodes",
        [("grid:3x4:w=1.0:seed=2", 20_269), ("clique:n=12:w=0.1:seed=0", 23_330)],
    )
    def test_search_order_is_pinned(self, spec, nodes):
        # the node count of every solve of ten repetitions per index under
        # three master seeds: a change to branching order, tie-breaking or
        # pruning shows here even when every maximum stays the same
        model = parse_gen_spec(spec)
        results = [
            map_solve(model, sample_parity_system(model.n, i, rng_from(master, i, t), 1)[0])
            for master in range(3)
            for i in range(model.n + 1)
            for t in range(10)
        ]
        assert len(results) == 390 and sum(r.feasible for r in results) == 360
        assert sum(r.nodes for r in results) == nodes

    def test_window_tables_built_on_first_solve(self):
        # T 2^n > SWEEP_POINTS, so index 4 lies below the sweep's and is solved
        model = gen_grid_ising(4, 4, coupling_w=1.0, seed=0)
        oracle = make_oracle(model, OracleConfig(kind="neighbor", c=2, T=3))
        assert oracle.sweep_from == 5
        assert "windows" not in vars(model.compiled)
        assert "branch_tables" not in vars(model.compiled)
        oracle.query(4)
        assert "windows" in vars(model.compiled)
        assert "branch_tables" in vars(model.compiled)

    def test_repetition_default_formula(self):
        config = OracleConfig(kind="neighbor", c=5, delta=0.01)
        n = 20
        assert config.repetitions(n) == math.ceil(math.log(100.0) / 0.078 * math.log(n))
        assert OracleConfig(kind="neighbor", T=13).repetitions(n) == 13

    def test_alpha_required_off_default(self):
        config = OracleConfig(kind="neighbor", c=3)
        with pytest.raises(StructuralError):
            config.repetitions(16)

    def test_unknown_alpha_without_T_fails_when_built(self):
        model = gen_grid_ising(2, 3, coupling_w=0.5, seed=2)
        with pytest.raises(StructuralError, match="^no concentration rate known for c=3; pass --T$"):
            make_oracle(model, OracleConfig(kind="neighbor", c=3))

    def test_default_repetitions_at_tiny_delta(self):
        # 1/delta overflows to inf at delta = 1e-320; -ln(delta) does not
        config = OracleConfig(kind="neighbor", c=5, delta=1e-320)
        assert config.repetitions(9) == math.ceil(-math.log(1e-320) / 0.078 * math.log(9))

    def test_failure_probability_is_what_T_buys(self):
        model = gen_grid_ising(2, 3, coupling_w=0.5, seed=2)
        oracle = make_oracle(model, OracleConfig(kind="neighbor", c=5, T=5))
        assert oracle.T == 5
        assert oracle.failure_probability() == math.exp(-0.078 * 5 / math.log(6))
        oracle = make_oracle(model, OracleConfig(kind="neighbor"))
        assert oracle.T == OracleConfig().repetitions(6)
        assert oracle.failure_probability() == math.exp(-0.078 * oracle.T / math.log(6))
        assert oracle.failure_probability() <= 0.01
        # no rate known for c = 2
        assert make_oracle(model, OracleConfig(kind="neighbor", c=2, T=5)).failure_probability() is None

    def test_curve_oracles_prove_nothing(self):
        curve = gen_geometric_curve(6, 1.5)
        for oracle in (ExactCurveOracle(curve), PointwiseCurveOracle(curve, 2.0), NeighborStubOracle(curve, 2)):
            oracle.query(3)
            assert oracle.failure_probability() is None


class TestOracleDispatch:
    def test_exact_kind_reads_the_curve(self):
        model = WeightedModel(2, (Factor((0, 1), np.log([8.0, 4.0, 2.0, 1.0])),))
        oracle = make_oracle(model, OracleConfig(kind="exact"))
        assert oracle.query(1) == pytest.approx(math.log(4.0))

    def test_pointwise_gamma_one_equals_exact(self):
        rng = np.random.default_rng(4)
        model = random_factor_model(6, rng)
        curve = exact_quantiles(model)
        oracle = make_oracle(model, OracleConfig(kind="pointwise", gamma=1.0, master_seed=7))
        for i in range(model.n + 1):
            assert oracle.query(i) == pytest.approx(curve[i], abs=1e-12)

    def test_pointwise_stays_within_ratio(self):
        rng = np.random.default_rng(8)
        model = random_factor_model(10, rng)
        curve = exact_quantiles(model)
        oracle = make_oracle(model, OracleConfig(kind="pointwise", gamma=2.0, master_seed=3))
        lg = math.log(2.0)
        for i in range(model.n + 1):
            v = oracle.query(i)
            assert curve[i] - lg - 1e-12 <= v <= curve[i] + lg + 1e-12
            assert oracle.lower(i) <= curve[i] + 1e-12
            assert oracle.upper(i) >= curve[i] - 1e-12

    def test_neighbor_bound_queries_clamp(self):
        model = gen_grid_ising(2, 3, coupling_w=0.5, seed=2)
        config = OracleConfig(kind="neighbor", c=5, T=3, master_seed=1)
        n = model.n
        oracle = make_oracle(model, config)
        oracle.upper(2)
        assert set(oracle.ledger.memo) == {0}
        oracle = make_oracle(model, config)
        oracle.lower(n - 1)
        assert set(oracle.ledger.memo) == {n}

    def test_default_repetitions_below_two_variables(self):
        # ln n is 0 or undefined there, so the default T is 1
        config = OracleConfig(kind="neighbor")
        assert config.repetitions(0) == config.repetitions(1) == 1
        assert config.repetitions(2) == math.ceil(math.log(100.0) / 0.078 * math.log(2))

    def test_exact_kind_size_guard(self):
        with pytest.raises(TooLarge):
            make_oracle(WeightedModel(25, ()), OracleConfig(kind="exact"))

    def test_config_validation(self):
        with pytest.raises(StructuralError):
            OracleConfig(kind="psychic")
        with pytest.raises(StructuralError):
            OracleConfig(kind="neighbor", c=1)
        with pytest.raises(StructuralError):
            OracleConfig(gamma=0.5)
        with pytest.raises(StructuralError):
            OracleConfig(delta=0.0)
        with pytest.raises(StructuralError):
            OracleConfig(T=0)
        # counts must be integers: a float T failed on the first query, and a
        # float seed was truncated
        for bad in ({"T": 2.5}, {"master_seed": 1.5}, {"c": 2.5}, {"T": "3"}):
            with pytest.raises(StructuralError, match="must be an integer"):
                OracleConfig(**bad)
        config = OracleConfig(T=np.int64(3), master_seed=np.int64(-2), c=np.int64(3))
        assert (config.T, config.master_seed, config.c) == (3, -2, 3)
        assert all(type(v) is int for v in (config.T, config.master_seed, config.c))

    def test_infinite_gamma_rejected(self):
        with pytest.raises(StructuralError, match="gamma must be finite"):
            OracleConfig(gamma=math.inf)
        with pytest.raises(StructuralError, match="gamma must be finite"):
            PointwiseCurveOracle(gen_geometric_curve(4, 2.0), gamma=math.inf)

    def test_solver_limits_and_nan_gamma_rejected(self):
        with pytest.raises(StructuralError):
            OracleConfig(gamma=math.nan)
        with pytest.raises(StructuralError):
            PointwiseCurveOracle(gen_geometric_curve(4, 2.0), gamma=math.nan)
        # one check of the limits, in the config and in `map_solve` alike
        model = WeightedModel(2, ())
        free = gf2.Gf2System(2, (), ())
        for limits, message in (
            ({"node_limit": 0}, "node_limit must be >= 1"),
            ({"node_limit": 5.5}, "node_limit must be an integer, got 5.5"),  # was accepted and never fired
            ({"node_limit": "5"}, "node_limit must be an integer, got '5'"),
            ({"time_limit": 0.0}, "time_limit must be > 0"),
            ({"time_limit": math.nan}, "time_limit must be > 0"),
        ):
            with pytest.raises(StructuralError, match=f"^{re.escape(message)}$"):
                OracleConfig(**limits)
            with pytest.raises(StructuralError, match=f"^{re.escape(message)}$"):
                map_solve(model, free, **limits)
        assert type(OracleConfig(node_limit=np.int64(5)).node_limit) is int
        assert map_solve(model, free, node_limit=np.int64(5)) == map_solve(model, free)


class TestNeighborStub:
    def test_always_upper_on_constant_curve(self):
        curve = curve_of([3.0] * 6)
        stub = NeighborStubOracle(curve, c=2, policy="always_upper")
        for i in range(6):
            assert stub.query(i) == pytest.approx(math.log(3.0))

    def test_always_lower_index_shift(self):
        curve = curve_of([8.0, 4.0, 2.0, 1.0, 0.5])
        stub = NeighborStubOracle(curve, c=2, policy="always_lower")
        assert stub.query(1) == pytest.approx(math.log(1.0))  # b_{min(1+2, 4)}
        assert stub.query(2) == pytest.approx(math.log(0.5))  # clamped to b_4

    def test_index_zero_is_exact_for_all_policies(self):
        curve = curve_of([100.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        for policy in NeighborStubOracle.policies:
            stub = NeighborStubOracle(curve, c=3, policy=policy, master_seed=5)
            assert stub.query(0) == pytest.approx(math.log(100.0))

    def test_answers_stay_in_sandwich(self):
        curve = gen_geometric_curve(12, 1.8)
        stub = NeighborStubOracle(curve, c=2, policy="seeded", master_seed=11)
        for i in range(13):
            v = stub.query(i)
            assert curve[min(i + 2, 12)] - 1e-12 <= v <= curve[max(i - 2, 0)] + 1e-12

    def test_unknown_policy(self):
        with pytest.raises(StructuralError):
            NeighborStubOracle(curve_of([1.0, 1.0]), c=2, policy="sometimes")

    def test_slack_below_two_rejected(self):
        for c in (1, 0, -3):
            with pytest.raises(StructuralError, match="^neighbor oracle needs c >= 2$"):
                NeighborStubOracle(curve_of([1.0, 1.0]), c=c)

    def test_counts_must_be_integers(self):
        # a float c would index the curve with floats, and a float seed
        # would be truncated
        curve = gen_geometric_curve(8, 2.0)
        with pytest.raises(StructuralError, match="c must be an integer"):
            NeighborStubOracle(curve, c=2.0)
        for kind in ("pointwise", "neighbor-stub"):
            with pytest.raises(StructuralError, match="master_seed must be an integer"):
                synthetic_oracle(curve, kind, gamma=1.5, seed=1.5)
        stub = NeighborStubOracle(curve, c=np.int64(3), master_seed=np.int64(4))
        assert type(stub.c) is int and type(stub.master_seed) is int
        assert stub.query(5) == NeighborStubOracle(curve, c=3, master_seed=4).query(5)


class TestLedger:
    def test_budget_never_exceeds_index_range(self):
        curve = gen_geometric_curve(16, 2.0)
        oracle = ExactCurveOracle(curve)
        ledger = oracle.ledger
        for i in list(range(17)) * 3:
            oracle.query(i)
        assert ledger.distinct_queries == 17
        assert ledger.cache_hits == 34
        assert set(ledger.memo) <= set(range(17))

    def test_out_of_range_query_rejected(self):
        oracle = ExactCurveOracle(gen_geometric_curve(4, 2.0))
        with pytest.raises(StructuralError):
            oracle.query(5)
