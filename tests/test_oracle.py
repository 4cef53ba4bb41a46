import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adawish import gf2
from adawish.errors import StructuralError, TooLarge
from adawish.model import (
    Factor,
    WeightedModel,
    exact_quantiles,
    gen_grid_ising,
    log_weight,
    log_weight_table,
    log_weights_at,
)
from adawish.oracle import (
    ExactCurveOracle,
    MapSolver,
    NeighborStubOracle,
    OracleConfig,
    PointwiseCurveOracle,
    QueryLedger,
    XorOracle,
    make_oracle,
    map_solve,
    sample_parity_system,
)
from adawish.optbench import gen_geometric_curve
from adawish.seeds import rng_from
from adawish.verify import reference_map

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
        system = sample_parity_system(10, 4, rng)
        a = reference_map(model, system)
        b = map_solve(model, system, MapSolver())
        assert a.log_value == pytest.approx(b.log_value, abs=1e-9)
        assert a.feasible == b.feasible

    def test_constrained_max_matches_table_scan(self):
        rng = np.random.default_rng(77)
        model = random_factor_model(8, rng)
        system = sample_parity_system(8, 3, rng)
        result = map_solve(model, system, MapSolver())
        table = log_weight_table(model)
        sols = [x for x in range(256) if gf2.satisfies(system, x)]
        assert result.log_value == pytest.approx(max(table[x] for x in sols), abs=1e-12)
        assert result.assignment in sols

    def test_dimension_mismatch(self):
        model = WeightedModel(4, ())
        with pytest.raises(StructuralError):
            map_solve(model, gf2.Gf2System(5, (), ()))

    def test_node_limit_yields_incumbent(self):
        model = gen_grid_ising(3, 3, coupling_w=1.0, seed=0)
        result = map_solve(model, gf2.Gf2System(9, (), ()), MapSolver(node_limit=5))
        assert not result.exact
        exact = map_solve(model, gf2.Gf2System(9, (), ()))
        assert result.log_value <= exact.log_value

    def test_deep_chain_returns_incumbent(self):
        # 1,500 variables is far past the interpreter's recursion limit
        n = 1500
        rng = np.random.default_rng(0)
        model = WeightedModel(n, tuple(Factor((v, v + 1), rng.normal(size=4)) for v in range(n - 1)))
        # parity rows over the whole chain keep the search past its node limit
        system = sample_parity_system(n, 20, rng)
        result = map_solve(model, system, MapSolver(node_limit=20_000))
        assert result.feasible and not result.exact
        assert result.log_value == log_weight(model, result.assignment)
        assert gf2.satisfies(system, result.assignment)
        # unconstrained, the cost-to-go bound leads straight to the optimum
        # and prunes every sibling on the way
        free = map_solve(model, gf2.Gf2System(n, (), ()), MapSolver(node_limit=20_000))
        assert free.exact and free.nodes <= 2 * n + 1

    def test_enumerate_size_guard(self):
        model = WeightedModel(25, ())
        with pytest.raises(TooLarge):
            reference_map(model, gf2.Gf2System(25, (), ()))

    @staticmethod
    def _small_coset_instance():
        # n = 30 is past the enumeration limit, but 28 independent rows
        # leave a 4-point coset
        system = sample_parity_system(30, 28, np.random.default_rng(0))
        reduced = gf2.row_reduce(system)
        assert reduced.consistent and reduced.rank == 28
        p, (u, w) = reduced.particular_solution(), reduced.null_basis()
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
        result = map_solve(model, system, MapSolver(node_limit=(30 + 1) << (30 - 28)))
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
        system = sample_parity_system(n, m, rng)

        points = range(1 << n)
        ref = [ref_log_weight(model, [(x >> v) & 1 for v in range(n)]) for x in points]
        table = log_weights_at(model, np.arange(1 << n))
        for x in points:
            assert log_weight(model, x) == table[x]
            assert table[x] == pytest.approx(ref[x], abs=1e-12)

        sols = [x for x in points if gf2.satisfies(system, x)]
        best = max((ref[x] for x in sols), default=NEG_INF)
        a = reference_map(model, system)
        b = map_solve(model, system, MapSolver())
        assert a.feasible == b.feasible == bool(sols)
        assert a.exact and b.exact
        reduced = gf2.row_reduce(system)
        if reduced.consistent:
            assert b.nodes <= (n + 1) << (n - reduced.rank)
        assert a.log_value == b.log_value == pytest.approx(best, abs=1e-12)
        for r in (a, b):
            if r.log_value == NEG_INF:
                assert r.assignment is None
            else:
                assert r.assignment in sols and log_weight(model, r.assignment) == r.log_value


class TestParitySampling:
    @pytest.mark.parametrize("n", [0, 1, 7, 12, 13, 16, 25, 64, 65, 100])
    def test_rows_match_per_row_packing(self, n):
        # the reference draws the matrix and the rhs in two calls and packs
        # each row on its own, the way systems were first drawn; equal
        # generator states afterwards pin numpy's four-bytes-a-word buffering
        for seed in range(3):
            for m in range(n + 3):
                rng = rng_from(seed, n, m)
                system = sample_parity_system(n, m, rng)
                ref = rng_from(seed, n, m)
                if m == 0:
                    rows, rhs = (), ()
                else:
                    bits = ref.integers(0, 2, size=(m, n), dtype=np.uint8)
                    rows = tuple(
                        int.from_bytes(np.packbits(bits[r], bitorder="little").tobytes(), "little")
                        for r in range(m)
                    )
                    rhs = tuple(int(b) for b in ref.integers(0, 2, size=m, dtype=np.uint8))
                assert (system.cols, system.rows, system.rhs) == (n, rows, rhs)
                assert rng.bit_generator.state == ref.bit_generator.state


class TestXorQuery:
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

    def test_memoization(self):
        model = gen_grid_ising(2, 3, coupling_w=0.8, seed=1)
        config = OracleConfig(kind="neighbor", c=2, T=5, master_seed=9)
        ledger = QueryLedger()
        oracle = make_oracle(model, config, ledger=ledger)
        first = oracle.query(3)
        calls = ledger.map_calls
        second = oracle.query(3)
        assert first == second
        assert ledger.map_calls == calls
        assert ledger.cache_hits == 1
        assert ledger.distinct_queries == 1

    def test_deterministic_and_order_free(self):
        model = gen_grid_ising(2, 3, coupling_w=0.8, seed=1)
        config = OracleConfig(kind="neighbor", c=2, T=5, master_seed=41)
        oracle_a = make_oracle(model, config)
        va = [oracle_a.query(i) for i in range(7)]
        oracle_b = make_oracle(model, config)
        vb = list(reversed([oracle_b.query(i) for i in reversed(range(7))]))
        assert va == vb

    def test_median_sandwich_mostly_holds(self):
        # scaled-down coverage check; the full-scale run lives in the
        # acceptance suite
        model = gen_grid_ising(2, 5, coupling_w=1.0, seed=3)
        curve = exact_quantiles(model)
        n, c, reps, seeds = model.n, 2, 30, 40
        hits = np.zeros(n + 1)
        for s in range(seeds):
            config = OracleConfig(kind="neighbor", c=c, T=reps, master_seed=s)
            oracle = XorOracle(model, config, MapSolver(), QueryLedger())
            for i in range(n + 1):
                m = oracle.query(i)
                if curve[min(i + c, n)] - 1e-12 <= m <= curve[max(i - c, 0)] + 1e-12:
                    hits[i] += 1
        assert np.all(hits / seeds >= 0.8)

    def test_window_tables_built_on_first_solve(self):
        model = gen_grid_ising(3, 3, coupling_w=1.0, seed=0)
        oracle = make_oracle(model, OracleConfig(kind="neighbor", c=2, T=3))
        assert "windows" not in vars(model.compiled)
        assert "branch_tables" not in vars(model.compiled)
        oracle.query(4)
        assert "windows" in vars(model.compiled)
        assert "branch_tables" in vars(model.compiled)

    def test_repetition_default_formula(self):
        config = OracleConfig(kind="neighbor", c=5, delta=0.01, alpha=0.078)
        n = 20
        assert config.repetitions(n) == math.ceil(math.log(100.0) / 0.078 * math.log(n))
        assert OracleConfig(kind="neighbor", T=13).repetitions(n) == 13

    def test_alpha_required_off_default(self):
        config = OracleConfig(kind="neighbor", c=3)
        with pytest.raises(StructuralError):
            config.repetitions(16)


class TestOracleDispatch:
    def test_exact_kind_reads_the_curve(self):
        model = WeightedModel(2, (Factor((0, 1), np.log([8.0, 4.0, 2.0, 1.0])),))
        oracle = make_oracle(model, OracleConfig(kind="exact"))
        assert oracle.approx(1) == pytest.approx(math.log(4.0))

    def test_pointwise_gamma_one_equals_exact(self):
        rng = np.random.default_rng(4)
        model = random_factor_model(6, rng)
        curve = exact_quantiles(model)
        oracle = make_oracle(model, OracleConfig(kind="pointwise", gamma=1.0, master_seed=7))
        for i in range(model.n + 1):
            assert oracle.approx(i) == pytest.approx(curve[i], abs=1e-12)

    def test_pointwise_stays_within_ratio(self):
        rng = np.random.default_rng(8)
        model = random_factor_model(10, rng)
        curve = exact_quantiles(model)
        oracle = make_oracle(model, OracleConfig(kind="pointwise", gamma=2.0, master_seed=3))
        lg = math.log(2.0)
        for i in range(model.n + 1):
            v = oracle.approx(i)
            assert curve[i] - lg - 1e-12 <= v <= curve[i] + lg + 1e-12
            assert oracle.lower(i) <= curve[i] + 1e-12
            assert oracle.upper(i) >= curve[i] - 1e-12

    def test_neighbor_bound_queries_clamp(self):
        model = gen_grid_ising(2, 3, coupling_w=0.5, seed=2)
        config = OracleConfig(kind="neighbor", c=5, T=3, master_seed=1)
        n = model.n
        oracle = make_oracle(model, config)
        oracle.upper(2)
        assert oracle.ledger.queried_indices() == {0}
        oracle = make_oracle(model, config)
        oracle.lower(n - 1)
        assert oracle.ledger.queried_indices() == {n}

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

    @pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan, math.inf])
    def test_alpha_must_be_finite_and_positive(self, alpha):
        with pytest.raises(StructuralError):
            OracleConfig(alpha=alpha)

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
        for limits in ({"node_limit": 0}, {"time_limit": 0.0}, {"time_limit": math.nan}):
            with pytest.raises(StructuralError):
                MapSolver(**limits)


class TestNeighborStub:
    def test_always_upper_on_constant_curve(self):
        curve = curve_of([3.0] * 6)
        stub = NeighborStubOracle(curve, c=2, policy="always_upper")
        for i in range(6):
            assert stub.approx(i) == pytest.approx(math.log(3.0))

    def test_always_lower_index_shift(self):
        curve = curve_of([8.0, 4.0, 2.0, 1.0, 0.5])
        stub = NeighborStubOracle(curve, c=2, policy="always_lower")
        assert stub.approx(1) == pytest.approx(math.log(1.0))  # b_{min(1+2, 4)}
        assert stub.approx(2) == pytest.approx(math.log(0.5))  # clamped to b_4

    def test_index_zero_is_exact_for_all_policies(self):
        curve = curve_of([100.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        for policy in NeighborStubOracle.policies:
            stub = NeighborStubOracle(curve, c=3, policy=policy, master_seed=5)
            assert stub.approx(0) == pytest.approx(math.log(100.0))

    def test_answers_stay_in_sandwich(self):
        curve = gen_geometric_curve(12, 1.8)
        stub = NeighborStubOracle(curve, c=2, policy="seeded", master_seed=11)
        for i in range(13):
            v = stub.approx(i)
            assert curve[min(i + 2, 12)] - 1e-12 <= v <= curve[max(i - 2, 0)] + 1e-12

    def test_unknown_policy(self):
        with pytest.raises(StructuralError):
            NeighborStubOracle(curve_of([1.0, 1.0]), c=2, policy="sometimes")


class TestLedger:
    def test_budget_never_exceeds_index_range(self):
        curve = gen_geometric_curve(16, 2.0)
        ledger = QueryLedger()
        oracle = ExactCurveOracle(curve, ledger)
        for i in list(range(17)) * 3:
            oracle.approx(i)
        assert ledger.distinct_queries == 17
        assert ledger.cache_hits == 34
        assert ledger.queried_indices() <= set(range(17))

    def test_out_of_range_query_rejected(self):
        oracle = ExactCurveOracle(gen_geometric_curve(4, 2.0))
        with pytest.raises(StructuralError):
            oracle.approx(5)

    def test_trace_records_depth(self):
        ledger = QueryLedger()
        oracle = PointwiseCurveOracle(gen_geometric_curve(4, 2.0), gamma=1.5, ledger=ledger)
        oracle.approx(2, depth=3)
        assert ledger.trace == [(2, 3, pytest.approx(oracle.approx(2)))]
