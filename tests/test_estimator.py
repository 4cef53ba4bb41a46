import math

import numpy as np
import pytest

from adawish.errors import StructuralError
from adawish.estimator import (
    adawish_estimate,
    adawish_from_oracle,
    assemble_log_estimate,
    sandwich_bounds,
    search,
    wish_estimate,
    wish_from_oracle,
)
from adawish.logspace import LN2
from adawish.model import (
    QuantileCurve,
    WeightedModel,
    exact_log_partition,
    exact_quantiles,
    gen_clique_ising,
    gen_grid_ising,
)
from adawish.optbench import (
    compute_opt,
    gen_geometric_curve,
    gen_kvalued_curve,
    regret_bound,
    synthetic_oracle,
)
from adawish.oracle import MapSolver, OracleConfig, QueryLedger


def log_curve(values):
    return QuantileCurve(len(values) - 1, np.log(np.asarray(values, dtype=float)))


class TestSandwichBounds:
    def test_flat_curve_collapses(self):
        lo, up = sandwich_bounds(log_curve([1.0, 1.0, 1.0, 1.0]))
        assert lo == pytest.approx(math.log(8.0), abs=1e-12)
        assert up == pytest.approx(math.log(8.0), abs=1e-12)

    def test_hand_arithmetic(self):
        lo, up = sandwich_bounds(log_curve([8.0, 4.0, 1.0]))
        assert math.exp(lo) == pytest.approx(14.0, rel=1e-12)
        assert math.exp(up) == pytest.approx(24.0, rel=1e-12)
        assert up <= lo + LN2 + 1e-12

    def test_brackets_exact_integral(self):
        model = gen_grid_ising(3, 3, coupling_w=1.0, seed=2)
        log_w = exact_log_partition(model)
        lo, up = sandwich_bounds(exact_quantiles(model))
        assert lo <= log_w + 1e-9
        assert log_w <= up + 1e-9
        assert up <= lo + LN2 + 1e-9


class TestFullSweep:
    def test_constant_model(self):
        model = WeightedModel(5, ())
        result = wish_estimate(model, OracleConfig(kind="exact"))
        assert result.log_w == pytest.approx(5 * LN2, abs=1e-12)
        assert result.ledger.distinct_queries == 6

    def test_exact_oracle_within_factor_two(self):
        model = gen_clique_ising(10, coupling_w=0.1, seed=7)
        log_w = exact_log_partition(model)
        result = wish_estimate(model, OracleConfig(kind="exact"))
        assert abs(result.log_w - log_w) <= LN2 + 1e-9
        # the sweep equals the upper sandwich bound by construction
        _, up = sandwich_bounds(exact_quantiles(model))
        assert result.log_w == pytest.approx(up, abs=1e-9)

    def test_estimate_recomputable_from_quantiles(self):
        model = gen_grid_ising(2, 4, coupling_w=0.9, seed=4)
        result = wish_estimate(model, OracleConfig(kind="exact"))
        assert result.log_w == pytest.approx(assemble_log_estimate(result.quantiles), abs=1e-12)

    def test_randomized_oracle_tracks_truth(self):
        # lighter rehearsal of the grid experiment: most seeds should land
        # within the 2c-shift factor plus assembly slack
        model = gen_grid_ising(2, 5, coupling_w=1.0, seed=6)
        log_w = exact_log_partition(model)
        c, hits, seeds = 2, 0, 20
        slack = math.log(2.0)
        for s in range(seeds):
            config = OracleConfig(kind="neighbor", c=c, T=30, alpha=0.1, master_seed=s)
            result = wish_estimate(model, config, MapSolver())
            if abs(result.log_w - log_w) <= 2 * c * LN2 + slack:
                hits += 1
            assert result.guarantee.proven
            assert result.guarantee.kappa == pytest.approx(2.0 ** (2 * c))
            assert result.guarantee.delta == math.exp(-0.1 * 30 / math.log(10))
        assert hits >= 0.9 * seeds


class TestAdaptive:
    def test_flat_model_stops_at_root(self):
        model = WeightedModel(16, ())
        result = adawish_estimate(model, OracleConfig(kind="exact"), beta=2.0)
        assert result.log_w == pytest.approx(16 * LN2, abs=1e-12)
        assert result.ledger.distinct_queries == 2

    def test_two_level_curve_query_budget(self):
        n = 64
        curve = gen_kvalued_curve(n, [math.log(10.0), 0.0], [n // 2])
        result = adawish_from_oracle(synthetic_oracle(curve, "exact"), beta=2.0)
        opt = compute_opt(curve, kappa=4.0, method="greedy")
        assert result.ledger.distinct_queries <= regret_bound(opt.opt_size, n)

    def test_close_beta_still_accurate(self):
        model = gen_clique_ising(10, coupling_w=0.1, seed=7)
        log_w = exact_log_partition(model)
        result = adawish_estimate(model, OracleConfig(kind="exact"), beta=1.1)
        assert abs(result.log_w - log_w) <= math.log(2.2) + 1e-9

    @pytest.mark.parametrize("beta", [1.1, 2.0, 10.0])
    def test_exact_oracle_factor_bound(self, beta, small_models):
        for model in small_models[:6]:
            log_w = exact_log_partition(model)
            result = adawish_estimate(model, OracleConfig(kind="exact"), beta=beta)
            assert abs(result.log_w - log_w) <= math.log(2 * beta) + 1e-9

    @pytest.mark.parametrize("gamma", [1.5, 2.0])
    def test_pointwise_oracle_factor_bound(self, gamma, small_models):
        beta = 2.0
        kappa = 2 * beta * gamma * gamma
        for model in small_models[:6]:
            log_w = exact_log_partition(model)
            config = OracleConfig(kind="pointwise", gamma=gamma, master_seed=17)
            result = adawish_estimate(model, config, beta=beta)
            assert abs(result.log_w - log_w) <= math.log(kappa) + 1e-9

    def test_adversarial_stub_factor_bound(self):
        rng = np.random.default_rng(3)
        beta = 2.0
        for t in range(12):
            n = int(rng.integers(6, 40))
            curve = gen_geometric_curve(n, float(rng.uniform(1.0, 3.0)))
            implied, _ = sandwich_bounds(curve)
            for c in (2, 3):
                for policy in ("always_upper", "always_lower", "seeded"):
                    oracle = synthetic_oracle(curve, "neighbor-stub", c=c, policy=policy, seed=t)
                    result = adawish_from_oracle(oracle, beta)
                    assert abs(result.log_w - implied) <= 2 * c * LN2 + math.log(beta) + 1e-9

    def test_filled_quantiles_monotone_under_exact_oracle(self, small_models):
        for model in small_models[:6]:
            result = adawish_estimate(model, OracleConfig(kind="exact"), beta=2.0)
            q = result.quantiles
            assert np.all(q[:-1] >= q[1:] - 1e-12)

    def test_query_subset_of_index_range(self, small_models):
        for model in small_models:
            result = adawish_estimate(model, OracleConfig(kind="exact"), beta=1.5)
            assert result.ledger.distinct_queries <= model.n + 1
            assert result.ledger.queried_indices() <= set(range(model.n + 1))

    def test_beta_must_exceed_one(self):
        with pytest.raises(StructuralError):
            adawish_estimate(WeightedModel(4, ()), OracleConfig(kind="exact"), beta=1.0)

    def test_infinite_beta_rejected(self):
        # kappa = 2 beta would be reported as a proven factor of inf
        with pytest.raises(StructuralError, match="beta must be finite"):
            adawish_estimate(WeightedModel(4, ()), OracleConfig(kind="exact"), beta=math.inf)

    def test_zero_weight_tail_stops(self):
        # a curve that is zero past the first index: the flat -inf tail must
        # stop the recursion and contribute nothing, leaving only the top
        # element (counted once standalone and once under 2^0)
        vals = np.array([0.0] + [-np.inf] * 8)
        curve = QuantileCurve(8, vals)
        result = adawish_from_oracle(synthetic_oracle(curve, "exact"), beta=2.0)
        assert result.log_w == pytest.approx(LN2, abs=1e-12)
        assert result.ledger.distinct_queries < 9


class TestSearch:
    def test_adjacent_interval_queries_both_endpoints(self):
        curve = gen_geometric_curve(1, 2.0)
        ledger = QueryLedger()
        oracle = synthetic_oracle(curve, "exact", ledger=ledger)
        out = np.full(2, np.nan)
        search(oracle, 2.0, 0, 1, out)
        assert ledger.distinct_queries == 2
        assert out[0] == pytest.approx(curve[0])
        assert out[1] == pytest.approx(curve[1])

    def test_flat_curve_fills_interior_with_right_value(self):
        curve = log_curve([5.0] * 9)
        oracle = synthetic_oracle(curve, "exact")
        out = np.full(9, np.nan)
        search(oracle, 2.0, 0, 8, out)
        assert np.allclose(out, math.log(5.0))

    def test_geometric_curve_queries_everything(self):
        # ratio 2 per index beats beta=1.5 over any gap, so the recursion
        # bottoms out everywhere and the query set matches the full sweep
        curve = gen_geometric_curve(8, 2.0)
        ledger = QueryLedger()
        oracle = synthetic_oracle(curve, "exact", ledger=ledger)
        result = adawish_from_oracle(oracle, beta=1.5)
        assert ledger.queried_indices() == set(range(9))
        sweep = wish_from_oracle(synthetic_oracle(curve, "exact"))
        assert result.log_w == pytest.approx(sweep.log_w, abs=1e-12)

    def test_bad_interval_rejected(self):
        oracle = synthetic_oracle(gen_geometric_curve(4, 2.0), "exact")
        out = np.full(5, np.nan)
        with pytest.raises(StructuralError):
            search(oracle, 2.0, 3, 2, out)


class TestGuarantee:
    def test_exact_oracle_is_heuristic(self):
        result = adawish_estimate(WeightedModel(4, ()), OracleConfig(kind="exact"), beta=2.0)
        assert not result.guarantee.proven

    def test_neighbor_guarantee_carries_kappa(self):
        model = gen_grid_ising(2, 3, coupling_w=0.5, seed=2)
        config = OracleConfig(kind="neighbor", c=2, T=5, delta=0.05, alpha=0.5, master_seed=3)
        result = adawish_estimate(model, config, beta=2.0)
        assert result.guarantee.proven
        assert result.guarantee.kappa == pytest.approx(2.0 ** 4 * 2.0)
        assert result.guarantee.delta == math.exp(-0.5 * 5 / math.log(6))

    @pytest.mark.parametrize(
        "n, c, T, alpha, delta",
        [
            (9, 2, 1, 0.1, math.exp(-0.1 / math.log(9))),  # T = 1 buys far less than delta = 0.01
            # the default T = ceil(ln(1/0.01) / 0.078 * ln 9) buys delta_T just under 0.01
            (9, 5, None, None, math.exp(-0.078 * math.ceil(math.log(100) / 0.078 * math.log(9)) / math.log(9))),
            (9, 2, 5, None, None),  # no concentration rate known for c = 2
            (9, 2, 5, 1e-300, None),  # delta_T rounds to 1 and proves nothing
            (1, 2, 5, 0.1, None),  # ln n = 0 at n = 1
        ],
    )
    def test_delta_is_what_T_buys(self, n, c, T, alpha, delta):
        config = OracleConfig(kind="neighbor", c=c, T=T, alpha=alpha)
        result = wish_estimate(WeightedModel(n, ()), config)
        assert result.guarantee.proven == (delta is not None)
        assert result.guarantee.delta == delta

    def test_incumbent_only_voids_guarantee(self):
        model = gen_grid_ising(3, 3, coupling_w=1.0, seed=1)
        config = OracleConfig(kind="neighbor", c=2, T=3, master_seed=3)
        result = adawish_estimate(model, config, beta=2.0, solver=MapSolver(node_limit=4))
        assert result.ledger.guarantee_void
        assert not result.guarantee.proven
