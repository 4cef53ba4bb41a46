import math
import sys

import numpy as np
import pytest

from adawish.cli import parse_gen_spec
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
from adawish.optbench import gen_geometric_curve, gen_kvalued_curve, synthetic_oracle
from adawish.oracle import OracleConfig
from adawish.verify import check_adversarial_stub, check_regret, check_sandwich, check_schedules


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
        result = check_sandwich([gen_grid_ising(3, 3, coupling_w=1.0, seed=2)])
        assert result.passed, result.detail


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
            config = OracleConfig(kind="neighbor", c=c, T=30, master_seed=s)
            result = wish_estimate(model, config)
            if abs(result.log_w - log_w) <= 2 * c * LN2 + slack:
                hits += 1
            assert not result.guarantee.proven  # no concentration rate is known at c = 2
        assert hits >= 0.9 * seeds


class TestAdaptive:
    def test_flat_model_stops_at_root(self):
        model = WeightedModel(16, ())
        result = adawish_estimate(model, OracleConfig(kind="exact"), beta=2.0)
        assert result.log_w == pytest.approx(16 * LN2, abs=1e-12)
        assert result.ledger.distinct_queries == 2

    def test_two_level_curve_query_budget(self):
        result = check_regret([gen_kvalued_curve(64, [math.log(10.0), 0.0], [32])], beta=2.0)
        assert result.passed, result.detail

    def test_close_beta_still_accurate(self):
        model = gen_clique_ising(10, coupling_w=0.1, seed=7)
        log_w = exact_log_partition(model)
        result = adawish_estimate(model, OracleConfig(kind="exact"), beta=1.1)
        assert abs(result.log_w - log_w) <= math.log(2.2) + 1e-9

    @pytest.mark.parametrize("beta", [1.1, 2.0, 10.0])
    def test_exact_oracle_factor_bound(self, beta, small_models):
        result = check_schedules(small_models[:6], (beta,))
        assert result.passed, result.detail

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
        curves = [gen_geometric_curve(int(rng.integers(6, 40)), float(rng.uniform(1.0, 3.0))) for _ in range(12)]
        result = check_adversarial_stub(curves, beta=2.0)
        assert result.passed, result.detail

    def test_filled_quantiles_monotone_under_exact_oracle(self, small_models):
        for model in small_models[:6]:
            result = adawish_estimate(model, OracleConfig(kind="exact"), beta=2.0)
            q = result.quantiles
            assert np.all(q[:-1] >= q[1:] - 1e-12)

    def test_query_subset_of_index_range(self, small_models):
        result = check_schedules(small_models, (1.5,))
        assert result.passed, result.detail

    def test_beta_must_exceed_one(self):
        with pytest.raises(StructuralError):
            adawish_estimate(WeightedModel(4, ()), OracleConfig(kind="exact"), beta=1.0)

    def test_infinite_beta_rejected(self):
        # kappa = 2 beta would be reported as a proven factor of inf
        with pytest.raises(StructuralError, match="beta must be finite"):
            adawish_estimate(WeightedModel(4, ()), OracleConfig(kind="exact"), beta=math.inf)

    def test_single_point_curve(self):
        # n = 0: the one assignment is the whole sum, and one query reads it
        curve = QuantileCurve(0, np.array([1.5]))
        result = adawish_from_oracle(synthetic_oracle(curve, "exact"), beta=2.0)
        assert result.log_w == 1.5 and list(result.quantiles) == [1.5]
        assert result.ledger.distinct_queries == 1
        assert result.log10_w == 1.5 / math.log(10.0)

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
        oracle = synthetic_oracle(curve, "exact")
        out = np.full(2, np.nan)
        search(oracle, 2.0, 0, 1, out)
        assert oracle.ledger.distinct_queries == 2
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
        oracle = synthetic_oracle(curve, "exact")
        result = adawish_from_oracle(oracle, beta=1.5)
        assert set(oracle.ledger.memo) == set(range(9))
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
        config = OracleConfig(kind="neighbor", c=5, T=5, delta=0.05, master_seed=3)
        result = adawish_estimate(model, config, beta=2.0)
        assert result.guarantee.proven
        assert result.guarantee.kappa == 2.0 ** 10 * 2.0
        assert result.guarantee.delta == math.exp(-0.078 * 5 / math.log(6))

    @pytest.mark.parametrize(
        "n, c, T, delta",
        [
            (9, 5, 1, math.exp(-0.078 / math.log(9))),  # T = 1 buys far less than delta = 0.01
            # the default T = ceil(ln(1/0.01) / 0.078 * ln 9) buys delta_T just under 0.01
            (9, 5, None, math.exp(-0.078 * math.ceil(math.log(100) / 0.078 * math.log(9)) / math.log(9))),
            (9, 2, 5, None),  # no concentration rate known for c = 2
            (1, 5, 5, None),  # ln n = 0 at n = 1
        ],
        ids=["T-1", "default-T", "no-rate", "n-1"],
    )
    def test_delta_is_what_T_buys(self, n, c, T, delta):
        config = OracleConfig(kind="neighbor", c=c, T=T)
        result = wish_estimate(WeightedModel(n, ()), config)
        assert result.guarantee.proven == (delta is not None)
        assert result.guarantee.delta == delta

    @pytest.mark.parametrize("beta", [2.0 ** 1014, sys.float_info.max], ids=["beta", "largest-beta"])
    def test_overflowing_kappa_proves_nothing(self, beta):
        # kappa = 2^(2c) * beta = 2^10 * beta overflows a float from beta = 2^1014 on
        config = OracleConfig(kind="neighbor", c=5, T=1)
        model = WeightedModel(9, ())
        assert adawish_estimate(model, config, 2.0 ** 1013).guarantee.kappa == 2.0 ** 1023
        result = adawish_estimate(model, config, beta)
        assert not result.guarantee.proven
        assert result.guarantee.kappa is None

    def test_incumbent_only_voids_guarantee(self):
        # T 2^n > SWEEP_POINTS, so the indices below the sweep's are solved under the limit
        model = gen_grid_ising(4, 4, coupling_w=1.0, seed=1)
        config = OracleConfig(kind="neighbor", c=2, T=3, master_seed=3, node_limit=4)
        result = adawish_estimate(model, config, beta=2.0)
        assert result.ledger.guarantee_void
        assert not result.guarantee.proven


class TestAccuracyPastEnumeration:
    # the exact log Z of these grids comes from the backward recursion, as
    # no grid past 4x6 can be enumerated; 8x8 takes about a minute at T = 7
    @pytest.mark.parametrize("schedule", ["wish", "adawish"])
    @pytest.mark.parametrize("side", [5, 6, 7])
    def test_estimate_within_kappa_of_exact(self, side, schedule):
        model = gen_grid_ising(side, side, coupling_w=1.0, seed=0)
        config = OracleConfig(kind="neighbor", c=5, T=7, master_seed=0)
        if schedule == "wish":
            result = wish_estimate(model, config)
        else:
            result = adawish_estimate(model, config, 2.0)
        assert result.guarantee.proven
        assert abs(result.log_w - exact_log_partition(model)) <= math.log(result.guarantee.kappa)


class TestPinnedEstimates:
    # (spec, master seed, schedule) -> (log_w as float.hex, distinct_queries,
    # map_calls, search_nodes) under the neighbor oracle at c = 2, beta = 2
    # and the spec's T (the benchmark's: 30 at n = 12, 5 at n = 16): any
    # change to how systems are drawn, reduced, swept or solved that alters
    # an answer shows here, and any change to a bound table or to the sweep's
    # reach as a count; search_nodes includes the T 2^K points of each sweep
    # and the T M points of each scan (at n = 12, T = 30: 7,680 and 960;
    # the eight n = 12 cells make no solve)
    REPETITIONS = {
        "grid:3x4:w=1.0:seed=2": 30,
        "clique:n=12:w=0.1:seed=0": 30,
        "grid:4x4:w=1.0:seed=0": 5,
        "clique:n=16:w=0.1:seed=0": 5,
    }
    PINNED = {
        ("grid:3x4:w=1.0:seed=2", 0, "wish"): ("0x1.6acab37a5c2efp+4", 13, 0, 8640),
        ("grid:3x4:w=1.0:seed=2", 0, "adawish"): ("0x1.6acab37a5c2efp+4", 13, 0, 8640),
        ("grid:3x4:w=1.0:seed=2", 1, "wish"): ("0x1.66e16c79661a2p+4", 13, 0, 8640),
        ("grid:3x4:w=1.0:seed=2", 1, "adawish"): ("0x1.66e16c79661a2p+4", 13, 0, 8640),
        ("clique:n=12:w=0.1:seed=0", 0, "wish"): ("0x1.bbca42fe1d76bp+2", 13, 0, 8640),
        ("clique:n=12:w=0.1:seed=0", 0, "adawish"): ("0x1.bac3308af2a44p+2", 10, 0, 8640),
        ("clique:n=12:w=0.1:seed=0", 1, "wish"): ("0x1.c2482104a4516p+2", 13, 0, 8640),
        ("clique:n=12:w=0.1:seed=0", 1, "adawish"): ("0x1.c16f9357f79fep+2", 10, 0, 8640),
        ("grid:4x4:w=1.0:seed=0", 0, "wish"): ("0x1.29ef0e1d2dd28p+5", 17, 19, 6868),
        ("grid:4x4:w=1.0:seed=0", 0, "adawish"): ("0x1.29ef0e1d2dd28p+5", 17, 18, 6711),
        ("grid:4x4:w=1.0:seed=0", 1, "wish"): ("0x1.23281f2411c9fp+5", 17, 12, 6238),
        ("grid:4x4:w=1.0:seed=0", 1, "adawish"): ("0x1.23281f2411c9fp+5", 17, 16, 6408),
        ("clique:n=16:w=0.1:seed=0", 0, "wish"): ("0x1.270fda162c633p+3", 17, 10, 5634),
        ("clique:n=16:w=0.1:seed=0", 0, "adawish"): ("0x1.26f48fc15d373p+3", 11, 1, 5153),
        ("clique:n=16:w=0.1:seed=0", 1, "wish"): ("0x1.08913f8b9e1c8p+3", 17, 1, 5121),
        ("clique:n=16:w=0.1:seed=0", 1, "adawish"): ("0x1.087cd7bd91849p+3", 14, 1, 5121),
    }

    @pytest.mark.parametrize("spec, master, schedule", sorted(PINNED))
    def test_estimate_is_pinned(self, spec, master, schedule):
        model = parse_gen_spec(spec)
        config = OracleConfig(kind="neighbor", c=2, T=self.REPETITIONS[spec], master_seed=master)
        if schedule == "wish":
            result = wish_estimate(model, config)
        else:
            result = adawish_estimate(model, config, 2.0)
        log_w, distinct, calls, nodes = self.PINNED[spec, master, schedule]
        ledger = result.ledger
        got = (result.log_w, ledger.distinct_queries, ledger.map_calls, ledger.search_nodes)
        assert got == (float.fromhex(log_w), distinct, calls, nodes)
