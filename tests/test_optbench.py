import math
from fractions import Fraction

import numpy as np
import pytest

from adawish.errors import StructuralError, TooLarge
from adawish.estimator import adawish_from_oracle, sandwich_bounds
from adawish.model import QuantileCurve
from adawish.optbench import (
    compute_opt,
    gen_adversarial_pair,
    gen_geometric_curve,
    gen_kvalued_curve,
    regret_bound,
    segment_bounds,
    synthetic_oracle,
)
from adawish.oracle import ExactCurveOracle, NeighborStubOracle, PointwiseCurveOracle
from adawish.verify import check_adversarial_pair, check_regret, curve_mix


def log_curve(values):
    return QuantileCurve(len(values) - 1, np.log(np.asarray(values, dtype=float)))


def scalar_segment_bounds(values, indices):
    """Plain-arithmetic reference for the segment sums (linear domain)."""
    ub = values[0]
    lb = values[0]
    for s, t in zip(indices, indices[1:]):
        span = 2.0**t - 2.0**s
        ub += values[s] * span
        lb += values[t] * span
    return lb, ub


class TestSegmentBounds:
    def test_full_index_set_equals_curve_sandwich(self):
        curve = gen_geometric_curve(10, 1.7)
        full = list(range(11))
        assert segment_bounds(curve, full) == pytest.approx(sandwich_bounds(curve), abs=1e-12)

    def test_flat_curve_two_point_set(self):
        curve = log_curve([1.0] * 9)
        lo, up = segment_bounds(curve, [0, 8])
        assert math.exp(lo) == pytest.approx(256.0, rel=1e-12)
        assert math.exp(up) == pytest.approx(256.0, rel=1e-12)

    def test_matches_scalar_reference(self):
        values = [2.0**-i for i in range(7)]
        curve = log_curve(values)
        lb, ub = segment_bounds(curve, [0, 3, 6])
        ref_lb, ref_ub = scalar_segment_bounds(values, [0, 3, 6])
        assert math.exp(lb) == pytest.approx(ref_lb, rel=1e-12)
        assert math.exp(ub) == pytest.approx(ref_ub, rel=1e-12)

    @pytest.mark.parametrize("bad", [[0, 3], [1, 6], [0, 6, 3], [0, 3, 3, 6], []])
    def test_malformed_index_sets(self, bad):
        curve = gen_geometric_curve(6, 2.0)
        with pytest.raises(StructuralError):
            segment_bounds(curve, bad)


class TestComputeOpt:
    def test_flat_curve_needs_two_points(self):
        curve = log_curve([7.0] * 17)
        for method in ("greedy", "exhaustive"):
            result = compute_opt(curve, kappa=2.0, method=method)
            assert result.query_indices == (0, 16)
            assert result.opt_size == 2

    def test_one_point_curve_needs_index_zero(self):
        # exhaustive search started at two indices and raised on n = 0
        curve = QuantileCurve(0, [1.0])
        for method in ("greedy", "exhaustive"):
            result = compute_opt(curve, 2.0, method)
            assert (result.query_indices, result.opt_size) == ((0,), 1)

    def test_geometric_ratio_two_needs_every_index(self):
        curve = gen_geometric_curve(8, 2.0)
        result = compute_opt(curve, kappa=2.0, method="greedy")
        assert result.query_indices == tuple(range(9))
        exhaustive = compute_opt(curve, kappa=2.0, method="exhaustive")
        assert exhaustive.opt_size <= result.opt_size

    def test_plateau_methods_agree(self):
        # three plateaus with the first change right after the top element:
        # here the sweep's per-segment minimum is also the global minimum
        curve = gen_kvalued_curve(16, [0.0, -2.5, -10.0], [1, 13])
        greedy = compute_opt(curve, kappa=4.0, method="greedy")
        exhaustive = compute_opt(curve, kappa=4.0, method="exhaustive")
        assert greedy.opt_size == exhaustive.opt_size == 5
        assert exhaustive.certified_global
        assert not greedy.certified_global

    def test_exhaustive_exploits_light_segments(self):
        # heavy drops with negligible middle-plateau weight: the global
        # constraint tolerates per-segment violations, so the exhaustive
        # minimum needs only one point per value change
        curve = gen_kvalued_curve(16, [0.0, -8.0, -16.0], [5, 11])
        greedy = compute_opt(curve, kappa=4.0, method="greedy")
        exhaustive = compute_opt(curve, kappa=4.0, method="exhaustive")
        assert exhaustive.opt_size == 4 < greedy.opt_size
        lo, up = segment_bounds(curve, exhaustive.query_indices)
        assert up <= math.log(4.0) + lo + 1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_exhaustive_never_larger_than_greedy(self, seed):
        rng = np.random.default_rng(seed)
        n = 12
        drops = np.cumsum(-rng.uniform(0.2, 3.0, size=4))
        curve = gen_kvalued_curve(n, drops.tolist(), sorted(rng.choice(np.arange(1, n), 3, replace=False).tolist()))
        greedy = compute_opt(curve, kappa=3.0, method="greedy")
        exhaustive = compute_opt(curve, kappa=3.0, method="exhaustive")
        assert exhaustive.opt_size <= greedy.opt_size

    def test_feasibility_recheck(self):
        # the global certificate is curve-independent only for kappa >= 2
        rng = np.random.default_rng(12)
        for _ in range(10):
            vals = np.sort(rng.uniform(-30, 5, size=21))[::-1]
            curve = QuantileCurve(20, vals)
            for kappa in (2.0, 4.0, 32.0):
                result = compute_opt(curve, kappa=kappa, method="greedy")
                lo, up = segment_bounds(curve, result.query_indices)
                # kappa=2 can be met with equality, so leave float headroom
                assert up <= math.log(kappa) + lo + 1e-7

    def test_small_kappa_may_be_uncertifiable(self):
        # with a drop steeper than 2 between adjacent indices, even the full
        # index set only brackets within a factor 2, so kappa=1.5 has no
        # certificate at all
        curve = gen_kvalued_curve(6, [0.0, -5.0], [3])
        lo, up = segment_bounds(curve, list(range(7)))
        assert up - lo > math.log(1.5)
        with pytest.raises(StructuralError):
            compute_opt(curve, kappa=1.5, method="exhaustive")

    def test_exhaustive_size_guard(self):
        with pytest.raises(TooLarge):
            compute_opt(gen_geometric_curve(21, 2.0), kappa=2.0, method="exhaustive")

    def test_kappa_guard(self):
        for kappa in (1.0, 0.5, math.nan):
            for method in ("greedy", "exhaustive"):
                with pytest.raises(StructuralError, match="kappa must be > 1"):
                    compute_opt(gen_geometric_curve(4, 2.0), kappa=kappa, method=method)

    def test_unknown_method_rejected(self):
        with pytest.raises(StructuralError, match="^unknown method 'psychic'$"):
            compute_opt(gen_geometric_curve(4, 2.0), kappa=2.0, method="psychic")

    def test_infinite_kappa_rejected(self):
        for method in ("greedy", "exhaustive"):
            with pytest.raises(StructuralError, match="kappa must be finite"):
                compute_opt(gen_geometric_curve(4, 2.0), kappa=math.inf, method=method)


class TestRegretBound:
    def test_formula_values(self):
        assert regret_bound(2, 16) == 7
        assert regret_bound(3, 64) == 17

    def test_end_to_end_budget(self):
        result = check_regret(curve_mix(25, 64, seed=77, max_k=6, drop=(0.5, 20.0), base=0.0), beta=2.0)
        assert result.passed, result.detail

    def test_argument_guards(self):
        with pytest.raises(StructuralError):
            regret_bound(1, 16)
        with pytest.raises(StructuralError):
            regret_bound(2, 1)


class TestAdversarialPair:
    def test_argument_guards(self):
        with pytest.raises(StructuralError, match="^kappa must be >= 1$"):
            gen_adversarial_pair(16, 0.5)
        with pytest.raises(StructuralError, match="^n must be >= 1$"):
            gen_adversarial_pair(0, 2.0)

    def test_degenerate_kappa_one(self):
        pair = gen_adversarial_pair(16, 1.0)
        assert pair.w1_brute_force == pair.w2_brute_force == 1.0
        assert pair.w1_closed_form == pair.w2_closed_form == 1.0

    def test_closed_forms_match_block_sums(self):
        pair = gen_adversarial_pair(64, 2.0)
        # printed forms: W1 = 1 + (n/k^2)(1 - 1/k^2), W2 = 1 + (n/k^2)(k^2 - 1)
        assert pair.w1_closed_form == pytest.approx(1 + 16 * 0.75, rel=1e-12)
        assert pair.w2_closed_form == pytest.approx(1 + 16 * 3.0, rel=1e-12)
        assert pair.w1_brute_force == pytest.approx(pair.w1_closed_form, rel=1e-9)
        assert pair.w2_brute_force == pytest.approx(pair.w2_closed_form, rel=1e-9)

    def test_ratio_monotone_toward_kappa_squared(self):
        result = check_adversarial_pair()  # n = 64, 256, 1024: increasing, below 4
        assert result.passed, result.detail
        pair = gen_adversarial_pair(1024, 2.0)
        assert pair.w2_brute_force / pair.w1_brute_force > 3.9

    def test_functions_agree_at_query_ranks(self):
        pair = gen_adversarial_pair(64, 2.0)
        for rank in pair.query_ranks:
            assert pair.w1_at_rank(rank) == pair.w2_at_rank(rank)

    def test_functions_differ_inside_segments(self):
        pair = gen_adversarial_pair(64, 2.0)
        assert pair.w1_at_rank(3) != pair.w2_at_rank(3)
        assert pair.w2_brute_force > pair.w1_brute_force

    def test_padding_to_multiple(self):
        pair = gen_adversarial_pair(65, 2.0)
        assert pair.n == 68
        assert pair.segments == 17

    def test_rational_exactness(self):
        pair = gen_adversarial_pair(16, 2.0)
        total = Fraction(1)
        for count, value in pair.w1_segments:
            total += count * value
        assert float(total) == pair.w1_brute_force


class TestCurveGenerators:
    def test_constant_curve_two_queries(self):
        curve = gen_kvalued_curve(32, [1.5], [])
        result = adawish_from_oracle(synthetic_oracle(curve, "exact"), beta=2.0)
        assert result.ledger.distinct_queries == 2

    def test_three_plateau_budget(self):
        n = 1024
        curve = gen_kvalued_curve(n, [0.0, -9.0, -21.0], [n // 3, (2 * n) // 3])
        assert compute_opt(curve, kappa=4.0, method="greedy").opt_size <= 2 * 3
        result = check_regret([curve], beta=2.0)
        assert result.passed, result.detail

    def test_geometric_worst_case_matches_upper_bound(self):
        curve = gen_geometric_curve(64, 2.0)
        result = adawish_from_oracle(synthetic_oracle(curve, "exact"), beta=1.5)
        assert result.ledger.distinct_queries == 65

    def test_kvalued_validation(self):
        with pytest.raises(StructuralError):
            gen_kvalued_curve(8, [0.0, 1.0], [4])  # increasing values
        with pytest.raises(StructuralError):
            gen_kvalued_curve(8, [0.0, -1.0, -2.0], [5, 3])  # breakpoints unsorted
        with pytest.raises(StructuralError):
            gen_kvalued_curve(8, [0.0, -1.0], [])  # missing breakpoint
        for breakpoints in ([0, 4], [4, 9]):
            with pytest.raises(StructuralError, match=r"^breakpoints must lie in \[1, 8\]$"):
                gen_kvalued_curve(8, [0.0, -1.0, -2.0], breakpoints)

    def test_geometric_validation(self):
        with pytest.raises(StructuralError):
            gen_geometric_curve(8, 0.9)

    def test_synthetic_oracle_kinds(self):
        curve = gen_geometric_curve(6, 1.5)
        assert type(synthetic_oracle(curve, "exact")) is ExactCurveOracle
        assert type(synthetic_oracle(curve, "pointwise", gamma=2.0)) is PointwiseCurveOracle
        assert type(synthetic_oracle(curve, "neighbor-stub", c=2)) is NeighborStubOracle
        with pytest.raises(StructuralError):
            synthetic_oracle(curve, "tarot")
