import math
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adawish.cli import parse_gen_spec
from adawish.errors import InvalidSize, ParseError, StructuralError, TooLarge, UnsupportedCardinality
from adawish.logspace import LN2, NEG_INF
from adawish.model import (
    WINDOW_BUDGET,
    WINDOW_ENTRIES,
    Factor,
    QuantileCurve,
    WeightedModel,
    exact_log_partition,
    exact_quantiles,
    gen_clique_ising,
    gen_grid_ising,
    log_weight,
    log_weight_table,
    parse_uai,
    serialize_uai,
)
from adawish.verify import check_enumeration_agreement, check_window_agreement, model_zoo

from conftest import mp_log_partition, random_factor_model, ref_log_weight

FIXTURE = "MARKOV\n2\n2 2\n1\n2 0 1\n4\n1 2 3 4\n"


class TestLogWeight:
    def test_no_factors_means_unit_weight(self):
        model = WeightedModel(3, ())
        assert log_weight(model, [0, 1, 1]) == 0.0

    def test_zero_coupling_clique_is_flat(self):
        model = gen_clique_ising(6, coupling_w=0.0, seed=1)
        rng = np.random.default_rng(0)
        for _ in range(10):
            bits = [int(b) for b in rng.integers(0, 2, size=6)]
            assert log_weight(model, bits) == 0.0

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(42)
        model = random_factor_model(3, rng)
        for x in range(8):
            bits = [(x >> v) & 1 for v in range(3)]
            assert log_weight(model, bits) == pytest.approx(ref_log_weight(model, bits), abs=1e-12)

    def test_length_mismatch(self):
        model = WeightedModel(3, ())
        with pytest.raises(StructuralError):
            log_weight(model, [0, 1])


class TestUaiFormat:
    def test_golden_fixture(self):
        model = parse_uai(FIXTURE)
        assert model.n == 2
        weights = {
            (0, 0): 1.0, (0, 1): 2.0, (1, 0): 3.0, (1, 1): 4.0,
        }
        for (x0, x1), w in weights.items():
            assert math.exp(log_weight(model, [x0, x1])) == pytest.approx(w, rel=1e-12)

    def test_bayes_header_accepted(self):
        model = parse_uai(FIXTURE.replace("MARKOV", "BAYES"))
        assert model.n == 2

    def test_comments_and_whitespace_ignored(self):
        text = "# preamble\nMARKOV  # header\n 2\n2 2\n1\n2 0 1\n4\n1 2 3 4\n\n"
        assert parse_uai(text).n == 2

    def test_nonbinary_cardinality_rejected(self):
        text = "MARKOV\n2\n2 3\n0\n"
        with pytest.raises(UnsupportedCardinality) as info:
            parse_uai(text)
        assert info.value.line == 3

    @pytest.mark.parametrize(
        "text,line",
        [
            ("MARKOV\nxyz\n", 2),                       # bad variable count
            ("MARKOV\n1\n2\n1\n1 0\n3\n1 2 3\n", 6),    # table size not a power of two
            ("MARKOV\n1\n2\n1\n1 0\n2\n1 -2\n", 7),     # negative entry
            ("MARKOV\n1\n2\n1\n1 5\n2\n1 2\n", 5),      # scope out of range
            ("MARKOV\n1\n2\n1\n1 0\n2\n1 2\n9\n", 8),   # trailing token
            ("GRID\n1\n2\n0\n", 1),                     # unknown header
        ],
    )
    def test_malformed_inputs_report_line(self, text, line):
        with pytest.raises(ParseError) as info:
            parse_uai(text)
        assert info.value.line == line

    def test_truncated_file(self):
        with pytest.raises(ParseError):
            parse_uai("MARKOV\n2\n2 2\n1\n2 0 1\n4\n1 2\n")

    def test_round_trip_preserves_weights(self):
        model = gen_grid_ising(4, 4, coupling_w=0.7, seed=5)
        back = parse_uai(serialize_uai(model), name=model.name)
        rng = np.random.default_rng(9)
        for _ in range(100):
            bits = [int(b) for b in rng.integers(0, 2, size=16)]
            assert log_weight(back, bits) == pytest.approx(log_weight(model, bits), abs=1e-9)

    def test_round_trip_zero_entries(self):
        model = WeightedModel(1, (Factor((0,), np.array([float("-inf"), 0.0])),))
        back = parse_uai(serialize_uai(model))
        assert log_weight(back, [0]) == float("-inf")
        assert log_weight(back, [1]) == 0.0


class TestGenerators:
    def test_clique_zero_coupling_total(self):
        model = gen_clique_ising(8, coupling_w=0.0, seed=3)
        assert exact_log_partition(model) == pytest.approx(8 * LN2, abs=1e-12)

    def test_clique_coupling_bounds(self):
        # base couplings stay within w*sqrt(|i-j|); at most the 2 chains
        # (2 * floor(0.3 * 8) = 4 edges) may exceed, and never past +200w
        w = 0.1
        model = gen_clique_ising(8, coupling_w=w, seed=1)
        over = 0
        for f in model.factors:
            if len(f.scope) != 2:
                continue
            i, j = f.scope
            strength = -float(f.log_table[3])
            assert strength >= 0.0
            if strength > w * math.sqrt(abs(j - i)) + 1e-12:
                over += 1
                assert strength <= w * math.sqrt(abs(j - i)) + 2 * 100 * w
        assert over <= 4

    def test_clique_partition_matches_plain_sum(self):
        model = gen_clique_ising(10, coupling_w=0.1, seed=7)
        assert exact_log_partition(model) == pytest.approx(mp_log_partition(model), abs=1e-9)

    def test_grid_zero_coupling_zero_fields_total(self):
        model = gen_grid_ising(3, 3, coupling_w=0.0, seed=4)
        pairwise_only = WeightedModel(
            model.n, tuple(f for f in model.factors if len(f.scope) == 2), model.name
        )
        assert exact_log_partition(pairwise_only) == pytest.approx(9 * LN2, abs=1e-12)

    def test_grid_coupling_bounds(self):
        model = gen_grid_ising(3, 3, coupling_w=1.0, seed=2)
        over = 0
        for f in model.factors:
            if len(f.scope) != 2:
                continue
            strength = abs(float(f.log_table[0]))
            assert strength <= 10.0 + 1e-12
            if strength > 1.0 + 1e-12:
                over += 1
        assert over <= 4  # the 2x2 amplified rectangle holds at most 4 internal edges

    def test_grid_partition_matches_plain_sum(self):
        model = gen_grid_ising(3, 3, coupling_w=0.5, seed=2)
        assert exact_log_partition(model) == pytest.approx(mp_log_partition(model), abs=1e-9)

    def test_deterministic_under_seed(self):
        a = gen_grid_ising(3, 4, 0.8, seed=11)
        b = gen_grid_ising(3, 4, 0.8, seed=11)
        assert a.name == b.name
        for fa, fb in zip(a.factors, b.factors):
            assert fa.scope == fb.scope
            assert np.array_equal(fa.log_table, fb.log_table)

    def test_size_guards(self):
        with pytest.raises(InvalidSize):
            gen_clique_ising(3)
        with pytest.raises(InvalidSize):
            gen_grid_ising(1, 5, 0.5)


class TestExactReferences:
    def test_empty_model_partition(self):
        assert exact_log_partition(WeightedModel(5, ())) == pytest.approx(5 * LN2, abs=1e-12)

    def test_single_variable_partition(self):
        model = WeightedModel(1, (Factor((0,), np.log([1.0, 3.0])),))
        assert exact_log_partition(model) == pytest.approx(math.log(4.0), abs=1e-12)

    def test_quantiles_of_constant_model(self):
        curve = exact_quantiles(WeightedModel(4, ()))
        assert np.allclose(curve.log_values, 0.0)

    def test_quantiles_rank_readout(self):
        model = WeightedModel(2, (Factor((0, 1), np.log([8.0, 4.0, 2.0, 1.0])),))
        curve = exact_quantiles(model)
        assert np.exp(curve.log_values) == pytest.approx([8.0, 4.0, 1.0])

    def test_quantiles_non_increasing(self, small_models):
        for model in small_models:
            curve = exact_quantiles(model)
            assert np.all(curve.log_values[:-1] >= curve.log_values[1:])

    def test_size_guard(self):
        big = WeightedModel(25, ())
        with pytest.raises(TooLarge):
            exact_log_partition(big)
        with pytest.raises(TooLarge):
            exact_quantiles(big)

    def test_blocks_match_pointwise_evaluator(self):
        # widths 3 and 8 put most variables on the high-variable path, which
        # the production 2^18 blocks reach only above n = 18
        rng = np.random.default_rng(5)
        zeros = np.array([0.5, NEG_INF, -1.0, NEG_INF])
        edge_cases = [
            WeightedModel(0, (), name="no variables"),
            WeightedModel(3, (Factor((), [0.75]), Factor((), [-2.0])), name="empty scopes only"),
            WeightedModel(
                6,
                (
                    Factor((3, 1, 2), rng.normal(size=8)),
                    Factor((), [0.25]),
                    Factor((5, 0), zeros),
                    Factor((4,), [NEG_INF, 0.0]),
                    Factor((1, 4, 0), rng.normal(size=8)),
                ),
                name="unsorted scopes and zero weights",
            ),
        ]
        result = check_enumeration_agreement(model_zoo(40, 14, 7) + edge_cases, (3, 8, 18))
        assert result.passed, result.detail

    @pytest.mark.parametrize(
        "spec, log_w",
        [
            ("grid:4x4:w=1.0:seed=0", 35.88162832938161),
            ("clique:n=16:w=0.1:seed=0", 7.973747855755184),
            ("grid:4x5:w=1.0:seed=0", 44.354060207140584),
            ("clique:n=20:w=0.1:seed=0", 9.265234153874985),
        ],
    )
    def test_partition_pinned_on_benchmark_instances(self, spec, log_w):
        assert exact_log_partition(parse_gen_spec(spec)) == log_w

    def test_table_matches_scalar_reference(self):
        rng = np.random.default_rng(3)
        model = random_factor_model(6, rng)
        table = log_weight_table(model)
        for x in (0, 1, 17, 63):
            bits = [(x >> v) & 1 for v in range(6)]
            assert table[x] == pytest.approx(ref_log_weight(model, bits), abs=1e-12)


def wide_group_model() -> WeightedModel:
    """Group 19 spans a 20-bit window, past the per-group cap; group 3 spans 2 bits."""
    rng = np.random.default_rng(9)
    factors = (Factor((19, 0), rng.normal(size=4)), Factor((3, 2), rng.normal(size=4)))
    return WeightedModel(20, factors, name="a group wider than the per-group cap")


class TestWindows:
    def test_tables_match_completed(self):
        rng = np.random.default_rng(8)
        signed = np.array([0.5, NEG_INF, -0.0, NEG_INF])
        edge_cases = [
            WeightedModel(0, (), name="no variables"),
            WeightedModel(
                7,
                (
                    Factor((3, 1, 2), rng.normal(size=8)),
                    Factor((), [0.25]),
                    Factor((5, 0), signed),
                    Factor((4,), [NEG_INF, -0.0]),
                    Factor((1, 4, 0), rng.normal(size=8)),
                    Factor((6, 2), signed[::-1]),
                ),
                name="unsorted scopes, -inf and -0.0 entries",
            ),
            wide_group_model(),
            WeightedModel(
                100,
                tuple(Factor((v + 1, v - 1, v), rng.normal(size=8)) for v in range(1, 99, 3))
                + (Factor((99,), [NEG_INF, 1.0]),),
                name="n > 64",
            ),
        ]
        result = check_window_agreement(model_zoo(40, 14, 7) + edge_cases)
        assert result.passed, result.detail

    def test_wide_group_scores_through_completed(self):
        compiled = wide_group_model().compiled
        lo, mask, table = compiled.windows[19]
        assert (lo, mask) == (0, -1) and not isinstance(table, array)
        for x in (0, 1, 1 << 19, (1 << 20) - 1):
            assert table[(x >> lo) & mask] == float(compiled.completed(19, x))
        assert isinstance(compiled.windows[3][2], array)

    def test_large_grid_stays_within_budget(self):
        windows = gen_grid_ising(15, 15, coupling_w=1.0, seed=0).compiled.windows
        sizes = [len(table) for _, _, table in windows if isinstance(table, array)]
        assert 0 < len(sizes) < len(windows)
        assert max(sizes) <= WINDOW_ENTRIES
        assert sum(sizes) <= WINDOW_BUDGET


class TestQuantileCurve:
    def test_rejects_increasing_values(self):
        with pytest.raises(StructuralError):
            QuantileCurve(2, np.array([0.0, 1.0, 0.5]))

    def test_rejects_wrong_length(self):
        with pytest.raises(StructuralError):
            QuantileCurve(3, np.array([0.0, -1.0]))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=12))
    def test_sorted_values_always_accepted(self, values):
        ordered = np.sort(np.asarray(values))[::-1]
        curve = QuantileCurve(len(values) - 1, ordered)
        assert curve.n == len(values) - 1
