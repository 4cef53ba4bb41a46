import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adawish.cli import parse_gen_spec
from adawish.errors import InvalidSize, ParseError, StructuralError, TooLarge, UnsupportedCardinality
from adawish.logspace import LN2, NEG_INF
from adawish.model import (
    BLOCK_BITS,
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
from adawish.model import _group_sum
from adawish.verify import (
    benchmark_models,
    check_cost_to_go,
    check_enumeration_agreement,
    check_window_agreement,
    model_zoo,
)

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

    @pytest.mark.parametrize("w", [math.nan, math.inf, -1.0])
    @pytest.mark.parametrize("family", ["grid", "clique"])
    def test_bad_coupling_rejected(self, family, w):
        with pytest.raises(StructuralError, match="coupling w must be finite and >= 0"):
            if family == "grid":
                gen_grid_ising(2, 2, coupling_w=w)
            else:
                gen_clique_ising(5, coupling_w=w)

    def test_size_guards(self):
        with pytest.raises(InvalidSize):
            gen_clique_ising(3)
        with pytest.raises(InvalidSize):
            gen_grid_ising(1, 5, 0.5)


# float.hex of exact_quantiles on the benchmark instances, bit for bit
PINNED_QUANTILES = {
    "grid:4x4:w=1.0:seed=0": """
        0x1.03198c7bd10e6p+5 0x1.fbede1b5db445p+4 0x1.f9958d86645cdp+4
        0x1.f60b1d13637f9p+4 0x1.ef5056449d847p+4 0x1.e8f63b660ce1fp+4
        0x1.df66ae435d858p+4 0x1.d4e810f8eaf3fp+4 0x1.c9bf9d90bf28cp+4
        0x1.bd86edbb24fb5p+4 0x1.aedaaa2eec862p+4 0x1.9c4a283ddb8dfp+4
        0x1.83218fdf1e768p+4 0x1.042b63fac5686p+4 0x1.4903a483f678dp+2
        0x1.0ab623b86b200p-9 -0x1.05bf0cc6539eep+5
    """,
    "clique:n=16:w=0.1:seed=0": """
        0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 -0x1.6c308b21b53e5p-6
        -0x1.3674ec4b58966p-4 -0x1.4f3847477142dp-3 -0x1.1d0bb439faea0p-2
        -0x1.c2c0836cfa117p-2 -0x1.54ecaf5fde65cp-1 -0x1.f4ee86139e60ap-1
        -0x1.6fe60a923120ap+0 -0x1.18a2caea01aaap+1 -0x1.fd622f08391c6p+1
        -0x1.68ac85a28ec13p+3 -0x1.b7e874da33305p+5
    """,
    "grid:4x5:w=1.0:seed=0": """
        0x1.3e14c73d13548p+5 0x1.3dde579fcd049p+5 0x1.3ae0187a7f0c0p+5
        0x1.392b24a160a74p+5 0x1.367f22b3415c6p+5 0x1.335728da2e158p+5
        0x1.2fac8074387e7p+5 0x1.2bfd7e4ed004fp+5 0x1.27bd9dc82a3fap+5
        0x1.236007b9005ffp+5 0x1.1e74adaf4f517p+5 0x1.17d18f7c5859dp+5
        0x1.104a64519cc97p+5 0x1.062d538a7657ep+5 0x1.eea2f04307d6ap+4
        0x1.a52ce6bf19f35p+4 0x1.58fca2dadbfe9p+4 0x1.0f5165edd2c00p+4
        0x1.1363aa6d49b68p+3 -0x1.043e45e3fb500p-9 -0x1.4031652c99000p+5
    """,
    "clique:n=20:w=0.1:seed=0": """
        0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 -0x1.dd49cdeff8ed0p-7
        -0x1.a67cc48be9ee6p-5 -0x1.daf8f93ea7b4cp-4 -0x1.a691cdc167cd8p-3
        -0x1.3e497feb10ad3p-2 -0x1.dce58e5a2e384p-2 -0x1.52bae37ef0852p-1
        -0x1.d630228c98dbep-1 -0x1.44c2ea12720eep+0 -0x1.bc901f202c4f4p+0
        -0x1.31b9034dd6e1fp+1 -0x1.b42d1850cb06cp+1 -0x1.4d70155926cc1p+2
        -0x1.3a7b467f65ed6p+3 -0x1.1e0ed70a7ed18p+4 -0x1.413b0f23f0dcep+6
    """,
}


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

    @pytest.mark.parametrize("spec", list(PINNED_QUANTILES))
    def test_quantiles_pinned_on_benchmark_instances(self, spec):
        curve = exact_quantiles(parse_gen_spec(spec))
        assert [v.hex() for v in curve.log_values.tolist()] == PINNED_QUANTILES[spec].split()

    def test_blocks_match_pointwise_evaluator_at_production_width(self):
        # n = 20 > BLOCK_BITS: four 2^18 blocks, with groups 18 and 19 on the
        # high-variable path; factor (5, 19, 12) has a length-1 axis for 18
        rng = np.random.default_rng(21)
        zeros = np.array([0.5, NEG_INF, -1.0, NEG_INF])
        sparse = WeightedModel(
            20,
            (
                Factor((19, 2, 11, 0, 7, 15, 4, 18), rng.normal(size=256)),
                Factor((18, 3), zeros),
                Factor((5, 19, 12), rng.normal(size=8)),
                Factor((9,), [NEG_INF, 0.0]),
                Factor((), [0.25]),
                Factor((13, 6), rng.normal(size=4)),
                Factor((17, 1, 10), rng.normal(size=8)),
                Factor((16, 8, 14), rng.normal(size=8)),
            ),
            name="sparse n=20 with a wide factor",
        )
        result = check_enumeration_agreement([sparse], (BLOCK_BITS,))
        assert result.passed, result.detail

    def test_group_sum_steps_never_write_over_their_input(self):
        # numpy would still add correctly into an overlapping out= (it copies
        # the input first), so only where each step lands shows the two
        # scratch rows alternate
        rng = np.random.default_rng(4)
        terms = [rng.normal(size=shape) for shape in [(2, 2, 1), (2, 1, 2), (2, 2, 2)]]
        scratch = np.full((2, 8), np.nan)
        total = _group_sum(terms, (2, 1, 1), scratch)
        assert np.array_equal(total, np.zeros((2, 1, 1)) + terms[0] + terms[1] + terms[2])
        assert np.shares_memory(total, scratch[1]) and not np.shares_memory(total, scratch[0])
        assert np.array_equal(scratch[0].reshape(2, 2, 2), np.zeros((2, 1, 1)) + terms[0] + terms[1])

    def test_table_matches_scalar_reference(self):
        rng = np.random.default_rng(3)
        model = random_factor_model(6, rng)
        table = log_weight_table(model)
        for x in (0, 1, 17, 63):
            bits = [(x >> v) & 1 for v in range(6)]
            assert table[x] == pytest.approx(ref_log_weight(model, bits), abs=1e-12)


def signed_entries_model(rng: np.random.Generator) -> WeightedModel:
    """Unsorted scopes, a constant factor, -inf and -0.0 entries, and an empty group (6)."""
    signed = np.array([0.5, NEG_INF, -0.0, NEG_INF])
    return WeightedModel(
        8,
        (
            Factor((3, 1, 2), rng.normal(size=8)),
            Factor((), [0.25]),
            Factor((5, 0), signed),
            Factor((4,), [NEG_INF, -0.0]),
            Factor((1, 4, 0), rng.normal(size=8)),
            Factor((7, 2), signed[::-1]),
        ),
        name="unsorted scopes, -inf and -0.0 entries",
    )


def wide_group_model() -> WeightedModel:
    """Group 19 spans a 20-bit window, past the per-group cap; group 3 spans 2 bits."""
    rng = np.random.default_rng(9)
    factors = (Factor((19, 0), rng.normal(size=4)), Factor((3, 2), rng.normal(size=4)))
    return WeightedModel(20, factors, name="a group wider than the per-group cap")


class TestWindows:
    def test_tables_match_completed(self):
        rng = np.random.default_rng(8)
        edge_cases = [
            WeightedModel(0, (), name="no variables"),
            signed_entries_model(rng),
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
        assert (lo, mask) == (0, -1) and not isinstance(table, memoryview)
        for x in (0, 1, 1 << 19, (1 << 20) - 1):
            assert table[(x >> lo) & mask] == float(compiled.completed(19, x))
        assert isinstance(compiled.windows[3][2], memoryview)

    def test_large_grid_stays_within_budget(self):
        windows = gen_grid_ising(15, 15, coupling_w=1.0, seed=0).compiled.windows
        sizes = [len(table) for _, _, table in windows if isinstance(table, memoryview)]
        assert 0 < len(sizes) < len(windows)
        assert max(sizes) <= WINDOW_ENTRIES
        assert sum(sizes) <= WINDOW_BUDGET


class TestBranchTables:
    def test_cost_to_go_covers_every_leaf(self):
        edge_cases = [
            WeightedModel(0, (), name="no variables"),
            signed_entries_model(np.random.default_rng(8)),
            WeightedModel(3, (Factor((0, 2), [NEG_INF] * 4),), name="no assignment has weight"),
        ]
        result = check_cost_to_go(model_zoo(40, 14, 7) + benchmark_models(16) + edge_cases)
        assert result.passed, result.detail

    def test_grid_bounds_are_tighter_than_bound_tail(self):
        compiled = gen_grid_ising(4, 4, coupling_w=1.0, seed=0).compiled
        tighter = [
            v for v, (_, _, _, bound) in enumerate(compiled.branch_tables)
            if min(bound) < compiled.bound_tail[v + 1]
        ]
        assert tighter == list(range(15))

    def test_clique_bounds_are_bound_tail(self):
        # clique factors are <= 0 with 0 at the all-zero entry, so the
        # cost-to-go table is no tighter and pruning stays exactly as without it
        model = gen_clique_ising(30, coupling_w=0.1, seed=0)
        compiled = model.compiled
        for v, (lo, mask, _, bound) in enumerate(compiled.branch_tables):
            for x in (0, 1 << v, (1 << (v + 1)) - 1):
                assert bound[(x >> lo) & mask] == compiled.bound_tail[v + 1]

    def test_unsorted_wide_group_keeps_bound_tail(self):
        compiled = wide_group_model().compiled
        lo, mask, score, bound = compiled.branch_tables[19]
        assert (lo, mask, score) == compiled.windows[19]
        assert bound[(1 << 20) - 1] == compiled.bound_tail[20] == 0.0


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
