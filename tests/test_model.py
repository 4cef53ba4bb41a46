import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adawish import gf2
from adawish import model as model_module
from adawish.cli import parse_gen_spec
from adawish.errors import InvalidSize, ParseError, StructuralError, TooLarge, UnsupportedCardinality
from adawish.logspace import LN2, NEG_INF, log_sum_exp
from adawish.model import (
    BLOCK_BITS,
    FRONTIER_BITS,
    PREFIX_BITS,
    WINDOW_BUDGET,
    WINDOW_ENTRIES,
    CompiledModel,
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
    parse_uai,
    serialize_uai,
)
from adawish.model import _group_sum, _select_quantiles
from adawish.oracle import map_solve, sample_parity_system
from adawish.seeds import rng_from
from adawish.verify import (
    benchmark_models,
    check_cost_to_go,
    check_enumeration_agreement,
    check_partition_agreement,
    check_solver_agreement,
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

    def test_assignment_forms_agree(self):
        model = gen_grid_ising(2, 2, coupling_w=0.7, seed=1)
        expected = log_weight(model, 0b0110)
        for x in (np.int64(0b0110), [0, 1, 1, 0], [False, True, True, False], [0, 1.0, 1, 0]):
            assert log_weight(model, x) == expected


class TestModelValidation:
    @pytest.mark.parametrize(
        "scope, table, message",
        [
            ((0, 0), [0.0] * 4, r"duplicate variable in scope \(0, 0\)"),
            ((0, 1), [0.0] * 3, "table size 3 does not match scope arity 2"),
            ((0,), [0.0, math.nan], "factor entries must be finite or -inf"),
            ((0,), [0.0, math.inf], "factor entries must be finite or -inf"),
        ],
        ids=["duplicate-variable", "table-size", "nan-entry", "inf-entry"],
    )
    def test_bad_factor_rejected(self, scope, table, message):
        with pytest.raises(StructuralError, match=f"^{message}$"):
            Factor(scope, np.array(table))

    def test_finite_entries_pass_even_when_their_sum_overflows(self):
        # the cheap check sums the entries; an overflowing sum falls back to the max
        table = np.array([1e308, 1e308, NEG_INF, 0.0])
        assert Factor((0, 1), table).log_table is table
        with pytest.raises(StructuralError, match="^factor entries must be finite or -inf$"):
            Factor((0, 1), np.array([1e308, 1e308, math.inf, 0.0]))

    def test_bad_model_rejected(self):
        with pytest.raises(StructuralError, match="^negative variable count$"):
            WeightedModel(-1, ())
        with pytest.raises(StructuralError, match=r"^scope \(1, 3\) outside 3 variables$"):
            WeightedModel(3, (Factor((1, 3), np.zeros(4)),))
        with pytest.raises(StructuralError, match=r"^scope \(-1,\) outside 3 variables$"):
            WeightedModel(3, (Factor((-1,), np.zeros(2)),))


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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("MARKOV\n-1\n", "line 2: variable count must be >= 0, got -1"),
            ("MARKOV\n1\n2\n1\n-2 0\n", "line 5: scope size of factor 0 must be >= 0, got -2"),
            ("MARKOV\n1\n2\n1\n1 0\n2\n1 x\n",
             "line 7: expected number for table entry of factor 0, got 'x'"),
            ("MARKOV\n2\n2 2\n1\n2 1 1\n4\n1 2 3 4\n", "line 5: factor 0 repeats a variable in its scope"),
        ],
        ids=["negative-count", "negative-scope-size", "non-numeric-entry", "repeated-scope-variable"],
    )
    def test_malformed_inputs_name_the_fault(self, text, message):
        with pytest.raises(ParseError) as info:
            parse_uai(text)
        assert str(info.value) == message

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

    # sha256 (first 32 hex digits) of every factor's repr(scope) and
    # log_table.tobytes(), in order, on the benchmark instances: the draws
    # of one call per array give the values and the generator state of one
    # call per coupling, and the clique's chains read that state
    PINNED_DIGESTS = {
        "grid:3x4:w=1.0:seed=2": "c50d6d594b623d882f7041038ba44519",
        "clique:n=12:w=0.1:seed=0": "51eddd388110e621e06af9521ff88ff3",
        "grid:4x4:w=1.0:seed=0": "078bc9febed06eed280d7e479daf377e",
        "clique:n=16:w=0.1:seed=0": "e45ffa208cbe4417007a97e2ae7679a4",
        "grid:4x5:w=1.0:seed=0": "df4a7e6585ec45f39e59355deef6e8bd",
        "clique:n=20:w=0.1:seed=0": "601f48ae1d38ac4084ab3d3794a775bc",
    }

    @pytest.mark.parametrize("spec", sorted(PINNED_DIGESTS))
    def test_generator_is_pinned(self, spec):
        digest = hashlib.sha256()
        for f in parse_gen_spec(spec).factors:
            digest.update(repr(f.scope).encode())
            digest.update(f.log_table.tobytes())
        assert digest.hexdigest()[:32] == self.PINNED_DIGESTS[spec]

    @pytest.mark.parametrize("spec", sorted(PINNED_DIGESTS) + ["clique:n=4:w=0.1:seed=0", "grid:2x2:w=1.0:seed=0"])
    def test_generated_factors_equal_their_checked_rebuild(self, spec):
        # the generators skip Factor's per-factor check; each factor must be
        # what the checked constructor would have made of its scope and table
        for f in parse_gen_spec(spec).factors:
            rebuilt = Factor(f.scope, f.log_table)
            assert type(f.scope) is tuple and all(type(v) is int for v in f.scope)
            assert f.scope == rebuilt.scope
            assert f.log_table.dtype == rebuilt.log_table.dtype and f.log_table.shape == rebuilt.log_table.shape
            assert f.log_table.tobytes() == rebuilt.log_table.tobytes()

    @pytest.mark.parametrize("spec", ["clique:n=16:w=0.1:seed=0", "grid:3x4:w=1.0:seed=2"])
    def test_generated_model_equals_its_checked_rebuild(self, spec):
        # the generators skip WeightedModel's per-factor scope check; each
        # model must be what the checked constructor makes of its fields,
        # and the same factors under too few variables still raise there
        model = parse_gen_spec(spec)
        rebuilt = WeightedModel(model.n, model.factors, name=model.name)
        assert (model.n, model.name) == (rebuilt.n, rebuilt.name)
        assert type(model.factors) is tuple and model.factors == rebuilt.factors
        with pytest.raises(StructuralError, match=f"outside {model.n - 1} variables$"):
            WeightedModel(model.n - 1, model.factors)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_generator_builder_refuses_nan_and_plus_inf(self, bad):
        tables = np.zeros((3, 4))
        tables[2, 1] = bad
        with pytest.raises(StructuralError, match="^factor entries must be finite or -inf$"):
            model_module._trusted_factors([(0, 1), (0, 2), (1, 2)], tables)
        tables[2, 1] = NEG_INF  # -inf is a zero weight, which a factor may hold
        assert len(model_module._trusted_factors([(0, 1), (0, 2), (1, 2)], tables)) == 3

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
        # a clique's frontier spans every earlier variable, so a clique
        # enumerates, and n = 25 is past enumeration
        with pytest.raises(TooLarge):
            exact_log_partition(gen_clique_ising(25, coupling_w=0.1, seed=0))
        with pytest.raises(TooLarge):
            exact_quantiles(WeightedModel(25, ()))

    def test_recursion_reaches_past_enumeration(self):
        # every group of a model without factors has a one-bit window and an empty frontier
        for n in (25, 100):
            assert exact_log_partition(WeightedModel(n, ())) == pytest.approx(n * LN2, rel=1e-15)

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
            signed_entries_model(rng),
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

    # recorded from the backward recursion, which alone reaches these grids
    @pytest.mark.parametrize(
        "spec, log_w",
        [
            ("grid:6x6:w=1.0:seed=0", 91.24718514286621),
            ("grid:10x10:w=1.0:seed=0", 256.0867154860274),
        ],
    )
    def test_partition_pinned_past_enumeration(self, spec, log_w):
        model = parse_gen_spec(spec)
        assert model.compiled.log_partition() is not None
        assert exact_log_partition(model) == log_w

    def test_recursion_matches_enumeration_on_the_largest_enumerable_grid(self):
        # grid 4x6 has n = 24, the enumeration limit: the pins above come
        # from the path checked here against all 2^24 weights
        model = parse_gen_spec("grid:4x6:w=1.0:seed=0")
        log_z, bound = model.compiled.log_partition()
        enumerated = enumerated_log_partition(model)
        assert abs(log_z - enumerated) <= 2.0 * bound
        assert bound < 1e-12
        assert exact_log_partition(model) == log_z

    def test_recursion_stops_where_a_frontier_or_window_does_not_fit(self):
        # clique 13's widest frontier is 12 bits, clique 14's 13; grid 12x12 passes WINDOW_BUDGET
        assert parse_gen_spec("clique:n=13:w=0.1:seed=0").compiled.log_partition() is not None
        clique, grid = parse_gen_spec("clique:n=14:w=0.1:seed=0"), parse_gen_spec("grid:12x12:w=1.0:seed=0")
        assert clique.compiled.log_partition() is None and grid.compiled.log_partition() is None
        assert exact_log_partition(clique) == enumerated_log_partition(clique)
        with pytest.raises(TooLarge):
            exact_log_partition(grid)

    def test_cliques_enumerate(self):
        # a clique's recursion reduces 2^(n+1) - 2 entries, more than the 2^n
        # the enumeration reads, so clique 12 enumerates though the recursion reaches it
        model = parse_gen_spec("clique:n=12:w=0.1:seed=0")
        assert model.compiled.log_partition() is not None
        assert exact_log_partition(model) == enumerated_log_partition(model)

    @pytest.mark.parametrize("spec", ["grid:3x4:w=1.0:seed=2", "grid:4x4:w=1.0:seed=0"])
    def test_grids_take_the_recursion(self, spec, monkeypatch):
        # a grid's frontiers span one row, so its recursion reduces far fewer than 2^n entries
        def refuse(model):
            raise AssertionError("enumerated")

        model = parse_gen_spec(spec)
        monkeypatch.setattr(model_module, "enumerated_log_partition", refuse)
        assert exact_log_partition(model) == model.compiled.log_partition()[0]

    def test_clique_partition_from_the_prefix_equals_the_one_block_reduction(self):
        # clique 16 enumerates in 2^PREFIX_BITS blocks over the kept prefix;
        # its value equals the single 2^16 block's reduction, the pinned one
        model = parse_gen_spec("clique:n=16:w=0.1:seed=0")
        one_block = log_sum_exp([log_sum_exp(block) for block in model.compiled.blocks(BLOCK_BITS)])
        assert enumerated_log_partition(model) == one_block == 7.973747855755184
        assert "prefix" in model.compiled.__dict__

    def test_prefix_blocks_match_the_evaluator_where_high_windows_start_above_bit_0(self):
        # grid 4x4's windows of groups 13..15 start at bits 9..11, so each block
        # adds a row spread over the bits below; its log Z agrees within 2B
        model = parse_gen_spec("grid:4x4:w=1.0:seed=0")
        assert [lo for lo, _, _ in model.compiled.windows[PREFIX_BITS:]] == [9, 10, 11]
        result = check_enumeration_agreement([model, parse_gen_spec("clique:n=15:w=0.1:seed=0")], (PREFIX_BITS,))
        assert result.passed, result.detail
        log_z, bound = model.compiled.log_partition()
        assert abs(enumerated_log_partition(model) - log_z) <= 2.0 * bound

    def test_partition_falls_back_to_block_bits_past_an_untabled_group(self):
        # clique 17's group 16 spans 2^17 entries, past WINDOW_ENTRIES: one 2^17 block, no prefix
        model = parse_gen_spec("clique:n=17:w=0.1:seed=0")
        assert not isinstance(model.compiled.windows[16][2], memoryview)
        one_block = log_sum_exp([log_sum_exp(block) for block in model.compiled.blocks(BLOCK_BITS)])
        assert enumerated_log_partition(model) == one_block
        assert "prefix" not in model.compiled.__dict__

    def test_partition_from_the_prefix_allocates_no_full_table(self):
        # with the prefix kept (as the sweep leaves it), the enumeration holds
        # one 2^PREFIX_BITS block and its log-sum-exp temporaries, not 2^16 entries
        model = parse_gen_spec("clique:n=16:w=0.1:seed=0")
        model.compiled.prefix
        tracemalloc.start()
        try:
            enumerated_log_partition(model)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * (1 << 16)

    def test_partition_agreement_on_the_zoo(self):
        edge_cases = [
            WeightedModel(0, (), name="no variables"),
            WeightedModel(3, (Factor((), [NEG_INF]), Factor((0, 1), [0.0, 1.0, 2.0, 3.0])), name="-inf constant"),
            WeightedModel(3, (Factor((0, 2), [NEG_INF] * 4),), name="no assignment has weight"),
            signed_entries_model(np.random.default_rng(8)),
            wide_group_model(),
        ]
        result = check_partition_agreement(model_zoo(40, 16, 7) + benchmark_models(16) + edge_cases)
        assert result.passed, result.detail
        reached, total = map(int, result.detail.split()[:3:2])
        assert 0 < reached < total  # both paths ran

    def test_partition_check_catches_a_wrong_recursion(self, monkeypatch):
        # a log-sum-exp that drops the smaller term is the max: far past the bound on any grid
        monkeypatch.setattr(CompiledModel, "log_partition", lambda self: (
            self.const + float(self.eliminate(np.maximum)[0][0]), 1e-12))
        result = check_partition_agreement([gen_grid_ising(3, 3, coupling_w=1.0, seed=2)])
        assert not result.passed and "recursion" in result.detail

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

    def test_blocks_read_window_tables_and_sum_untabled_prefix_groups(self):
        # a prefix group's sum comes from its window table when it has one
        # and is summed here otherwise: on clique n = 20 groups 0..15
        # are tabled, 16 and 17 pass WINDOW_ENTRIES, and 18 and 19 are high
        model = parse_gen_spec("clique:n=20:w=0.1:seed=0")
        tabled = [isinstance(table, memoryview) for _, _, table in model.compiled.windows]
        assert tabled == [True] * 16 + [False] * 4
        result = check_enumeration_agreement([model], (BLOCK_BITS,))
        assert result.passed, result.detail

    def test_group_sum_steps_never_write_over_their_input(self):
        # numpy would still add correctly into an overlapping out= (it copies
        # the input first), so only where each step lands shows the two
        # scratch rows alternate
        # terms on the axes of bits 2, 1, 0 (length 1 where a term does not
        # read the bit), handed over as (bit mask, table on its own bits)
        rng = np.random.default_rng(4)
        terms = [rng.normal(size=shape) for shape in [(2, 2, 1), (2, 1, 2), (2, 2, 2)]]
        masks = [0b110, 0b101, 0b111]
        own = [(mask, t.reshape((2,) * mask.bit_count())) for mask, t in zip(masks, terms)]
        scratch = np.full((2, 8), np.nan)
        have, total = _group_sum(own, 0b100, scratch)
        assert have == 0b111
        assert np.array_equal(total.reshape(2, 2, 2), np.zeros((2, 1, 1)) + terms[0] + terms[1] + terms[2])
        assert np.shares_memory(total, scratch[1]) and not np.shares_memory(total, scratch[0])
        assert np.array_equal(scratch[0].reshape(2, 2, 2), np.zeros((2, 1, 1)) + terms[0] + terms[1])

    def test_group_sum_writes_its_last_step_into_the_destination(self):
        # the last step spreads over a bit no term reads (bit 1) and never
        # lands in scratch, which keeps the steps before it
        table = np.array([1.0, -2.0, 0.5, 4.0])  # scope (0, 2): bit 0 most significant
        scratch = np.full((2, 8), np.nan)
        out = np.full(8, np.nan)
        _group_sum([(0b101, table.reshape(2, 2).T)], 0b100, scratch, out, 0b111)
        expected = [table[2 * (x & 1) + (x >> 2)] for x in range(8)]
        assert np.array_equal(out, 0.0 + np.array(expected))
        assert np.isnan(scratch[1]).all() and np.isnan(scratch[0][2:]).all()

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


def hexes(values: np.ndarray) -> list[str]:
    return [v.hex() for v in values.tolist()]


def sorted_readout(table: np.ndarray) -> list[str]:
    """float.hex of the ascending sort of a 2^n table read at 2^n - 2^i, i = 0..n."""
    ranks = table.size - (1 << np.arange(table.size.bit_length()))
    return hexes(np.sort(table)[ranks])


@st.composite
def tables_with_repeats(draw) -> np.ndarray:
    """2^n floats (n <= 7) drawn from a pool of at most four values.

    x + 0.0 turns -0.0 into 0.0: the two tie, so a sort and a selection may
    read either, and a log-weight table holds no -0.0.
    """
    n = draw(st.integers(0, 7))
    value = st.floats(allow_nan=False).map(lambda x: x + 0.0) | st.just(NEG_INF)
    pool = draw(st.lists(value, min_size=1, max_size=4))
    picks = draw(st.lists(st.sampled_from(pool), min_size=1 << n, max_size=1 << n))
    return np.array(picks)


class TestQuantileSelection:
    """`exact_quantiles` selects what a full sort of the table reads, bit for bit.

    The model zoo and clique 20 reach the selection through
    `check_enumeration_agreement` (TestExactReferences), and grid 4x5 and
    clique 20 through their pinned curves, which a full sort produced.
    """

    @pytest.mark.parametrize(
        "model",
        [
            WeightedModel(0, (), name="n=0"),
            WeightedModel(1, (Factor((0,), np.log([1.0, 3.0])),), name="n=1"),
            WeightedModel(2, (Factor((0, 1), np.log([8.0, 4.0, 2.0, 1.0])),), name="n=2"),
            WeightedModel(2, (Factor((1, 0), [0.5, -1.0, 0.5, 2.0]),), name="n=2 with a tie"),
            WeightedModel(7, (), name="all ties"),
            WeightedModel(
                5,
                (Factor((3, 1), [0.0, NEG_INF, 1.5, NEG_INF]), Factor((4,), [-2.0, 0.5])),
                name="-inf entries",
            ),
            WeightedModel(4, (Factor((2,), [NEG_INF, NEG_INF]),), name="all -inf"),
        ],
        ids=lambda m: m.name,
    )
    def test_matches_sort_on_edge_cases(self, model):
        assert hexes(exact_quantiles(model).log_values) == sorted_readout(log_weight_table(model))

    @settings(max_examples=200, deadline=None)
    @given(tables_with_repeats())
    def test_selection_matches_sort_on_tables_with_repeats(self, table):
        want, entries = sorted_readout(table), np.sort(table)
        assert hexes(_select_quantiles(table)) == want
        assert np.array_equal(np.sort(table), entries)  # permuted in place, nothing lost

    def test_enumeration_check_catches_a_wrong_selection(self, monkeypatch):
        # one rank too low at every i, a smaller value wherever the two ranks do not tie
        def off_by_one(model):
            table = np.sort(log_weight_table(model))
            ranks = np.maximum(table.size - (1 << np.arange(model.n + 1)) - 1, 0)
            return QuantileCurve(model.n, table[ranks])

        monkeypatch.setattr("adawish.verify.exact_quantiles", off_by_one)
        result = check_enumeration_agreement(model_zoo(3, 10, 7), (BLOCK_BITS,))
        assert not result.passed and result.detail.endswith("exact_quantiles")

    def test_selection_makes_no_second_table(self):
        # every group of grid 4x4 reads its window, so `blocks` needs no
        # scratch and the 2^16 table should be all that the call holds
        model = parse_gen_spec("grid:4x4:w=1.0:seed=0")
        exact_quantiles(model)  # builds the window tables, which the model keeps
        tracemalloc.start()
        try:
            exact_quantiles(model)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * (1 << 16)


class TestCosetWeights:
    def test_every_point_weighs_what_log_weight_gives(self):
        # the prefix key, each later group's window key, or an untabled
        # group's factor indices, spanned over each coset: every weight
        # equals the per-point evaluator bit for bit, -inf and -0.0 entries
        # included.  n = 12..15 lie on both sides of the prefix width; the
        # seam model has -inf and -0.0 entries in a prefix group and a group
        # past the prefix reading variables below it; clique 25 has
        # untabled groups and grid 33x2 66 variables
        assert PREFIX_BITS == 13
        rng = np.random.default_rng(4)
        signed = [0.5, NEG_INF, -0.0, NEG_INF]
        seam = WeightedModel(
            15,
            tuple(Factor((v, (v + 4) % 15), rng.normal(size=4)) for v in range(15))
            + (Factor((12, 3), signed), Factor((2, 14, 9), rng.normal(size=8)), Factor((), [-1.5])),
            name="-inf and -0.0 in a prefix group, a later group reading below the prefix",
        )
        zero = WeightedModel(15, seam.factors + (Factor((), [NEG_INF]),), name="const -inf")
        models = model_zoo(9, 12, 5) + [
            gen_grid_ising(3, 4, coupling_w=1.0, seed=1),
            gen_clique_ising(13, coupling_w=0.1, seed=1),
            gen_grid_ising(2, 7, coupling_w=1.0, seed=1),
            gen_grid_ising(3, 5, coupling_w=1.0, seed=1),
            seam,
            zero,
            signed_entries_model(rng),
            wide_group_model(),
            gen_clique_ising(25, coupling_w=0.1, seed=0),
            gen_grid_ising(33, 2, coupling_w=1.0, seed=0),
        ]
        for model in models:
            n, k = model.n, min(model.n, 5)
            systems = sample_parity_system(n, n - k, rng_from(0, n), 6)
            cosets = [c for c in map(gf2.row_reduce, systems) if c.x0 is not None and c.nulls.count(None) == n - k]
            assert cosets
            bits = gf2.basis_bits(cosets)
            weights = model.compiled.coset_weights(bits)
            points = gf2.span(bits.transpose(1, 0, 2))  # (2^k, count, n) 0/1
            assert weights.shape == points.shape[:2] == (1 << k, len(cosets))
            for s, t in itertools.product(range(1 << k), range(len(cosets))):
                x = sum(1 << v for v in np.flatnonzero(points[s, t]).tolist())
                want = model.compiled.log_weight(x)
                assert weights[s, t] == want and np.signbit(weights[s, t]) == np.signbit(want), (model.name, s, t)


    def test_descending_order_is_a_stable_sort_of_the_prefix(self):
        # the scan's order: prefix entries by descending weight, equal ones
        # (ties, -inf, -0.0 beside 0.0) in ascending index, built on first use
        # and kept read-only
        rng = np.random.default_rng(6)
        ties = WeightedModel(6, (Factor((0, 1), [0.0, 1.0, 1.0, -0.0]), Factor((4,), [NEG_INF, 0.5])), name="ties")
        for model in (ties, gen_clique_ising(12, 0.1, seed=0), signed_entries_model(rng), gen_grid_ising(2, 7, 1.0, seed=1)):
            compiled = model.compiled
            assert "descending" not in compiled.__dict__
            order = compiled.descending
            assert compiled.descending is order and not order.flags.writeable
            prefix = compiled.prefix
            assert order.size == prefix.size == 1 << min(model.n, PREFIX_BITS)
            keys = sorted(range(prefix.size), key=lambda x: (-prefix[x], x))
            assert order.tolist() == keys, model.name


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

    def test_minus_inf_constant_builds_without_warning(self):
        # a scope-less factor of weight 0 made mu infinite, and H + mu warned
        # (an error here) at every -inf entry of H; every leaf is -inf
        model = WeightedModel(3, (
            Factor((), [NEG_INF]),
            Factor((0, 1), [0.0, NEG_INF, 1.0, 2.0]),
            Factor((1, 2), [0.0, 1.0, NEG_INF, NEG_INF]),
        ))
        result = map_solve(model, gf2.Gf2System(3, (), ()))
        assert (result.log_value, result.assignment, result.exact, result.feasible) == (NEG_INF, None, True, True)
        check = check_cost_to_go([model])
        assert check.passed, check.detail

    def test_list_and_memoryview_tables_agree(self):
        # clique 14's windows reach 2^15 entries, so its search reads lists
        # up to 2^FRONTIER_BITS entries and memoryviews past them; every
        # table of the grid is a list
        clique, grid = parse_gen_spec("clique:n=14:w=0.1:seed=0"), parse_gen_spec("grid:3x4:w=1.0:seed=2")
        kinds = [type(score) for _, _, score, _ in clique.compiled.branch_tables]
        assert kinds == [list] * FRONTIER_BITS + [memoryview] * (14 - FRONTIER_BITS)
        assert all(type(bound) is type(score) for _, _, score, bound in clique.compiled.branch_tables)
        assert {type(score) for _, _, score, _ in grid.compiled.branch_tables} == {list}
        for check in (check_window_agreement, check_cost_to_go):
            result = check([clique, grid])
            assert result.passed, result.detail
        result = check_solver_agreement([clique, grid], 60, 5)
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

    def test_rejects_nan(self):
        with pytest.raises(StructuralError, match="^curve values must not be NaN$"):
            QuantileCurve(2, np.array([0.0, math.nan, -1.0]))

    def test_rejects_plus_inf_and_keeps_minus_inf(self):
        # +inf is no weight, as in a factor; -inf is a zero weight
        for values in ([math.inf, 0.0], [math.inf, math.inf]):
            with pytest.raises(StructuralError, match="^curve values must be finite or -inf$"):
                QuantileCurve(1, np.array(values))
        assert QuantileCurve(2, np.array([0.0, -math.inf, -math.inf]))[1] == -math.inf

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=12))
    def test_sorted_values_always_accepted(self, values):
        ordered = np.sort(np.asarray(values))[::-1]
        curve = QuantileCurve(len(values) - 1, ordered)
        assert curve.n == len(values) - 1
