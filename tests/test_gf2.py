import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adawish import gf2
from adawish.errors import StructuralError
from adawish.model import WeightedModel
from adawish.oracle import map_solve
from adawish.verify import check_coset, coset_systems


def brute_solutions(system):
    return [x for x in range(1 << system.cols) if gf2.satisfies(system, x)]


def random_system(rng, n, m):
    rows = tuple(int(rng.integers(0, 1 << n)) for _ in range(m))
    rhs = tuple(int(b) for b in rng.integers(0, 2, size=m))
    return gf2.Gf2System(n, rows, rhs)


def gauss_jordan(system):
    """Plain Gauss-Jordan elimination, columns taken from the highest down.

    Returns (rows, rhs, pivots, consistent) with rows ordered by pivot;
    `gauss_jordan_coset` reads off them the coset `row_reduce` must give.
    """
    work = list(zip(system.rows, system.rhs))
    reduced = []  # (row, rhs, pivot)
    for col in reversed(range(system.cols)):
        pick = next((i for i, (row, _) in enumerate(work) if (row >> col) & 1), None)
        if pick is None:
            continue
        prow, pb = work.pop(pick)
        work = [(r ^ prow, b ^ pb) if (r >> col) & 1 else (r, b) for r, b in work]
        reduced = [(r ^ prow, b ^ pb, p) if (r >> col) & 1 else (r, b, p) for r, b, p in reduced]
        reduced.append((prow, pb, col))
    reduced.sort(key=lambda t: t[2])
    consistent = not any(row == 0 and b == 1 for row, b in work)
    return (
        tuple(r for r, _, _ in reduced),
        tuple(b for _, b, _ in reduced),
        tuple(p for _, _, p in reduced),
        consistent,
    )


def gauss_jordan_coset(system):
    """The system's coset read off `gauss_jordan`'s reduced rows.

    x0 sets each pivot to its rhs bit, and the null vector of a free column
    f sets f and every pivot whose row holds f.
    """
    rows, rhs, pivots, consistent = gauss_jordan(system)
    if not consistent:
        return gf2.Coset(system.cols, system.m, None, ())
    nulls = tuple(
        None if f in pivots else sum(1 << p for row, p in zip(rows, pivots) if (row >> f) & 1) | 1 << f
        for f in range(system.cols)
    )
    return gf2.Coset(system.cols, system.m, sum(b << p for b, p in zip(rhs, pivots)), nulls)


@st.composite
def parity_systems(draw):
    """Systems of up to 130 columns and n + 3 rows, some rows sparse or repeated.

    Half the systems take rhs = A x for a planted x, so both consistent and
    inconsistent ones are common.
    """
    n = draw(st.integers(0, 130))
    m = draw(st.integers(0, n + 3))
    rnd = draw(st.randoms(use_true_random=False))
    full = (1 << n) - 1
    planted = rnd.getrandbits(n) if draw(st.booleans()) else None
    rows, rhs = [], []
    for _ in range(m):
        if rows and rnd.random() < 0.3:
            row = rnd.choice(rows)
        else:  # dense, or with a random set of bits zeroed
            row = rnd.getrandbits(n) & (full if rnd.random() < 0.5 else rnd.getrandbits(n))
        rows.append(row)
        rhs.append(rnd.getrandbits(1) if planted is None else (row & planted).bit_count() & 1)
    return gf2.Gf2System(n, tuple(rows), tuple(rhs))


# (seed, (n, m)) of random systems with n <= 12; a shape of None is drawn
# from the seed first, n in 1..12 and m in 0..n + 2
SEEDED_SHAPES = [(35, (5, 3))] + [(seed, None) for seed in (*range(12), *range(100, 112))]


class TestRowReduce:
    @settings(max_examples=200, deadline=None)
    @given(parity_systems())
    def test_matches_gauss_jordan(self, system):
        assert gf2.row_reduce(system) == gauss_jordan_coset(system)

    def test_coset_is_the_solution_set(self):
        # n = 0, m = 0, and masks of two words at n = 65 and 100; the systems
        # the check enumerates include every kind, and the prefixes it
        # chains include inconsistent ones
        systems, witnesses = coset_systems(seed=13)
        # both kinds of witness reach masks of two words
        assert {known is None for t, known in witnesses.items() if systems[t].cols > 64} == {True, False}
        result = check_coset(systems, witnesses)
        assert result.passed, result.detail
        seen = re.search(r"witnesses: (\d+) planted solutions, (\d+) systems with none;", result.detail)
        assert seen and min(int(k) for k in seen.groups()) > 0, result.detail
        counts = re.search(r"(\d+) full rank, (\d+) rank-deficient, (\d+) inconsistent$", result.detail)
        assert counts and min(int(k) for k in counts.groups()) > 0, result.detail
        chained = re.search(r"(\d+) prefixes chained \((\d+) inconsistent\)", result.detail)
        assert chained and int(chained[1]) == sum(system.m + 1 for system in systems), result.detail
        assert int(chained[2]) > 0, result.detail

    def test_dependent_row_keeps_or_empties_the_coset(self):
        # the third row is the XOR of the first two: with the matching rhs
        # the solutions stay, with the other one there are none, and every
        # row after that leaves the system inconsistent
        start = gf2.row_reduce(gf2.Gf2System(4, (0b0011, 0b0110), (1, 0)))
        kept = gf2.extend(start, 0b0101, 1)
        assert kept == start._replace(m=3)
        empty = gf2.extend(start, 0b0101, 0)
        assert empty == gf2.Coset(4, 3, None, ())
        assert gf2.extend(empty, 0b1000, 1) == gf2.Coset(4, 4, None, ())
        system = gf2.Gf2System(4, (0b0011, 0b0110, 0b0101, 0b1000), (1, 0, 0, 1))
        assert gf2.row_reduce(system) == gf2.Coset(4, 4, None, ())

    def test_chain_extends_only_as_far_as_asked(self):
        system = gf2.Gf2System(5, (0b00011, 0b00110, 0b11000), (1, 0, 1))
        chain = [gf2.row_reduce(gf2.Gf2System(5, (), ()))]
        assert gf2.prefix_coset(chain, system, 2) == gf2.row_reduce(gf2.Gf2System(5, system.rows[:2], system.rhs[:2]))
        assert len(chain) == 3
        assert gf2.prefix_coset(chain, system, 1) is chain[1]
        assert gf2.prefix_coset(chain, system, 3) == gf2.row_reduce(system)
        assert len(chain) == 4

    @settings(max_examples=200, deadline=None)
    @given(parity_systems())
    def test_coset_matches_reduced_form(self, system):
        result = check_coset([system])
        assert result.passed, result.detail

    def test_empty_system_is_unconstrained(self):
        assert gf2.row_reduce(gf2.Gf2System(4, (), ())) == gf2.Coset(4, 0, 0, (1, 2, 4, 8))

    def test_zero_row_with_one_rhs_is_inconsistent(self):
        assert gf2.row_reduce(gf2.Gf2System(4, (0,), (1,))) == gf2.Coset(4, 1, None, ())

    # check_coset compares the coset, or its absence, with enumeration
    @pytest.mark.parametrize("seed, shape", SEEDED_SHAPES, ids=[str(seed) for seed, _ in SEEDED_SHAPES])
    def test_counts_match_enumeration_many(self, seed, shape):
        rng = np.random.default_rng(seed)
        if shape is None:
            n = int(rng.integers(1, 13))
            shape = (n, int(rng.integers(0, n + 3)))
        result = check_coset([random_system(rng, *shape)])
        assert result.passed, result.detail

    def test_solution_space_parametrization(self):
        rng = np.random.default_rng(0)  # consistent rank-3 draw
        system = random_system(rng, 6, 3)
        got = gf2.row_reduce(system)
        assert got.x0 is not None
        span = {got.x0}
        for vec in got.nulls:
            if vec is not None:
                span |= {s ^ vec for s in span}
        assert span == set(brute_solutions(system))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(StructuralError):
            gf2.Gf2System(3, (1, 2), (0,))
        with pytest.raises(StructuralError):
            gf2.Gf2System(2, (0b100,), (0,))  # bit outside cols

    @pytest.mark.parametrize(
        "cols, rows, rhs, message",
        [
            (-1, (), (), "negative column count"),
            (3, (0b001, 0b010), (0, 2), "rhs 1 is 2, expected 0 or 1"),
        ],
        ids=["negative-cols", "rhs-not-a-bit"],
    )
    def test_malformed_system_rejected(self, cols, rows, rhs, message):
        with pytest.raises(StructuralError, match=f"^{message}$"):
            gf2.Gf2System(cols, rows, rhs)

    def test_int_rows_are_kept_as_given(self):
        rows, rhs = (0b011, 0b110), (1, 0)
        system = gf2.Gf2System(3, rows, rhs)
        assert system.rows is rows and system.rhs is rhs

    def test_numpy_integers_become_ints(self):
        # elimination calls bit_length and shifts past 63 bits, which numpy
        # integers do not support
        model = WeightedModel(3, ())
        system = gf2.Gf2System(3, (np.int64(3), 0b100), (np.uint8(1), np.True_))
        assert system == gf2.Gf2System(3, (3, 0b100), (1, 1))
        assert all(type(v) is int for v in system.rows + system.rhs)
        assert gf2.row_reduce(system) == gf2.Coset(3, 2, 0b110, (0b011, None, None))
        assert map_solve(model, gf2.Gf2System(3, (np.int64(3),), (0,))).feasible
        wide = gf2.Gf2System(70, tuple(np.uint64(1) << np.uint64(v) for v in range(64)), (np.int64(1),) * 64)
        assert gf2.row_reduce(wide).x0 == (1 << 64) - 1

    @pytest.mark.parametrize("row", [1.0, "1", None], ids=["float", "str", "none"])
    def test_non_integer_row_rejected(self, row):
        with pytest.raises(StructuralError, match=f"^row 1 must be an integer, got {re.escape(repr(row))}$"):
            gf2.Gf2System(3, (1, row), (0, 0))

    def test_inconsistent_system_has_no_particular_solution(self):
        system = gf2.Gf2System(2, (0b11, 0b11), (0, 1))
        chain = [gf2.row_reduce(gf2.Gf2System(2, (), ()))]
        assert gf2.row_reduce(system) == gf2.Coset(2, 2, None, ()) == gf2.prefix_coset(chain, system, 2)


def _affine(vectors, cols, last):
    """0/1 rows of ints, bit v in column v, then column cols holding last[r]."""
    return np.array([[(vec >> v) & 1 for v in range(cols)] + [b] for vec, b in zip(vectors, last)], np.uint8)


class TestCosetPoints:
    @pytest.mark.parametrize("cols", [0, 1, 6, 13, 20, 62, 64, 70])
    def test_span_lists_the_points_and_their_violated_rows(self, cols):
        # basis_bits and span list each coset's 2^k points as affine 0/1
        # rows, a 1 in column cols, and violation_codes sets bit m - 1 - j
        # of a point's code when it violates row j of the rows it is given:
        # rows start.. of each system against its coset's points, from x0
        # and the null vectors or from every point, and the first 40 rows
        # of every system against arbitrary points they share, whose first
        # violated row code_depths reads back; 64 columns fill one word and
        # 70 span two
        rng = np.random.default_rng(cols)
        m = cols + 2
        start = max(0, cols - 3)
        width = (cols + 7) // 8
        mask = (1 << cols) - 1
        systems = [
            gf2.Gf2System(
                cols,
                tuple(int.from_bytes(rng.bytes(width), "little") & mask for _ in range(m)),
                tuple(int(b) for b in rng.integers(0, 2, size=m)),
            )
            for _ in range(40)
        ]
        prefixes = [gf2.row_reduce(gf2.Gf2System(cols, s.rows[:start], s.rhs[:start])) for s in systems]
        full = [(s, c) for s, c in zip(systems, prefixes) if c.x0 is not None and c.nulls.count(None) == start]
        assert len(full) > 1
        later, cosets = zip(*full)
        bits = gf2.basis_bits(cosets)
        k = cols - start
        assert bits.shape == (len(cosets), k + 1, cols + 1)
        points = gf2.span(bits.transpose(1, 0, 2))  # (2^k, count, cols + 1)
        assert (points[:, :, cols] == 1).all()
        rows = np.stack([_affine(s.rows[start:], cols, s.rhs[start:]) for s in later])
        codes = gf2.span(gf2.violation_codes(bits, rows))
        assert points.shape[:2] == codes.shape == (1 << k, len(cosets))
        assert (gf2.violation_codes(points.transpose(1, 0, 2), rows) == codes).all()
        for t, (system, coset) in enumerate(full):
            xs = [sum(1 << v for v in np.flatnonzero(row[:cols]).tolist()) for row in points[:, t]]
            nulls = [vec for vec in coset.nulls if vec is not None]
            want = [coset.x0] + [0] * ((1 << k) - 1)
            for b, vec in enumerate(nulls):
                want[1 << b : 2 << b] = [x ^ vec for x in want[: 1 << b]]
            assert xs == want
            for x, code in zip(xs, codes[:, t].tolist()):
                violated = gf2.evaluate(system, x) ^ gf2.as_mask(system.rhs, m)
                assert code == sum(1 << (m - 1 - j) for j in range(start, m) if violated >> j & 1)
                assert violated & ((1 << start) - 1) == 0
        top = min(m, 40)
        xs = [0, mask] + [int.from_bytes(rng.bytes(width), "little") & mask for _ in range(48)]
        rows = np.stack([_affine(s.rows[:top], cols, s.rhs[:top]) for s in systems])
        codes = gf2.violation_codes(_affine(xs, cols, [1] * len(xs)), rows)
        assert codes.shape == (50, 40)
        depths = gf2.code_depths(codes, top)
        for p, t in np.ndindex(codes.shape):
            system = systems[t]
            violated = (gf2.evaluate(system, xs[p]) ^ gf2.as_mask(system.rhs, m)) & ((1 << top) - 1)
            assert codes[p, t] == sum(1 << (top - 1 - j) for j in range(top) if violated >> j & 1)
            assert depths[p, t] == ((violated & -violated).bit_length() - 1 if violated else top)


class TestEvaluate:
    def test_identity_matrix(self):
        system = gf2.Gf2System(3, (0b001, 0b010, 0b100), (0, 0, 0))
        assert gf2.evaluate(system, [1, 0, 1]) == 0b101

    def test_zero_matrix(self):
        system = gf2.Gf2System(4, (0, 0), (0, 0))
        for x in (0, 0b1010, 0b1111):
            assert gf2.evaluate(system, x) == 0

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(4)
        system = random_system(rng, 6, 4)
        bits = [int(b) for b in rng.integers(0, 2, size=6)]
        expected = 0
        for i, row in enumerate(system.rows):
            parity = sum((row >> v) & 1 and bits[v] for v in range(6)) % 2
            expected |= parity << i
        assert gf2.evaluate(system, bits) == expected

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**10 - 1), st.integers(0, 2**10 - 1), st.integers(0, 2**31 - 1))
    def test_linearity(self, x1, x2, seed):
        rng = np.random.default_rng(seed)
        system = random_system(rng, 10, 4)
        lhs = gf2.evaluate(system, x1 ^ x2)
        assert lhs == gf2.evaluate(system, x1) ^ gf2.evaluate(system, x2)

    def test_length_mismatch(self):
        system = gf2.Gf2System(3, (0b111,), (0,))
        with pytest.raises(StructuralError):
            gf2.evaluate(system, [1, 0])
        with pytest.raises(StructuralError):
            gf2.evaluate(system, 0b11111)

    @pytest.mark.parametrize(
        "assignment",
        [0b101, np.int64(0b101), np.uint8(0b101), [1, 0, 1], [True, False, True], [1, 0, 1.0],
         np.array([1, 0, 1]), (np.int64(1), 0, np.float64(1.0))],
        ids=["int", "np-int64", "np-uint8", "list", "bools", "float-bit", "np-array", "np-scalars"],
    )
    def test_every_assignment_form_evaluates_alike(self, assignment):
        # evaluate and satisfies take every form log_weight takes
        system = gf2.Gf2System(3, (0b011, 0b110, 0b101), (1, 1, 0))
        assert gf2.as_mask(assignment, 3) == 0b101
        assert gf2.evaluate(system, assignment) == 0b011
        assert gf2.satisfies(system, assignment)

    @pytest.mark.parametrize(
        "assignment, message",
        [
            (np.int64(-1), "assignment mask outside 3 variables"),
            ([1, 0, 0.5], "assignment bit 2 must be 0 or 1"),
            ([1, 2, 0], "assignment bit 1 must be 0 or 1"),
        ],
        ids=["negative-mask", "half-bit", "two"],
    )
    def test_bad_assignment_rejected(self, assignment, message):
        system = gf2.Gf2System(3, (0b111,), (1,))
        for read in (gf2.evaluate, gf2.satisfies):
            with pytest.raises(StructuralError, match=f"^{message}$"):
                read(system, assignment)

    def test_satisfies_checks_list_length(self):
        system = gf2.Gf2System(3, (0b111,), (1,))
        for bits in ([1, 0], [1, 0, 0, 0]):
            with pytest.raises(StructuralError):
                gf2.satisfies(system, bits)
        assert gf2.satisfies(system, [1, 0, 0]) and not gf2.satisfies(system, [1, 1, 0])
        assert gf2.satisfies(system, 0b001)
