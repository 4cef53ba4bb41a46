import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adawish import gf2
from adawish.errors import StructuralError


def brute_solutions(system):
    return [x for x in range(1 << system.cols) if gf2.satisfies(system, x)]


def random_system(rng, n, m):
    rows = tuple(int(rng.integers(0, 1 << n)) for _ in range(m))
    rhs = tuple(int(b) for b in rng.integers(0, 2, size=m))
    return gf2.Gf2System(n, rows, rhs)


class TestRowReduce:
    def test_empty_system_is_unconstrained(self):
        reduced = gf2.row_reduce(gf2.Gf2System(4, (), ()))
        assert reduced.rank == 0
        assert reduced.consistent
        assert reduced.solution_count == 16

    def test_zero_row_with_one_rhs_is_inconsistent(self):
        reduced = gf2.row_reduce(gf2.Gf2System(4, (0,), (1,)))
        assert not reduced.consistent
        assert reduced.solution_count == 0

    def test_random_system_counts_match_enumeration(self):
        rng = np.random.default_rng(35)
        system = random_system(rng, 5, 3)
        reduced = gf2.row_reduce(system)
        sols = brute_solutions(system)
        assert len(sols) == reduced.solution_count

    @pytest.mark.parametrize("seed", range(12))
    def test_counts_match_enumeration_many(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 13))
        m = int(rng.integers(0, n + 3))
        system = random_system(rng, n, m)
        reduced = gf2.row_reduce(system)
        assert len(brute_solutions(system)) == reduced.solution_count

    @pytest.mark.parametrize("seed", range(12))
    def test_pivot_is_highest_bit_and_unique(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(1, 13))
        system = random_system(rng, n, int(rng.integers(0, n + 3)))
        reduced = gf2.row_reduce(system)
        for r, (row, p) in enumerate(zip(reduced.rows, reduced.pivots)):
            assert row.bit_length() - 1 == p
            assert all(not (other >> p) & 1 for s, other in enumerate(reduced.rows) if s != r)

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        system = random_system(rng, 8, 5)
        once = gf2.row_reduce(system)
        twice = gf2.row_reduce(once)
        assert once.rows == twice.rows
        assert once.rhs == twice.rhs
        assert once.pivots == twice.pivots

    def test_solution_space_parametrization(self):
        rng = np.random.default_rng(0)  # consistent rank-3 draw
        system = random_system(rng, 6, 3)
        reduced = gf2.row_reduce(system)
        assert reduced.consistent
        particular = reduced.particular_solution()
        basis = reduced.null_basis()
        span = {particular}
        for vec in basis:
            span |= {s ^ vec for s in span}
        assert span == set(brute_solutions(system))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(StructuralError):
            gf2.Gf2System(3, (1, 2), (0,))
        with pytest.raises(StructuralError):
            gf2.Gf2System(2, (0b100,), (0,))  # bit outside cols


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
