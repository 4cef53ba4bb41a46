import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adawish.seeds import mix64, rng_from, unit_from

labels = st.lists(st.integers(-(2**80), 2**80), max_size=4)


class TestSeeds:
    # every seeded result in the package moves if these do
    @pytest.mark.parametrize(
        "parts, seed",
        [
            ((), 0x9E3779B97F4A7C15),
            ((0,), 0xE220A8397B1DCDAF),
            ((1, 2, 3), 0x236015F966465D29),
            ((-7, 12), 0x914EB08B36EDDB27),
            (((1 << 70) + 3, 5), 0x21A802E0FBC80AB8),
        ],
    )
    def test_mix64_is_pinned(self, parts, seed):
        assert mix64(*parts) == seed

    @given(labels)
    @settings(max_examples=50, deadline=None)
    def test_rng_from_seeds_pcg64_with_mix64(self, parts):
        got = rng_from(*parts)
        ref = np.random.Generator(np.random.PCG64(mix64(*parts)))
        assert got.bit_generator.state == ref.bit_generator.state
        assert np.array_equal(got.random(9), ref.random(9))

    @given(labels)
    @settings(max_examples=200, deadline=None)
    def test_unit_from_is_in_unit_interval(self, parts):
        assert 0.0 <= unit_from(*parts) < 1.0
