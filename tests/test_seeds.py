import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adawish.seeds import SeedWords, rng_from, seed_sequence_words, stream_words


def assert_emulates_numpy(x):
    words = seed_sequence_words(np.array([x], dtype=np.uint64))
    assert words.shape == (1, 4) and words.dtype == np.uint64
    assert np.array_equal(words[0], np.random.SeedSequence(x).generate_state(4, np.uint64))
    assert np.random.PCG64(SeedWords(words[0])).state == np.random.PCG64(x).state


class TestSeedSequenceEmulation:
    # 0 and 2^32 - 1 take SeedSequence's one-word entropy path, 2^32 the two-word one
    @pytest.mark.parametrize("x", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
    def test_word_edges(self, x):
        assert_emulates_numpy(x)

    @given(st.integers(0, 2**64 - 1))
    @settings(max_examples=200, deadline=None)
    def test_any_64_bit_seed(self, x):
        assert_emulates_numpy(x)

    def test_seeds_are_hashed_independently(self):
        seeds = np.random.default_rng(3).integers(0, 2**64, size=50, dtype=np.uint64)
        batch = seed_sequence_words(seeds)
        for x, words in zip(seeds, batch):
            assert np.array_equal(words, seed_sequence_words(np.array([x]))[0])

    def test_seed_words_serve_only_pcg64s_request(self):
        words = SeedWords(np.arange(4, dtype=np.uint64))
        with pytest.raises(ValueError):
            words.generate_state(8, np.uint32)
        with pytest.raises(ValueError):
            SeedWords(np.arange(3, dtype=np.uint64))


class TestStreamWords:
    @pytest.mark.parametrize("master", [0, 3, -7, 2**64 + 5])
    def test_rows_are_the_generators_raw_words(self, master):
        words = stream_words(master, 9, range(2, 9), 5)
        assert words.shape == (7, 5) and words.dtype == np.uint64
        for row, t in zip(words, range(2, 9)):
            assert np.array_equal(row, rng_from(master, 9, t).bit_generator.random_raw(5))
