"""Deterministic seed derivation.

Every random draw in the package comes from a generator seeded by a pure
function of (master_seed, *labels).  Results are therefore reproducible and
independent of execution order, which is what lets repeated solves of the same
query be issued in any order (or in parallel) without changing the output.

`stream_words` reads the raw words of many such generators at once, without
the per-generator seeding cost, and bit-identically.  `rng_from(*labels)` is
`Generator(PCG64(mix64(*labels)))`, and numpy documents both of its seeding
steps as stream-stable.  `SeedSequence(x)` hashes the 32-bit words of x into
a pool of four words and expands the pool into `generate_state(4, uint64)`;
`seed_sequence_words` repeats that hashing for many seeds at once in uint32
arrays, whose products wrap modulo 2^32 as numpy's C code does.  PCG64 then
seeds its 128-bit LCG from those four words by the `setseq` rule (O'Neill
2014).  `SeedWords` hands it the emulated words through numpy's own
`ISeedSequence` interface, so PCG64 runs that rule itself and starts in the
state `PCG64(x)` does; from there its raw words, and every draw made from
them, are those of the generator `rng_from` builds.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(x):
    """One splitmix64 finaliser; on Python ints, or elementwise on uint64 arrays."""
    x &= _MASK64
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK64
    return x ^ (x >> 31)


def mix64(*parts: int) -> int:
    """Collapse integer labels into one well-mixed 64-bit seed."""
    state = _GOLDEN
    for p in parts:
        state = _splitmix64(state ^ ((int(p) * _GOLDEN) & _MASK64))
    return state


def rng_from(*parts: int) -> np.random.Generator:
    """A fresh generator keyed by the given labels."""
    return np.random.Generator(np.random.PCG64(mix64(*parts)))


def unit_from(*parts: int) -> float:
    """Deterministic float in [0, 1) keyed by the given labels."""
    return mix64(*parts) / 2.0**64


# SeedSequence's hash constants (numpy/random/bit_generator.pyx).  Its hash
# multiplier evolves the same way whatever the data, so every hash's keys are
# fixed: filling and mixing the pool take 4 + 12 hashes, hash j xoring
# INIT_A * MULT_A^j and multiplying by INIT_A * MULT_A^(j+1); the 8 output
# words take the same from INIT_B and MULT_B.
_POOL = 4
_INIT_MULT_A = (0x43B0D7E5, 0x931E8875)
_INIT_MULT_B = (0x8B51F9DD, 0x58F38DED)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_FOLD = np.uint32(16)


def _keys(init: int, mult: int, first: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """xor and multiply keys of hashes first .. first + count - 1, as (count, 1) columns."""
    powers = [init * pow(mult, j, 1 << 32) & 0xFFFFFFFF for j in range(first, first + count + 1)]
    column = np.array(powers, dtype=np.uint32)[:, None]
    return column[:-1], column[1:]


def _mix_keys(src: int) -> tuple[np.ndarray, np.ndarray]:
    """Keys of pool word src's three hashes into the other words, destinations ascending.

    Row src holds 0; the step that uses these keys restores word src after.
    """
    keys = _keys(*_INIT_MULT_A, _POOL + (_POOL - 1) * src, _POOL - 1)
    return tuple(np.insert(k, src, 0, axis=0) for k in keys)


_FILL_KEYS = _keys(*_INIT_MULT_A, 0, _POOL)
_MIX_KEYS = [_mix_keys(src) for src in range(_POOL)]
_OUT_KEYS = _keys(*_INIT_MULT_B, 0, 2 * _POOL)

# raw words a caller of `stream_words` asks for at once, whatever the stream count
STREAM_CHUNK_WORDS = 1 << 16


def _hash(value: np.ndarray, keys: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """SeedSequence's hashmix, one key pair per row: xor, multiply, fold."""
    value = (value ^ keys[0]) * keys[1]
    value ^= value >> _FOLD
    return value


def seed_sequence_words(seeds: np.ndarray) -> np.ndarray:
    """`SeedSequence(x).generate_state(4, np.uint64)` for each 64-bit x in seeds.

    SeedSequence takes x as its little-endian 32-bit words, two at most here,
    and fills each pool word past them by hashing 0, so every x is treated as
    four words with zeros above: a one-word x hashes exactly as numpy does.
    A source word's three mixes into the other pool words do not depend on
    one another, so the mixing runs as four steps, one per source word, each
    over all four pool words at once.  Returns a (len(seeds), 4) uint64 array.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    pool = np.zeros((_POOL, seeds.size), dtype=np.uint32)
    pool[:2] = seeds.astype("<u8").view("<u4").reshape(-1, 2).T
    pool = _hash(pool, _FILL_KEYS)
    for src, keys in enumerate(_MIX_KEYS):
        mixed = _MIX_L * pool - _MIX_R * _hash(pool[src], keys)
        mixed ^= mixed >> _FOLD
        mixed[src] = pool[src]
        pool = mixed
    out = _hash(np.concatenate((pool, pool)), _OUT_KEYS)
    # uint64 word k is 32-bit words 2k (low) and 2k + 1 (high), on any host
    return np.ascontiguousarray(out.T).astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


class SeedWords(np.random.bit_generator.ISeedSequence):
    """Hands PCG64 four precomputed `generate_state(4, uint64)` words.

    numpy's bit generators take any ISeedSequence and seed from its
    `generate_state`, so `PCG64(SeedWords(seed_sequence_words([x])[0]))`
    runs PCG64's own setseq seeding on the words `SeedSequence(x)` would
    give it, and starts in the state `PCG64(x)` does.
    """

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        # PCG64 reads the four words straight from the array's buffer
        self.words = np.ascontiguousarray(words, dtype=np.uint64)
        if self.words.shape != (_POOL,):
            raise ValueError(f"expected {_POOL} words, got shape {self.words.shape}")

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != _POOL or np.dtype(dtype) != np.uint64:
            raise ValueError("holds only generate_state(4, np.uint64)")
        return self.words


def stream_words(master: int, index: int, reps: range, k: int) -> np.ndarray:
    """Row j is `rng_from(master, index, reps[j]).bit_generator.random_raw(k)`.

    Returns a (len(reps), k) uint64 array; callers bound its size by asking
    for at most STREAM_CHUNK_WORDS words at a time where they can.
    """
    labels = np.arange(reps.start, reps.stop, reps.step, dtype=np.int64).astype(np.uint64)
    # the last step of mix64 on every label at once, in the same uint64 arithmetic
    seeds = _splitmix64(np.uint64(mix64(master, index)) ^ (labels * np.uint64(_GOLDEN)))
    out = np.empty((len(reps), k), dtype=np.uint64)
    for j, words in enumerate(seed_sequence_words(seeds)):
        out[j] = np.random.PCG64(SeedWords(words)).random_raw(k)
    return out
