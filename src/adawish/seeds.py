"""Deterministic seed derivation.

Every random draw in the package comes from a generator seeded by a pure
function of (master_seed, *labels), so results are reproducible.  A draw
depends only on its labels, not on what was drawn before it: an XOR
oracle's T parity systems are the rows of one stream keyed by
(master_seed, n), drawn in one call at its first query, so its answers do
not depend on which index is queried first.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(x: int) -> int:
    """One splitmix64 finaliser."""
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
