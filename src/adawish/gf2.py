"""GF(2) linear algebra on bit-packed rows.

Rows are stored as Python ints (bit v = variable v), so row elimination is a
single word-wise XOR however many variables there are.  Systems represent
parity constraints A*x = d (mod 2); a system with zero rows is valid and means
"unconstrained".  A `Coset` is a system's solution set, its one form here:
the solution x0 with every free variable at 0, and one null vector per free
variable; the MAP solver searches it.  Two systems of one row count with
one solution set have equal cosets, so a coset names its solution set.  A
Coset built by hand is checked to be in that form; the builders below skip
the check.  `row_reduce` builds a system's coset from scratch by
Gauss-Jordan elimination; the pivots are the rows' highest bits after
reduction.  `extend` adds one row to a coset in one pass over its null
vectors, the one incremental step, so a longer prefix of a system costs
one step per row (`prefix_coset`).  The two share no step, and each is
the other's witness (`verify.check_coset`).  `basis_bits`, `span` and
`violation_codes` list a coset's 2^k points in numpy, for the XOR
oracle's batched sweep of its deepest indices: a map that is XOR-linear in
x is spanned from its values at x0 and the null vectors, and a point's
depth, the first row past the coset's system that it violates, is read
from the code of the rows it violates (`code_depths`).  `point_codes`
codes any list of assignments against every row of each system, for the
oracle's scan of a model's heaviest assignments.  `as_mask` turns an
assignment into a bitmask for `evaluate`, `satisfies` and
`model.log_weight`.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import StructuralError

_INT = frozenset((int,))


def as_mask(assignment, n: int) -> int:
    """An assignment of n variables as a bitmask, bit v = x_v: the one converter.

    An int or a numpy integer is the bitmask itself, inside n bits; anything
    else must be a sequence of n entries equal to 0 or 1 (bools and 1.0 pass).
    """
    if isinstance(assignment, (int, np.integer)):
        mask = int(assignment)
        if mask < 0 or mask >> n:
            raise StructuralError(f"assignment mask outside {n} variables")
        return mask
    bits = list(assignment)
    if len(bits) != n:
        raise StructuralError(f"assignment length {len(bits)} != n={n}")
    mask = 0
    for i, b in enumerate(bits):
        if b not in (0, 1):
            raise StructuralError(f"assignment bit {i} must be 0 or 1")
        mask |= int(b) << i
    return mask


def _int_rows(rows: Sequence[int]) -> tuple[int, ...]:
    """rows as a tuple of Python ints, converting only the rows that are not one.

    Elimination calls bit_length and shifts rows as unbounded ints, which a
    numpy integer does not support.  A row that is not an integer is refused.
    """
    rows = tuple(rows)
    if _INT.issuperset(map(type, rows)):
        return rows
    ints = []
    for r, row in enumerate(rows):
        try:
            ints.append(operator.index(row))  # an int comes back as itself
        except TypeError:
            raise StructuralError(f"row {r} must be an integer, got {row!r}") from None
    return tuple(ints)


def _check_rows(cols: int, rows: Sequence[int], rhs: Sequence[int]) -> None:
    if cols < 0:
        raise StructuralError("negative column count")
    if len(rows) != len(rhs):
        raise StructuralError(f"{len(rows)} rows but {len(rhs)} right-hand sides")
    # one pass over each sequence; walk them only to name the offender
    if rows and (min(rows) < 0 or max(rows) >> cols):
        for r, row in enumerate(rows):
            if row < 0 or row >> cols:
                raise StructuralError(f"row {r} has bits outside {cols} columns")
    if not set(rhs) <= {0, 1}:
        for r, b in enumerate(rhs):
            if b not in (0, 1):
                raise StructuralError(f"rhs {r} is {b!r}, expected 0 or 1")


@dataclass(frozen=True)
class Gf2System:
    """m parity constraints over n variables: bit v of rows[i] multiplies x_v."""

    cols: int
    rows: tuple[int, ...]
    rhs: tuple[int, ...]

    def __post_init__(self):
        rows, rhs = _int_rows(self.rows), tuple(self.rhs)
        _check_rows(self.cols, rows, rhs)
        if not _INT.issuperset(map(type, rhs)):  # bits equal to 0 or 1: True, 1.0, numpy integers
            rhs = tuple(map(int, rhs))
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "rhs", rhs)

    @property
    def m(self) -> int:
        return len(self.rows)


def _trusted_system(cols: int, rows: tuple[int, ...], rhs: tuple[int, ...]) -> Gf2System:
    """A Gf2System of rows already inside cols bits and rhs bits already 0 or 1, built with no check."""
    system = object.__new__(Gf2System)
    object.__setattr__(system, "cols", cols)
    object.__setattr__(system, "rows", rows)
    object.__setattr__(system, "rhs", rhs)
    return system


class Coset(namedtuple("Coset", ("cols", "m", "x0", "nulls"))):
    """The solution set of an m-row parity system over cols columns.

    x0 is the solution with every free variable at 0, and nulls[v] is the
    null vector of free variable v: the homogeneous solution with x_v = 1
    and every other free variable at 0.  Its lowest set bit is v, the rest
    are pivots above v.  nulls[p] is None at a pivot p.  The solutions are
    x0 XOR any sum of null vectors.  An inconsistent system has x0 None
    and nulls ().  x0 and nulls depend only on the solution set, so two
    systems with one solution set have them equal, and two with m rows
    each have equal cosets.

    Building a Coset by hand checks that form in O(cols) and raises
    StructuralError where it fails, so `map_solve` can trust every Coset
    it is given.  `extend` and `row_reduce` build theirs in that form and
    skip the check (`_trusted`), so a chained solve pays nothing for it.
    """

    __slots__ = ()

    def __new__(cls, cols: int, m: int, x0: int | None, nulls):
        got = _trusted(cols, m, x0, tuple(nulls))
        _check_coset(got)
        return got

    @classmethod
    def _make(cls, iterable):  # `_replace` builds through this: keep it checked
        return cls(*iterable)


_new = tuple.__new__


def _trusted(cols: int, m: int, x0: int | None, nulls: tuple) -> Coset:
    """A Coset of fields already in its form, built with no check."""
    return _new(Coset, (cols, m, x0, nulls))


def _check_coset(got: Coset) -> None:
    cols, m, x0, nulls = got
    if not (_INT.issuperset((type(cols), type(m))) and cols >= 0 and m >= 0):
        raise StructuralError(f"coset needs integer cols and m >= 0, got {cols!r} and {m!r}")
    if x0 is None:
        if nulls:
            raise StructuralError("an inconsistent coset has no null vectors")
        return
    free = [v for v, vec in enumerate(nulls) if vec is not None]
    free_bits = sum(1 << v for v in free)
    # x0 sets no free variable; each null vector sets its own free variable,
    # no other, and pivots above it, all inside cols columns
    if not (
        len(nulls) == cols
        and type(x0) is int
        and 0 <= x0 < 1 << cols
        and not x0 & free_bits
        and all(
            type(vec) is int and vec >> cols == 0 and vec & (free_bits | (1 << v) - 1) == 1 << v
            for v, vec in enumerate(nulls)
            if vec is not None
        )
    ):
        raise StructuralError(f"coset's x0 or null vectors do not fit its {cols} columns")


def extend(coset: Coset, row: int, b: int) -> Coset:
    """The coset with one more row, parity(row & x) = b, added to its system.

    The parity of row & nulls[u] is bit u of the row once every pivot is
    eliminated from it, so the highest free u where it is odd is the new
    pivot p: the leading bit of the reduced row, the one highest-bit
    insertion picks.  Each lower odd null vector takes nulls[p] in, which
    clears its parity; x0 takes nulls[p] in when its parity is not b.  A
    row with no odd free variable depends on the system's rows: the
    solutions stay when x0 satisfies it, and there are none otherwise.  The
    row is not validated: it must lie inside cols columns.
    """
    cols, m, x0, nulls = coset
    # each result is a Coset's tuple built in place, as `_trusted` builds one
    if x0 is None:
        return _new(Coset, (cols, m + 1, None, ()))
    # a null vector is never 0, so None is the only falsy entry
    odd = [u for u, vec in enumerate(nulls) if vec and (row & vec).bit_count() & 1]
    flip = (row & x0).bit_count() & 1 != b
    if not odd:
        return _new(Coset, (cols, m + 1, None, ()) if flip else (cols, m + 1, x0, nulls))
    p = odd.pop()
    top = nulls[p]
    new = list(nulls)
    new[p] = None
    for u in odd:
        new[u] ^= top
    return _new(Coset, (cols, m + 1, x0 ^ top if flip else x0, tuple(new)))


def prefix_coset(chain: list[Coset], system: Gf2System, i: int) -> Coset:
    """The coset of the system's first i rows, kept in chain.

    chain[k] is the coset of the first k rows, chain[0] the unconstrained
    one; the chain is extended one row at a time as far as i, so each
    prefix is eliminated once, from its shorter prefix.
    """
    rows, rhs = system.rows, system.rhs
    coset = chain[-1]
    for k in range(len(chain) - 1, i):
        coset = extend(coset, rows[k], rhs[k])
        chain.append(coset)
    return chain[i]


def row_reduce(system: Gf2System) -> Coset:
    """The system's `Coset` by Gauss-Jordan elimination: the one from-scratch builder.

    Takes a `Gf2System` only; anything else, a `Coset` included, raises
    StructuralError.  Each row is inserted into a basis keyed by its highest
    set bit, XORed with the basis row of that bit while it is taken; a row
    that reduces to 0 = 1 leaves no solution.  One back-substitution pass in
    ascending pivot order then clears every lower pivot from each row.  x0
    sets each pivot to its row's rhs bit, and the null vector of a free
    column f sets f and every pivot whose row holds f.  No step is shared
    with `extend`, so `verify.check_coset` holds each as the other's
    witness.
    """
    if not isinstance(system, Gf2System):
        raise StructuralError(f"expected a Gf2System, got {type(system).__name__}")
    cols = system.cols
    basis: list[tuple[int, int] | None] = [None] * cols
    for row, b in zip(system.rows, system.rhs):
        while row:
            top = row.bit_length() - 1
            hit = basis[top]
            if hit is None:
                basis[top] = (row, b)
                break
            row ^= hit[0]
            b ^= hit[1]
        else:  # the row reduced to 0 = b
            if b:
                return _trusted(cols, system.m, None, ())
    pivots = [p for p, hit in enumerate(basis) if hit is not None]
    pivot_bits = sum(1 << p for p in pivots)
    for p in pivots:
        row, b = basis[p]
        # the rows of lower pivots are final and each holds one pivot, so
        # XORing one in clears that pivot and sets no other
        lower = (row & pivot_bits) ^ (1 << p)
        while lower:
            q = lower.bit_length() - 1
            qrow, qb = basis[q]
            row ^= qrow
            b ^= qb
            lower ^= 1 << q
        basis[p] = (row, b)
    nulls = (
        None if basis[f] else sum(1 << p for p in pivots if (basis[p][0] >> f) & 1) | 1 << f for f in range(cols)
    )
    return _trusted(cols, system.m, sum(basis[p][1] << p for p in pivots), tuple(nulls))


def _bits(vectors: Sequence[int], cols: int) -> np.ndarray:
    """(len(vectors), cols) 0/1 uint8: row r holds vectors[r], bit v in column v."""
    width = -(-cols // 8)
    raw = b"".join([vec.to_bytes(width, "little") for vec in vectors])
    packed = np.frombuffer(raw, np.uint8).reshape(len(vectors), width)
    return np.unpackbits(packed, axis=1, count=cols, bitorder="little")


def basis_bits(cosets: Sequence[Coset]) -> np.ndarray:
    """(len(cosets), k + 1, cols) 0/1 uint8: each coset's x0, then its k null vectors by free variable.

    Every coset must be consistent and have the same k free variables.
    Point s of a coset, for s in 0 .. 2^k - 1, is x0 XOR the null vectors
    b whose bit b is set in s; `span` lists any GF(2)-linear image of the
    points in that order, from the images of these k + 1 rows.  The rows
    are unpacked from their ints byte by byte, so no n-bit integer array is
    needed at any width.
    """
    cols, _, _, nulls = cosets[0]
    k = cols - nulls.count(None)
    vectors = []
    for coset in cosets:
        vectors.append(coset.x0)
        vectors.extend(vec for vec in coset.nulls if vec is not None)
    return _bits(vectors, cols).reshape(len(cosets), k + 1, cols)


def span(images: np.ndarray) -> np.ndarray:
    """(2^k, ...) from (k + 1, ...): entry s is images[0] XOR images[1 + b] for each bit b set in s.

    Each step doubles the entries listed so far with one XOR, so a map that
    is XOR-linear in x, given at x0 and at each null vector (`basis_bits`),
    is listed at all 2^k points of the coset in k numpy calls.
    """
    k = len(images) - 1
    out = np.empty((1 << k,) + images.shape[1:], images.dtype)
    out[0] = images[0]
    for b in range(k):
        np.bitwise_xor(out[: 1 << b], images[1 + b], out=out[1 << b : 2 << b])
    return out


def violation_codes(bits: np.ndarray, systems: Sequence[Gf2System], start: int) -> np.ndarray:
    """(2^k, len(systems)): per point of each coset, which of rows start..m-1 of its system it violates.

    bits is `basis_bits` of each system's coset of its first start rows, so
    every point satisfies those rows, and points are listed in `span` order.
    Bit m - 1 - j of a point's code is set when it violates row j.  So its
    depth, the first row it violates (m if none), is m minus the code's bit
    length: the depth is at least j exactly when the code is below
    2^(m - j).  The code is XOR-linear in the point up to the rhs: its value
    at each basis row comes from one 0/1 matrix product, the rhs bits are
    folded into x0's, and `span` lists it at every point.  All systems must
    have the same row count m, with m - start < 63: the codes are int64.
    """
    count, _, cols = bits.shape
    m = systems[0].m
    rows = _bits([row for system in systems for row in system.rows[start:]], cols).reshape(count, m - start, cols)
    # parity(row_j & vec) for each basis row and each row j >= start: the
    # uint8 product wraps mod 256, which keeps the parity
    odd = (bits @ rows.transpose(0, 2, 1) & 1).astype(np.int64)
    place = 1 << np.arange(m - start - 1, -1, -1)
    images = odd @ place  # (count, k + 1)
    images[:, 0] ^= np.array([system.rhs[start:] for system in systems], np.int64).reshape(count, m - start) @ place
    return span(images.T)


def point_codes(points: np.ndarray, systems: Sequence[Gf2System]) -> np.ndarray:
    """(len(points), len(systems)): per point, which rows of each system it violates, as `violation_codes` codes them.

    points holds assignments as int64 bitmasks, over systems of at most 62
    columns.  Bit m - 1 - j of a code is set when the point violates row j,
    so its depth is `code_depths(codes, m)`.  How many of each row's
    variables each point sets comes from one 0/1 matrix product, in float64
    (integers this small are exact, and the product runs in BLAS); its
    parity XOR the rhs bit is the violation, and one more product packs
    each system's m bits.  The codes are float64, exact since all systems
    have the same row count m < 53.
    """
    m = systems[0].m
    shifts = np.arange(systems[0].cols)
    bits = (points[:, None] >> shifts) & 1  # (P, cols)
    rows = (np.array([row for system in systems for row in system.rows], np.int64)[:, None] >> shifts) & 1
    odd = (bits.astype(np.float64) @ rows.T.astype(np.float64)).astype(np.uint8)  # (P, count m)
    odd ^= np.array([system.rhs for system in systems], np.uint8).reshape(-1)
    odd &= 1
    return (odd.reshape(-1, m) @ np.ldexp(1.0, np.arange(m - 1, -1, -1))).reshape(len(points), len(systems))


def code_depths(codes: np.ndarray, m: int) -> np.ndarray:
    """m minus each code's bit length: the first row a point violates of a code over m rows, m if none.

    The bit length is the exponent `np.frexp` gives the code, exact for
    codes below 2^53.
    """
    return m - np.frexp(codes)[1]


def evaluate(system, assignment) -> int:
    """Apply the constraint matrix to an assignment (`as_mask`): bit i = parity(row_i & x)."""
    x = as_mask(assignment, system.cols)
    out = 0
    for i, row in enumerate(system.rows):
        out |= ((row & x).bit_count() & 1) << i
    return out


def satisfies(system, assignment) -> bool:
    """Whether the assignment (`as_mask`) solves the system."""
    return evaluate(system, assignment) == as_mask(system.rhs, len(system.rhs))
