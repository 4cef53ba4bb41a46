"""GF(2) linear algebra on bit-packed rows.

Rows are stored as Python ints (bit v = variable v), so row elimination is a
single word-wise XOR however many variables there are.  Systems represent
parity constraints A*x = d (mod 2); a system with zero rows is valid and means
"unconstrained".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import StructuralError


def pack_bits(bits: Sequence[int]) -> int:
    """Pack a 0/1 sequence into an int, bit i = bits[i]."""
    word = 0
    for i, b in enumerate(bits):
        if b not in (0, 1):
            raise StructuralError(f"bit {i} is {b!r}, expected 0 or 1")
        word |= b << i
    return word


def _check_rows(cols: int, rows: Sequence[int], rhs: Sequence[int]) -> None:
    if cols < 0:
        raise StructuralError("negative column count")
    if len(rows) != len(rhs):
        raise StructuralError(f"{len(rows)} rows but {len(rhs)} right-hand sides")
    for r, row in enumerate(rows):
        if row < 0 or row >> cols:
            raise StructuralError(f"row {r} has bits outside {cols} columns")
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
        object.__setattr__(self, "rows", tuple(self.rows))
        object.__setattr__(self, "rhs", tuple(self.rhs))
        _check_rows(self.cols, self.rows, self.rhs)

    @property
    def m(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class ReducedSystem:
    """Reduced row-echelon form of a Gf2System.

    Only nonzero rows are kept, ordered by pivot column.  `consistent` is False
    iff elimination produced a 0 = 1 row.
    """

    cols: int
    rows: tuple[int, ...]
    rhs: tuple[int, ...]
    pivots: tuple[int, ...]
    consistent: bool

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @property
    def solution_count(self) -> int:
        return (1 << (self.cols - self.rank)) if self.consistent else 0

    def particular_solution(self) -> int:
        """One solution as a bitmask (free variables set to 0)."""
        if not self.consistent:
            raise StructuralError("inconsistent system has no solution")
        sol = 0
        for row, b, p in zip(self.rows, self.rhs, self.pivots):
            # RREF rows touch their pivot plus free columns only, so with free
            # vars at 0 the pivot value is just the rhs bit.
            sol |= b << p
        return sol

    def null_basis(self) -> list[int]:
        """Basis of the homogeneous solution space, one bitmask per free column."""
        pivot_set = set(self.pivots)
        basis = []
        for f in range(self.cols):
            if f in pivot_set:
                continue
            vec = 1 << f
            for row, p in zip(self.rows, self.pivots):
                if (row >> f) & 1:
                    vec |= 1 << p
            basis.append(vec)
        return basis


def row_reduce(system) -> ReducedSystem:
    """Gauss-Jordan elimination over GF(2); accepts any (cols, rows, rhs) carrier."""
    cols, rows, rhs = system.cols, list(system.rows), list(system.rhs)
    _check_rows(cols, rows, rhs)
    work = [(rows[i], rhs[i]) for i in range(len(rows))]
    reduced: list[tuple[int, int, int]] = []  # (row, rhs, pivot)
    consistent = True
    for col in range(cols):
        pivot_idx = None
        for i, (row, _) in enumerate(work):
            if (row >> col) & 1:
                pivot_idx = i
                break
        if pivot_idx is None:
            continue
        prow, pb = work.pop(pivot_idx)
        work = [(r ^ prow, b ^ pb) if (r >> col) & 1 else (r, b) for r, b in work]
        reduced = [(r ^ prow, b ^ pb, p) if (r >> col) & 1 else (r, b, p) for r, b, p in reduced]
        reduced.append((prow, pb, col))
    for row, b in work:
        if row == 0 and b == 1:
            consistent = False
    reduced.sort(key=lambda t: t[2])
    return ReducedSystem(
        cols=cols,
        rows=tuple(r for r, _, _ in reduced),
        rhs=tuple(b for _, b, _ in reduced),
        pivots=tuple(p for _, _, p in reduced),
        consistent=consistent,
    )


def evaluate(system, assignment) -> int:
    """Apply the constraint matrix to an assignment: bit i = parity(row_i & x)."""
    if isinstance(assignment, int):
        x = assignment
    else:
        bits = list(assignment)
        if len(bits) != system.cols:
            raise StructuralError(f"assignment length {len(bits)} != {system.cols} columns")
        x = pack_bits(bits)
    if x < 0 or x >> system.cols:
        raise StructuralError(f"assignment has bits outside {system.cols} columns")
    out = 0
    for i, row in enumerate(system.rows):
        out |= ((row & x).bit_count() & 1) << i
    return out


def satisfies(system, assignment) -> bool:
    x = assignment if isinstance(assignment, int) else pack_bits(assignment)
    return evaluate(system, x) == pack_bits(list(system.rhs))


@dataclass(frozen=True)
class Propagation:
    """Outcome of pushing a partial assignment through a reduced system.

    `forced` holds newly implied variables (rows left with a single unfixed
    variable, iterated to a fixpoint).  `conflict` means some fully fixed row
    is violated.  Neither forced nor conflicting means the system is open.
    """

    conflict: bool
    forced: dict[int, int]

    @property
    def open(self) -> bool:
        return not self.conflict and not self.forced


def propagate(reduced: ReducedSystem, partial: Mapping[int, int]) -> Propagation:
    """Unit propagation for XOR rows given fixed bits for a variable subset."""
    if not reduced.consistent:
        raise StructuralError("propagate requires a consistent system")
    known_mask = 0
    known_vals = 0
    for v, b in partial.items():
        if v < 0 or v >= reduced.cols:
            raise StructuralError(f"variable {v} outside {reduced.cols} columns")
        if b not in (0, 1):
            raise StructuralError(f"value for variable {v} must be 0 or 1")
        known_mask |= 1 << v
        known_vals |= b << v
    forced: dict[int, int] = {}
    changed = True
    while changed:
        changed = False
        for row, b in zip(reduced.rows, reduced.rhs):
            unfixed = row & ~known_mask
            parity_fixed = (row & known_vals).bit_count() & 1
            if unfixed == 0:
                if parity_fixed != b:
                    return Propagation(conflict=True, forced=forced)
            elif unfixed & (unfixed - 1) == 0:  # exactly one bit left
                v = unfixed.bit_length() - 1
                val = parity_fixed ^ b
                forced[v] = val
                known_mask |= unfixed
                known_vals |= val << v
                changed = True
    return Propagation(conflict=False, forced=forced)
