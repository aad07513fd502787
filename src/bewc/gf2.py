"""Bit-packed linear algebra over GF(2).

Rows are arbitrary-precision Python ints; bit i of a row is column i
(little-endian within the int).  Row operations are single XORs, which is
what the rank inner loops need.  Everything here is a pure function on
immutable values; nothing mutates its inputs.

A matrix with zero rows or zero columns is legal (rank 0); full-rank null
spaces produce them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


class DimensionError(ValueError):
    """Operand shapes do not line up."""


@dataclass(frozen=True)
class BitVec:
    """A length-n bit vector packed into one int (bit i = coordinate i)."""

    length: int
    word: int = 0

    def __post_init__(self) -> None:
        if self.length < 0:
            raise ValueError("length must be nonnegative")
        if self.word < 0 or self.word >> self.length:
            raise ValueError("bits set beyond length")

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitVec":
        bits = list(bits)
        word = 0
        for i, b in enumerate(bits):
            if b:
                word |= 1 << i
        return cls(len(bits), word)

    @classmethod
    def from_string(cls, s: str) -> "BitVec":
        """Parse a '01' string; leftmost character is coordinate 0."""
        if not set(s) <= {"0", "1"}:
            raise ValueError(f"not a bit string: {s!r}")
        return cls.from_bits(int(c) for c in s)

    def to01(self) -> str:
        return "".join("1" if (self.word >> i) & 1 else "0" for i in range(self.length))

    def __xor__(self, other: "BitVec") -> "BitVec":
        if self.length != other.length:
            raise DimensionError("xor of different lengths")
        return BitVec(self.length, self.word ^ other.word)


@dataclass(frozen=True)
class BitMatrix:
    """A stack of equal-width packed rows."""

    cols: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.cols < 0:
            raise ValueError("cols must be nonnegative")
        for r in self.rows:
            if r < 0 or r >> self.cols:
                raise ValueError("row has bits beyond cols")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "BitMatrix":
        vecs = [BitVec.from_bits(r) for r in rows]
        widths = {v.length for v in vecs}
        if len(widths) > 1:
            raise DimensionError("ragged rows")
        cols = widths.pop() if widths else 0
        return cls(cols, tuple(v.word for v in vecs))

    @classmethod
    def from_strings(cls, rows: Sequence[str]) -> "BitMatrix":
        return cls.from_rows([[int(c) for c in r] for r in rows])

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(n, tuple(1 << i for i in range(n)))

    @classmethod
    def zeros(cls, nrows: int, cols: int) -> "BitMatrix":
        return cls(cols, (0,) * nrows)

    def row(self, i: int) -> BitVec:
        return BitVec(self.cols, self.rows[i])

    def row_strings(self) -> list[str]:
        return [self.row(i).to01() for i in range(self.nrows)]


def column_ints(m: BitMatrix) -> list[int]:
    """Columns of m as packed ints (bit i = row i)."""
    out = []
    for j in range(m.cols):
        c = 0
        for i, r in enumerate(m.rows):
            if (r >> j) & 1:
                c |= 1 << i
        out.append(c)
    return out


def masked_rank(vectors: Sequence[int], mask: int) -> int:
    """GF(2) rank of the vectors[i] whose bit i is set in mask.

    Forward elimination in which any 1 serves as a pivot.  This is the one
    elimination loop of the package (rref aside): `rank` and the per-pattern
    entropy kernel's scalar path both run through it.
    """
    pivots: dict[int, int] = {}
    r = 0
    while mask:
        v = vectors[(mask & -mask).bit_length() - 1]
        mask &= mask - 1
        while v:
            low = (v & -v).bit_length() - 1
            p = pivots.get(low)
            if p is None:
                pivots[low] = v
                r += 1
                break
            v ^= p
    return r


def rank(m: BitMatrix) -> int:
    """GF(2) row rank."""
    return masked_rank(m.rows, (1 << m.nrows) - 1)


def rref(m: BitMatrix) -> tuple[BitMatrix, list[int]]:
    """Reduced row echelon form and its pivot columns, left to right."""
    rows = list(m.rows)
    pivot_cols: list[int] = []
    pr = 0
    for col in range(m.cols):
        mask = 1 << col
        found = -1
        for i in range(pr, len(rows)):
            if rows[i] & mask:
                found = i
                break
        if found < 0:
            continue
        rows[pr], rows[found] = rows[found], rows[pr]
        piv = rows[pr]
        for i in range(len(rows)):
            if i != pr and rows[i] & mask:
                rows[i] ^= piv
        pivot_cols.append(col)
        pr += 1
    return BitMatrix(m.cols, tuple(rows)), pivot_cols


def null_space(m: BitMatrix) -> BitMatrix:
    """A basis of {x : m·x = 0} as rows; cols(m) − rank(m) rows."""
    red, piv = rref(m)
    pivset = set(piv)
    free = [j for j in range(m.cols) if j not in pivset]
    basis = []
    for f in free:
        x = 1 << f
        for i, p in enumerate(piv):
            if (red.rows[i] >> f) & 1:
                x |= 1 << p
        basis.append(x)
    return BitMatrix(m.cols, tuple(basis))


def vec_mat_mul(v: BitVec, m: BitMatrix) -> BitVec:
    """v·m over GF(2): XOR of the rows of m selected by v."""
    if v.length != m.nrows:
        raise DimensionError("vector length must equal row count")
    acc = 0
    w = v.word
    while w:
        i = (w & -w).bit_length() - 1
        acc ^= m.rows[i]
        w &= w - 1
    return BitVec(m.cols, acc)


def mul_transpose(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """a·bᵀ over GF(2); entry (i, j) is the parity of |row_i(a) ∧ row_j(b)|."""
    if a.cols != b.cols:
        raise DimensionError("widths disagree")
    out = []
    for ra in a.rows:
        w = 0
        for j, rb in enumerate(b.rows):
            if (ra & rb).bit_count() & 1:
                w |= 1 << j
        out.append(w)
    return BitMatrix(b.nrows, tuple(out))


def is_zero(m: BitMatrix) -> bool:
    return all(r == 0 for r in m.rows)
