"""Bit-packed linear algebra over GF(2), and the package's two bit formats.

A row, vector, erasure pattern or observed word is a Python int whose bit i
is position i, so a row operation is one XOR.  A batch of vectors is an
(N, ⌈bits/8⌉) uint8 array, one vector per row, with bit j of byte b at
position 8b + j (the layout of `np.packbits(..., bitorder="little")`);
`vec_mat_mul` alone computes on batches.  `pack` and `unpack` are the only
conversions between the two formats, and `to01` and `from01` the only ones
to and from '01' strings, whose leftmost character is position 0.  Everything
here is a pure function; nothing mutates its inputs.

A matrix with zero rows or zero columns is legal (rank 0); full-rank null
spaces produce them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


class DimensionError(ValueError):
    """Operand shapes do not line up."""


def to01(word: int, length: int) -> str:
    """The '01' string of a length-bit word."""
    if word < 0 or word >> length:
        raise DimensionError(f"word has bits beyond its length {length}")
    return format(word | 1 << length, "b")[:0:-1]  # the marker bit keeps leading zeros


def from01(s: str) -> int:
    """The word of a '01' string."""
    # Before int(), which also takes "1_0", " 10", "+10", "10\n" and "١٠".
    if not set(s) <= {"0", "1"}:
        raise ValueError(f"not a bit string: {s!r}")
    return int(s[::-1] or "0", 2)


def pack(words: Sequence[int], nbits: int) -> np.ndarray:
    """nbits-bit words as an (N, ⌈nbits/8⌉) uint8 batch, one word per row."""
    nb = (nbits + 7) // 8
    data = b"".join(w.to_bytes(nb, "little") for w in words)
    return np.frombuffer(data, dtype=np.uint8).reshape(len(words), nb)


def unpack(rows: np.ndarray) -> list[int]:
    """The rows of a packed batch as words."""
    return [int.from_bytes(r.tobytes(), "little") for r in rows]


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

    def row_strings(self) -> list[str]:
        return [to01(r, self.cols) for r in self.rows]


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


def vec_mat_mul(v: np.ndarray, m: BitMatrix) -> np.ndarray:
    """Row-wise v·m over GF(2) for a batch: row i of the result is the XOR of
    the rows of m selected by row i of v.

    v is (N, ⌈m.nrows/8⌉) uint8 and the result (N, ⌈m.cols/8⌉) uint8, both
    packed as `pack` packs.  Each byte of v indexes a 256-entry table of the
    XORs of every subset of the eight rows of m it covers.
    """
    nb, ob = (m.nrows + 7) // 8, (m.cols + 7) // 8
    if v.dtype != np.uint8 or v.ndim != 2 or v.shape[1] != nb:
        raise DimensionError(f"need (N, {nb}) uint8 rows for {m.nrows} bits, "
                             f"got {v.dtype} {v.shape}")
    if m.nrows % 8 and np.any(v[:, -1] >> (m.nrows % 8)):
        raise DimensionError(f"bits set beyond the {m.nrows} rows")
    rows = np.zeros((8 * nb, ob), dtype=np.uint8)
    rows[: m.nrows] = pack(m.rows, m.cols)
    tables = np.zeros((nb, 256, ob), dtype=np.uint8)
    for j in range(8):  # by doubling: entry s | 2^j = entry s ^ row j
        tables[:, 1 << j : 2 << j] = tables[:, : 1 << j] ^ rows[j::8, None]
    out = np.zeros((len(v), ob), dtype=np.uint8)
    for b in range(nb):
        out ^= tables[b, v[:, b]]
    return out


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
