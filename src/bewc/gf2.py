"""Bit-packed linear algebra over GF(2), and the package's two bit formats.

A row, vector, erasure pattern or observed word is a Python int whose bit i
is position i, so a row operation is one XOR.  A batch of vectors is an
(N, ⌈bits/8⌉) uint8 array, one vector per row, with bit j of byte b at
position 8b + j (the layout of `np.packbits(..., bitorder="little")`);
`vec_mat_mul` alone computes on batches, from a matrix's `ByteTables`.
`pack` and `unpack` are the only conversions between the two formats,
`to01` (and `to01_rows`, its array pass over many words) and `from01` the
only ones to and from '01' strings, whose leftmost character is position 0,
and `transpose` the one transpose between a matrix's rows and its columns.
Everything here is a pure function or an immutable value; nothing mutates
its inputs.

A matrix with zero rows or zero columns is legal (rank 0); full-rank null
spaces produce them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np


class DimensionError(ValueError):
    """Operand shapes do not line up."""


def to01(word: int, length: int) -> str:
    """The '01' string of a length-bit word."""
    if word < 0 or word >> length:
        raise DimensionError(f"word has bits beyond its length {length}")
    return format(word | 1 << length, "b")[:0:-1]  # the marker bit keeps leading zeros


def to01_rows(words: np.ndarray, length: int) -> list[str]:
    """Each row of an (N, m) int64 array of length-bit words, length ≤ 64, as
    its m `to01` strings joined by spaces, in one array pass."""
    chars = np.full((*words.shape, length + 1), ord(" "), dtype=np.uint8)
    chars[..., :-1] = ord("0") | np.unpackbits(words[..., None].astype("<i8").view(np.uint8),
                                               axis=-1, count=length, bitorder="little")
    text, width = chars.tobytes().decode(), words.shape[1] * (length + 1)
    return [text[i:i + width - 1] for i in range(0, len(text), width)]


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


def transpose(rows: np.ndarray, cols: int) -> np.ndarray:
    """The cols columns of a packed (N, ⌈cols/8⌉) batch as a packed (cols, ⌈N/8⌉) one."""
    bits = np.unpackbits(rows, axis=1, count=cols, bitorder="little")
    bits = np.ascontiguousarray(bits.T)  # packbits runs 2–3x faster on it than on a view
    return np.packbits(bits, axis=1, bitorder="little")


def column_ints(m: BitMatrix) -> list[int]:
    """Columns of m as ints (bit i = row i): `transpose`, unpacked."""
    return unpack(transpose(pack(m.rows, m.cols), m.cols))


def _echelon(vectors: Sequence[int], mask: int) -> dict[int, int]:
    """The one elimination loop: an echelon basis of the vectors[i] whose bit i
    is set in mask, each row keyed by its lowest set bit, its pivot (any 1 may
    serve).  `masked_rank` counts the rows and `rref` back-substitutes them."""
    rows: dict[int, int] = {}
    while mask:
        v = vectors[(mask & -mask).bit_length() - 1]
        mask &= mask - 1
        while v:
            low = (v & -v).bit_length() - 1
            p = rows.get(low)
            if p is None:
                rows[low] = v
                break
            v ^= p
    return rows


def masked_rank(vectors: Sequence[int], mask: int) -> int:
    """GF(2) rank of the vectors[i] whose bit i is set in mask."""
    return len(_echelon(vectors, mask))


def rank(m: BitMatrix) -> int:
    """GF(2) row rank."""
    return masked_rank(m.rows, (1 << m.nrows) - 1)


def rref(m: BitMatrix) -> tuple[BitMatrix, list[int]]:
    """Reduced row echelon form and its pivot columns, left to right: `_echelon`'s
    rows sorted by pivot, each cleared at the pivots to its right by the finished
    rows below it, then the dependent rows as zeros."""
    ech = _echelon(m.rows, (1 << m.nrows) - 1)
    piv = sorted(ech)
    rows = [ech[p] for p in piv]
    bits = [1 << p for p in piv]
    for i in range(len(rows) - 2, -1, -1):
        r = rows[i]
        for j in range(i + 1, len(rows)):
            if r & bits[j]:
                r ^= rows[j]
        rows[i] = r
    return BitMatrix(m.cols, (*rows, *[0] * (m.nrows - len(rows)))), piv


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


@dataclass(frozen=True)
class ByteTables:
    """m's rows as the lookup tables `vec_mat_mul` gathers from, built once.

    tables[b, s] is the XOR of the rows 8b + j of m over the set bits j of
    byte s: (⌈m.nrows/8⌉, 256, ⌈m.cols/8⌉) uint8, packed as `pack` packs,
    and read-only.  Two ByteTables are equal when their matrices are.
    """

    m: BitMatrix
    tables: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        m = self.m
        nb, ob = (m.nrows + 7) // 8, (m.cols + 7) // 8
        rows = np.zeros((8 * nb, ob), dtype=np.uint8)
        rows[: m.nrows] = pack(m.rows, m.cols)
        tables = np.zeros((nb, 256, ob), dtype=np.uint8)
        for j in range(8):  # by doubling: entry s | 2^j = entry s ^ row j
            tables[:, 1 << j : 2 << j] = tables[:, : 1 << j] ^ rows[j::8, None]
        tables.flags.writeable = False
        object.__setattr__(self, "tables", tables)


def vec_mat_mul(v: np.ndarray, t: ByteTables) -> np.ndarray:
    """Row-wise v·m over GF(2) for a batch, m = t.m: row i of the result is
    the XOR of the rows of m selected by row i of v.

    v is (N, ⌈m.nrows/8⌉) uint8 and the result (N, ⌈m.cols/8⌉) uint8, both
    packed as `pack` packs.  Each byte of v picks one entry of its table.
    """
    m = t.m
    nb = (m.nrows + 7) // 8
    if v.dtype != np.uint8 or v.ndim != 2 or v.shape[1] != nb:
        raise DimensionError(f"need (N, {nb}) uint8 rows for {m.nrows} bits, "
                             f"got {v.dtype} {v.shape}")
    if m.nrows % 8 and np.any(v[:, -1] >> (m.nrows % 8)):
        raise DimensionError(f"bits set beyond the {m.nrows} rows")
    out = np.zeros((len(v), (m.cols + 7) // 8), dtype=np.uint8)
    for b in range(nb):
        out ^= t.tables[b, v[:, b]]
    return out
