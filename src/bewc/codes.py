"""Base-code construction: Hamming, simplex, Bernoulli random, explicit,
and exhaustive subspace enumeration.

A base code is an (n, n−k) binary linear code; its 2^k cosets carry the
messages.  Hamming and simplex generators use a fixed column convention
(columns sorted by increasing integer value of their bit pattern) so runs
are reproducible; coset equivocation is invariant under column order.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterator

import numpy as np

from . import gf2
from .gf2 import BitMatrix

SUBSPACE_ENUM_GUARD = 10**7
# Bases per `enumerate_subspaces` array: one pivot set can have 2^23 fills.  It also
# bounds `subcode_supports`' scratch: a gathered (4096, W) uint64 row, 32 KB per 64
# positions, and its popcounts, one (4096, W) uint8 block.
SUBSPACE_BLOCK = 4096
# Each `random_base` attempt draws a (dim, n) generator and ranks it.  A draw
# that is dependent again and again is sparse, and costs 14–22 ns per entry
# (n = 2,000..2,324, 2-vCPU VM); a dense dependent one, at dim ≈ n, costs up to
# 155 ns but fails only about 2 draws in 5.  So attempts stop at 1,000 or at
# 10^8 entries in all, about 2 s: fifty draws at (1000, 2000).
RANDOM_RANK_ATTEMPTS = 1000
RANDOM_DRAW_BUDGET = 10**8
# Building a code runs rref(G) for its null space, then rank(G), rank(H) and
# G·Hᵀ.  Each makes up to about n² row operations (an XOR or AND of two n-bit
# ints, ⌈n/64⌉ words): rank(H) alone makes k²/2 for one all-ones row, and
# rref(G) and G·Hᵀ make about dim·n and dim·k.  So a build costs about
# n²·⌈n/64⌉ word operations at any dim.  At 6–10 ns each (2-vCPU VM), the
# largest shapes admitted (n = 2,324) built in 0.4–2.1 s, the slowest from
# one all-ones row and from n − 8 dense rows.
BUILD_WORD_OPS_BUDGET = 2 * 10**8


class CodeError(ValueError):
    """Invalid code parameters or a violated code invariant."""


class GuardError(RuntimeError):
    """A computation guard (size budget) was exceeded."""


def derive_seed(master: int, *indices) -> int:
    """Counter-based 64-bit subseed from a master seed and an index path.

    Stable across runs and independent of call order, so parallel workers
    can derive their streams without shared RNG state.
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(struct.pack("<Q", master & 0xFFFFFFFFFFFFFFFF))
    for ix in indices:
        if isinstance(ix, str):
            h.update(b"s" + ix.encode())
        else:
            h.update(b"i" + struct.pack("<q", ix))
    return int.from_bytes(h.digest(), "little")


def make_rng(seed: int, *indices) -> np.random.Generator:
    key = derive_seed(seed, *indices) if indices else seed & 0xFFFFFFFFFFFFFFFF
    return np.random.Generator(np.random.Philox(key=key))


def check_shape(n: int, dim: int) -> None:
    """Reject an (n, dim) pair that no base code has, or one whose build
    would exceed BUILD_WORD_OPS_BUDGET."""
    if not 1 <= dim < n:
        raise CodeError(f"need 1 <= dim < n, got dim={dim}, n={n}")
    if n * n * -(-n // 64) > BUILD_WORD_OPS_BUDGET:
        raise GuardError(f"building a code of length n={n} takes about n²·⌈n/64⌉ word "
                         f"operations, over the budget of {BUILD_WORD_OPS_BUDGET:.0e}")


@dataclass(frozen=True)
class CodeSpec:
    """An (n, n−k) base code: generator G (dim×n), parity check H (k×n).

    n and dim are G's shape, stored once here so per-trial callers read
    plain attributes.
    """

    name: str
    G: BitMatrix
    H: BitMatrix
    n: int = field(init=False)
    dim: int = field(init=False)

    @property
    def k(self) -> int:
        return self.n - self.dim

    @property
    def rate(self) -> float:
        return self.k / self.n

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", self.G.cols)
        object.__setattr__(self, "dim", self.G.nrows)
        check_shape(self.n, self.dim)
        if self.H.nrows != self.k or self.H.cols != self.n:
            raise CodeError("H has wrong shape")
        if gf2.rank(self.G) != self.dim:
            raise CodeError("G is rank-deficient")
        if gf2.rank(self.H) != self.k:
            raise CodeError("H is rank-deficient")
        if not gf2.is_zero(gf2.mul_transpose(self.G, self.H)):
            raise CodeError("G·Hᵀ != 0")


@dataclass(frozen=True)
class RandomCodeParams:
    n: int
    dim: int
    alpha: float
    seed: int

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise CodeError(f"alpha must be in (0, 1), got {self.alpha}")
        check_shape(self.n, self.dim)  # before any draw


def from_generator(rows: BitMatrix, name: str = "custom") -> CodeSpec:
    """Build a CodeSpec from an explicit full-rank generator."""
    check_shape(rows.cols, rows.nrows)  # before the O(n²) null space
    H = gf2.null_space(rows)
    if rows.cols - H.nrows != rows.nrows:  # rank(G) = n − dim(null space)
        raise CodeError("generator rows are linearly dependent")
    return CodeSpec(name, rows, H)


def _nonzero_column_matrix(r: int) -> BitMatrix:
    """r×(2^r−1) matrix whose column j is the bits of integer j+1: the
    transpose of the r-bit rows 1..2^r−1."""
    n = (1 << r) - 1
    return BitMatrix(n, tuple(gf2.column_ints(BitMatrix(r, tuple(range(1, n + 1))))))


def hamming_base(r: int) -> CodeSpec:
    """(2^r−1, 2^r−1−r) Hamming base code; k = r."""
    if not 2 <= r <= 8:
        raise CodeError(f"hamming r must be in [2, 8], got {r}")
    H = _nonzero_column_matrix(r)
    return CodeSpec(f"hamming-{r}", gf2.null_space(H), H)


def simplex_base(r: int) -> CodeSpec:
    """(2^r−1, r) simplex base code; k = 2^r−1−r."""
    if not 2 <= r <= 8:
        raise CodeError(f"simplex r must be in [2, 8], got {r}")
    return from_generator(_nonzero_column_matrix(r), f"simplex-{r}")


def random_base(p: RandomCodeParams) -> CodeSpec:
    """Bernoulli(alpha) generator, whole-matrix resampled until full rank."""
    rng = make_rng(p.seed)
    attempts = min(RANDOM_RANK_ATTEMPTS, max(1, RANDOM_DRAW_BUDGET // (p.n * p.dim)))
    for _ in range(attempts):
        bits = rng.random((p.dim, p.n)) < p.alpha
        G = BitMatrix(p.n, tuple(gf2.unpack(np.packbits(bits, axis=1, bitorder="little"))))
        if gf2.rank(G) == p.dim:
            return from_generator(G, f"random-{p.n}-{p.dim}-{p.alpha:g}-{p.seed}")
    raise CodeError(
        f"no full-rank Bernoulli({p.alpha}) generator of shape "
        f"({p.dim}, {p.n}) in {attempts} attempts"
    )


def gaussian_binomial(n: int, d: int) -> int:
    """Number of d-dimensional subspaces of GF(2)^n."""
    if d < 0 or d > n:
        return 0
    num = den = 1
    for i in range(d):
        num *= (1 << (n - i)) - 1
        den *= (1 << (d - i)) - 1
    return num // den


def enumerate_subspaces(n: int, dim: int) -> Iterator[np.ndarray]:
    """Every dim-dimensional subspace of GF(2)^n once, as (dim, ≤ SUBSPACE_BLOCK)
    arrays of RREF bases, one basis per column: int64 rows below n = 64, Python
    ints from n = 64 on, where the guard admits only dim 0 and n.  Pivot-column
    sets come in lexicographic order, then each set's fills of its free entries
    counted up from 0, fill bit t setting free slot t (row-major).  A shape with
    over SUBSPACE_ENUM_GUARD subspaces is refused at the first `next`."""
    # [n choose dim]_2 ≥ 2^(dim·(n−dim)) refuses a huge shape before its count
    # is computed, which takes over 30 s at (8000, 4000).
    if (0 <= dim <= n and dim * (n - dim) >= SUBSPACE_ENUM_GUARD.bit_length()) or (
        gaussian_binomial(n, dim) > SUBSPACE_ENUM_GUARD
    ):
        raise GuardError(
            f"the ({n},{dim}) subspaces outnumber the enumeration guard ({SUBSPACE_ENUM_GUARD})"
        )
    dtype = np.int64 if n < 64 else object  # an int64 holds bits 0..62
    for pivots in combinations(range(n), dim):
        # Free slots: (row, col) with col past the row's pivot and not a pivot.
        slots = [(i, j) for i, p in enumerate(pivots)
                 for j in range(p + 1, n) if j not in pivots]
        base, size = np.array([1 << p for p in pivots], dtype=dtype)[:, None], 1 << len(slots)
        for lo in range(0, size, SUBSPACE_BLOCK):
            fill = np.arange(lo, min(lo + SUBSPACE_BLOCK, size), dtype=np.int64)
            block = base + np.zeros_like(fill)
            for t, (i, j) in enumerate(slots):
                block[i] |= ((fill >> t) & 1) << j
            yield block


def canonical_generator(m: BitMatrix) -> BitMatrix:
    """The RREF basis of m's row space (the subspace's canonical label)."""
    red, piv = gf2.rref(m)
    return BitMatrix(m.cols, red.rows[: len(piv)])


def serialize(code: CodeSpec) -> str:
    doc = {
        "name": code.name,
        "n": code.n,
        "dim": code.dim,
        "generator_rows": code.G.row_strings(),
    }
    return json.dumps(doc, indent=2) + "\n"


def parse(text: str) -> CodeSpec:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:  # too deeply nested
        raise CodeError(f"malformed code document: {e}") from e
    if not isinstance(doc, dict):
        raise CodeError("code document must be a JSON object")
    for key in ("name", "n", "dim", "generator_rows"):
        if key not in doc:
            raise CodeError(f"code document missing field {key!r}")
    n, rows = doc["n"], doc["generator_rows"]
    if not isinstance(doc["name"], str):
        raise CodeError("name must be a string")
    if type(n) is not int or type(doc["dim"]) is not int:
        raise CodeError("n and dim must be integers")
    if not isinstance(rows, list) or not all(isinstance(r, str) for r in rows):
        raise CodeError("generator_rows must be a list of '01' strings")
    if len(rows) != doc["dim"]:
        raise CodeError("generator_rows count does not match dim")
    if any(len(r) != n for r in rows):
        raise CodeError("generator row width does not match n")
    try:
        # Width from the document, so a zero-row generator keeps its n.
        G = BitMatrix(n, tuple(gf2.from01(r) for r in rows))
    except ValueError as e:
        raise CodeError(str(e)) from e
    return from_generator(G, name=doc["name"])
