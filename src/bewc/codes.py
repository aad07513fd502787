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
from .gf2 import BitMatrix, BitVec

SUBSPACE_ENUM_GUARD = 10**7
RANDOM_RANK_ATTEMPTS = 1000


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
    """Reject an (n, dim) pair that no base code has."""
    if not 1 <= dim < n:
        raise CodeError(f"need 1 <= dim < n, got dim={dim}, n={n}")


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
    """r×(2^r−1) matrix whose column j is the bits of integer j+1."""
    n = (1 << r) - 1
    rows = []
    for i in range(r):
        w = 0
        for j in range(n):
            if ((j + 1) >> i) & 1:
                w |= 1 << j
        rows.append(w)
    return BitMatrix(n, tuple(rows))


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
    for _ in range(RANDOM_RANK_ATTEMPTS):
        bits = rng.random((p.dim, p.n)) < p.alpha
        packed = np.packbits(bits, axis=1, bitorder="little")
        rows = tuple(int.from_bytes(row.tobytes(), "little") for row in packed)
        G = BitMatrix(p.n, rows)
        if gf2.rank(G) == p.dim:
            return from_generator(G, f"random-{p.n}-{p.dim}-{p.alpha:g}-{p.seed}")
    raise CodeError(
        f"no full-rank Bernoulli({p.alpha}) generator of shape "
        f"({p.dim}, {p.n}) in {RANDOM_RANK_ATTEMPTS} attempts"
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


def enumerate_subspaces(n: int, dim: int) -> Iterator[BitMatrix]:
    """Yield every dim-dimensional subspace of GF(2)^n once, as its RREF basis.

    Enumerates pivot-column sets, then all fills of the free entries.
    """
    # [n choose dim]_2 ≥ 2^(dim·(n−dim)) refuses a huge shape before its count
    # is computed, which takes over 30 s at (8000, 4000).
    if (0 <= dim <= n and dim * (n - dim) >= SUBSPACE_ENUM_GUARD.bit_length()) or (
        gaussian_binomial(n, dim) > SUBSPACE_ENUM_GUARD
    ):
        raise GuardError(
            f"the ({n},{dim}) subspaces outnumber the enumeration guard ({SUBSPACE_ENUM_GUARD})"
        )
    for pivots in combinations(range(n), dim):
        pivset = set(pivots)
        # Free slots: (row, col) with col past the row's pivot and not a pivot.
        slots = [(i, j) for i, p in enumerate(pivots)
                 for j in range(p + 1, n) if j not in pivset]
        base_rows = [1 << p for p in pivots]
        for fill in range(1 << len(slots)):
            rows = list(base_rows)
            f = fill
            while f:
                t = (f & -f).bit_length() - 1
                i, j = slots[t]
                rows[i] |= 1 << j
                f &= f - 1
            yield BitMatrix(n, tuple(rows))


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
    except json.JSONDecodeError as e:
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
        G = BitMatrix(n, tuple(BitVec.from_string(r).word for r in rows))
    except ValueError as e:
        raise CodeError(str(e)) from e
    return from_generator(G, name=doc["name"])
