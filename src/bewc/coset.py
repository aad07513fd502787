"""Coset encoding and syndrome decoding.

The message picks a coset of the base code; a fresh random vector picks the
codeword within it.  With the auxiliary matrix G' chosen so that G'·Hᵀ = I,
the receiver's syndrome y·Hᵀ is exactly the message, so decoding is one
vector-matrix product.  `encode` and `decode` work on batches: m, v, x and y
are uint8 arrays with one packed vector per row (see `gf2.vec_mat_mul`),
and one message is a batch of one row.  The explicit codebook (all 2^k
cosets listed out) is kept as a small-n ground-truth oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gf2
from .codes import CodeSpec, GuardError
from .gf2 import BitMatrix

CODEBOOK_GUARD_N = 20


@dataclass(frozen=True)
class EncoderMatrices:
    code: CodeSpec
    gprime: BitMatrix  # k×n, rows q_1..q_k with G'·Hᵀ = I_k
    # The `vec_mat_mul` tables of G', G and Hᵀ (n×k, the syndrome map), built
    # once here so that `encode` and `decode` only gather.
    gprime_tables: gf2.ByteTables
    g_tables: gf2.ByteTables
    htrans_tables: gf2.ByteTables


def build_encoder(code: CodeSpec) -> EncoderMatrices:
    """Construct G' from one elimination: RREF([H | I_k]) = [A·H | A].

    Row j of A·H has its pivot at column p_j, so q_i = XOR of e_{p_j} over the
    j with A[j][i] = 1 solves H·q_iᵀ = e_i with every free variable zeroed,
    a deterministic choice.  q_i·h_iᵀ = 1 already forces q_i outside the base
    code, so no separate membership check is needed.
    """
    n, k = code.n, code.k
    aug = BitMatrix(n + k, tuple(h | 1 << (n + i) for i, h in enumerate(code.H.rows)))
    red, piv = gf2.rref(aug)
    rows = [0] * k
    for row, p in zip(red.rows, piv):  # H has full rank, so every pivot p < n
        a = row >> n
        for i in range(k):
            if (a >> i) & 1:
                rows[i] |= 1 << p
    gprime = BitMatrix(n, tuple(rows))
    return EncoderMatrices(
        code=code,
        gprime=gprime,
        gprime_tables=gf2.ByteTables(gprime),
        g_tables=gf2.ByteTables(code.G),
        htrans_tables=gf2.ByteTables(BitMatrix(k, tuple(gf2.column_ints(code.H)))),
    )


def encode(enc: EncoderMatrices, m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """x = m·G' ⊕ v·G row by row; m selects the coset, v the codeword within it."""
    if len(m) != len(v):
        raise gf2.DimensionError(f"need one random vector per message, got {len(v)} for {len(m)}")
    return gf2.vec_mat_mul(m, enc.gprime_tables) ^ gf2.vec_mat_mul(v, enc.g_tables)


def decode(enc: EncoderMatrices, y: np.ndarray) -> np.ndarray:
    """Syndrome decoding, row by row: m = y·Hᵀ.  Assumes y arrived erasure-free."""
    return gf2.vec_mat_mul(y, enc.htrans_tables)


@dataclass(frozen=True)
class Codebook:
    """All 2^k cosets listed explicitly; coset index = syndrome of any member."""

    code: CodeSpec
    cosets: np.ndarray  # (2^k, 2^dim): row m holds coset m's words, ascending

    def format_table(self) -> str:
        """Message-by-codewords table (one row per coset)."""
        n = self.code.n
        lines = ["m | codewords"]
        for m, coset in enumerate(self.cosets.tolist()):
            words = " ".join(gf2.to01(w, n) for w in coset)
            lines.append(f"{m} | {words}")
        return "\n".join(lines)


def codebook(code: CodeSpec) -> Codebook:
    if code.n > CODEBOOK_GUARD_N:
        raise GuardError(
            f"explicit codebook needs n <= {CODEBOOK_GUARD_N}, got n={code.n}"
        )
    # syn[w] = w·Hᵀ, the XOR of H's columns at w's set bits, by doubling.
    syn = np.zeros(1, dtype=np.int64)
    for col in gf2.column_ints(code.H):
        syn = np.concatenate([syn, syn ^ col])
    words = np.argsort(syn, kind="stable")  # grouped by syndrome, ascending within
    return Codebook(code=code, cosets=words.reshape(1 << code.k, -1))
