from fractions import Fraction

import numpy as np
import pytest

import bewc
from bewc.codes import RandomCodeParams
from bewc.gf2 import BitMatrix, BitVec


def from_strings(rows: list[str]) -> BitMatrix:
    """A BitMatrix from '01' strings; the leftmost character is column 0."""
    widths = {len(r) for r in rows}
    assert len(widths) <= 1, "ragged rows"
    return BitMatrix(widths.pop() if widths else 0,
                     tuple(BitVec.from_string(r).word for r in rows))


def identity(n: int) -> BitMatrix:
    return BitMatrix(n, tuple(1 << i for i in range(n)))


def zeros(nrows: int, cols: int) -> BitMatrix:
    return BitMatrix(cols, (0,) * nrows)


def pack(words: list[int], nbits: int) -> np.ndarray:
    """Python-int vectors as an (N, ⌈nbits/8⌉) uint8 batch, one per row, packed
    little-endian as `gf2.vec_mat_mul` takes them."""
    nb = (nbits + 7) // 8
    data = b"".join(w.to_bytes(nb, "little") for w in words)
    return np.frombuffer(data, dtype=np.uint8).reshape(len(words), nb)


def unpack(rows: np.ndarray) -> list[int]:
    """The rows of a packed batch as Python ints (bit i = coordinate i)."""
    return [int.from_bytes(r.tobytes(), "little") for r in rows]


@pytest.fixture
def ex1():
    """The 4-bit self-dual base code whose codebook has 4 cosets of 4 words."""
    return bewc.from_generator(from_strings(["1001", "0110"]), "ex1")


def random_code(n: int, dim: int, seed: int, alpha: float = 0.5):
    return bewc.random_base(RandomCodeParams(n=n, dim=dim, alpha=alpha, seed=seed))


def dual_words(code) -> list[int]:
    """C⊥ by brute force over F₂ⁿ: every word orthogonal to each row of G."""
    return [x for x in range(1 << code.n)
            if all((x & g).bit_count() % 2 == 0 for g in code.G.rows)]


def exact_gap_by_dual_count(code) -> Fraction:
    """Ag = R − H(M|Z)/n at ε = R as an exact rational, by counting dual words.

    Revealing the positions S leaves H(M|Z) = k − log2 #{c ∈ C⊥ : supp c ⊆ S}.
    C⊥ is found by brute force over F₂ⁿ, so nothing here shares elimination
    code with the package (no rank, null space or rank profile). Cost is
    2^n·(dim + 2^k) word operations: fine for n ≤ 15 with a small k.
    """
    n, k = code.n, code.k
    dual = dual_words(code)
    assert len(dual) == 1 << k
    full = (1 << n) - 1
    # bits_by_mu[µ] = Σ over patterns revealing µ positions of H(M|Z).
    bits_by_mu = [0] * (n + 1)
    for revealed in range(1 << n):
        hidden = full & ~revealed
        count = sum(1 for c in dual if c & hidden == 0)
        assert count & (count - 1) == 0  # a subspace: a power of two
        bits_by_mu[revealed.bit_count()] += k - (count.bit_length() - 1)
    eps = Fraction(k, n)
    bits = sum(eps ** (n - mu) * (1 - eps) ** mu * b for mu, b in enumerate(bits_by_mu))
    return eps - bits / n
