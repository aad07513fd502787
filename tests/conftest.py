from fractions import Fraction

import pytest

import bewc
from bewc.codes import RandomCodeParams
from bewc.gf2 import BitMatrix, from01


def from_strings(rows: list[str]) -> BitMatrix:
    """A BitMatrix from '01' strings; the leftmost character is column 0."""
    widths = {len(r) for r in rows}
    assert len(widths) <= 1, "ragged rows"
    return BitMatrix(widths.pop() if widths else 0, tuple(from01(r) for r in rows))


def identity(n: int) -> BitMatrix:
    return BitMatrix(n, tuple(1 << i for i in range(n)))


def zeros(nrows: int, cols: int) -> BitMatrix:
    return BitMatrix(cols, (0,) * nrows)


def observation(symbols: str) -> tuple[int, int]:
    """The (revealed mask, word) of an observation over {0, 1, ?}; the
    leftmost symbol is position 0."""
    return from01(symbols.replace("0", "1").replace("?", "0")), from01(symbols.replace("?", "0"))


def all_observations(n: int) -> list[tuple[int, int]]:
    """All 3^n observations of n positions as (revealed mask, word) pairs,
    grouped by mask: every word whose bits lie inside its mask."""
    out = []
    for mask in range(1 << n):
        word = mask
        while True:  # the submasks of mask, down to 0
            out.append((mask, word))
            if not word:
                break
            word = (word - 1) & mask
    return out


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
