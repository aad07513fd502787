import math
import os
from fractions import Fraction
from itertools import combinations

import pytest

import bewc
from bewc import gf2
from bewc.codes import CodeSpec, RandomCodeParams
from bewc.coset import Codebook
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


def mul_transpose(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """a·bᵀ over GF(2); entry (i, j) is the parity of |row_i(a) ∧ row_j(b)|.
    The reference for the identities that codes and encoders must satisfy."""
    assert a.cols == b.cols, "widths disagree"
    return BitMatrix(b.nrows, tuple(
        sum(((ra & rb).bit_count() & 1) << j for j, rb in enumerate(b.rows))
        for ra in a.rows))


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


def reference_subspaces(n: int, dim: int) -> list[BitMatrix]:
    """Every dim-dimensional subspace of GF(2)^n as its RREF basis, in the
    order `codes.enumerate_subspaces` yields them across its blocks' columns:
    pivot-column sets in lexicographic order, then each set's fills of the free
    entries counted up from 0, fill bit t setting free slot t (row-major).  A
    pure-Python loop, the reference for the enumerator's numpy blocks."""
    out = []
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
            out.append(BitMatrix(n, tuple(rows)))
    return out


def enumerated_bases(n: int, dim: int) -> list[BitMatrix]:
    """The bases `codes.enumerate_subspaces(n, dim)` yields, one BitMatrix per
    block column, in order."""
    return [BitMatrix(n, tuple(rows)) for block in bewc.enumerate_subspaces(n, dim)
            for rows in block.T.tolist()]


def _check_mask(code: CodeSpec, mask: int) -> None:
    if mask < 0 or mask >> code.n:
        raise gf2.DimensionError(f"mask {mask:#x} has bits outside the code's {code.n} positions")


def pattern_equivocation(code: CodeSpec, revealed: int) -> int:
    """Bits of uncertainty left about the message when the positions of the
    mask `revealed` arrive unerased: k − µ + rank(G_µ), the reference that
    the batched kernel and the rank profiles are checked against."""
    _check_mask(code, revealed)
    # G with its erased columns zeroed has the rank of G_µ.
    g_mu = BitMatrix(code.n, tuple(g & revealed for g in code.G.rows))
    return code.k - revealed.bit_count() + gf2.rank(g_mu)


def observation_equivocation_oracle(
    code: CodeSpec, mask: int, word: int, book: Codebook | None = None
) -> float:
    """Entropy of the message posterior by direct coset counting, for the
    observation that reveals the positions of `mask` with the values of `word`.

    Counts the codewords of every coset consistent with the observation and
    takes the Shannon entropy of the induced distribution; no rank formula and
    no assumption of within-coset uniformity.
    """
    _check_mask(code, mask)
    if word & ~mask:
        raise gf2.DimensionError("observed word has bits outside the revealed mask")
    if book is None:
        book = bewc.codebook(code)
    counts = ((book.cosets & mask) == word).sum(axis=1).tolist()
    total = sum(counts)
    return -sum((c / total) * math.log2(c / total) for c in counts if c)


@pytest.fixture(params=[1, 2, 3])
def pool(request, monkeypatch):
    """An `equivocation.ThreadPool` of 1, 2 and 3 threads, with T real worker
    threads (none at T = 1) whatever the host's CPU count."""
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    with bewc.equivocation.ThreadPool(request.param) as p:
        assert p.workers == min(request.param, 3)
        yield p


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
