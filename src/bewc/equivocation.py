"""Eavesdropper equivocation over the binary erasure channel.

An erasure pattern is the int mask of the positions the eavesdropper sees
unerased (bit i = position i), and an observation is that mask plus the
word it reveals.  Per-observation entropy for a coset code depends only on
the mask: with µ positions revealed, it is k − µ + rank(G_µ), where G_µ is
the generator restricted to the revealed columns.
Sampled patterns are scored by one batched kernel, `PatternEntropy`, on
erased masks packed as `gf2.pack` packs; it counts the words of C⊥ or C an
erasure hides as the AND of one bitset-table row per byte of the mask (the
Four-Russians lookup `gf2.vec_mat_mul` also uses).  `pack_erasures` makes
those masks from raw Philox words with an integer threshold, bit for bit
the patterns that `Generator.random(...) < ε` would give.

Exact equivocation counts all 2^n erasure patterns into a rank profile
N(µ, r) without scoring a pattern on its own: up to n = 28 with one
subset-sum transform over the words of C⊥ or C (`rank_profile`), above it
from the support sizes of their subcodes (`support_profile`).
`equivocation_bits`, the one evaluator of the resulting polynomial in ε,
serves points, curves, gaps and searches alike.  Beyond both builders'
budgets, an unbiased Monte Carlo estimator samples patterns.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence

import numpy as np

from . import codes, gf2
from .codes import CodeSpec, GuardError, derive_seed, gaussian_binomial, make_rng

# Bounds the real cost of `rank_profile`: O(n·2^n) time in 2^15-entry blocks
# whatever min(k, dim) is, 0.17 s at n = 24 and 2.4 s at n = 28 (2-vCPU VM).
RANK_PROFILE_GUARD_N = 28
MC_BATCH = 1 << 14
CI95 = 1.96


# Row spaces of at most this dimension are listed into bitset tables, one
# (256, max(1, 2^d/64)) uint64 table per byte of a pattern; above it, each
# pattern gets its own elimination.  Per pattern at n = 30..127 (2-vCPU VM),
# d = 13: 2.1–3.8 µs by tables against 7.8–162 µs eliminated; d = 14:
# 1.7–7.9 µs against 5.0–151 µs.  The crossover lies above 13, but table
# memory doubles with each d (4 MB at d = 13, n = 127; 8 MB at d = 14).
SPAN_MAX_DIM = 13
# uint64 words (2 MB) in one sampling step, `PatternEntropy.rows` trials drawn,
# packed and scored at once: it bounds both the draw and the kernel's accumulator.
STEP_WORDS = 1 << 18


def _row_weights(packed: np.ndarray) -> np.ndarray:
    """Set bits per row of a packed (N, W) array of unsigned words, as int64."""
    return np.bitwise_count(packed).sum(axis=1, dtype=np.int64)


def pack_erasures(words: np.ndarray, eps: float) -> np.ndarray:
    """Erased masks, packed as `gf2.pack` packs, from an (N, n) array of raw
    Philox words, left as they are: position i is erased when the double
    (word >> 11)·2^−53 that `Generator.random` makes of word i is below ε,
    that is when the word is below L = ⌈ε·2^53⌉·2^11, for every ε in [0, 1]
    (L = 2^64 at ε = 1 erases every position, L = 0 none)."""
    size, n = words.shape
    limit = math.ceil(eps * 2**53) << 11
    erased = np.zeros((size, 8 * ((n + 7) // 8)), dtype=bool)
    if limit:
        np.less_equal(words, np.uint64(limit - 1), out=erased[:, :n])
    return np.packbits(erased, bitorder="little").reshape(size, -1)


def _smaller_row_space(code: CodeSpec) -> list[int]:
    """All 2^min(k, dim) words of C⊥ (spanned by H) when k ≤ dim, else of C;
    word x is the sum of the basis rows picked by the bits of x."""
    span = [0]
    for row in (code.H if code.k <= code.dim else code.G).rows:
        span += [c ^ row for c in span]
    return span


class PatternEntropy:
    """Per-pattern entropy h(E), in bits, for batches of erased-position masks.

    h = k − log2 #{c ∈ D : c ∧ E = 0} on the H side (D = C⊥, k ≤ dim) and
    h = |E| − log2 #{c ∈ D : c ∧ ¬E = 0} on the G side (D = C); each count is
    the size of a subspace, so its log2 is exact.  With d = min(k, dim) ≤
    SPAN_MAX_DIM, the 2^d words of D are indexed by their coefficient vector
    x and each set of them is a bitset over x, W = max(1, 2^d/64) uint64
    words.  Z_i = {x : bit i of word x is 0} is column i of D's complemented
    word list, read through `gf2.transpose`, and byte j of a mask indexes a
    (256, W) table whose entry b is the AND of Z_i over the bits i of b (built
    by doubling; entry 0 is all of D).  A pattern's set is the AND of one
    table row per byte, and its size is the popcount of that AND, summed over
    its W words.  The G side stores each table reversed, so that the
    erased byte picks the entry of its complement.  Positions past n are one
    in every complemented word, so they constrain neither side.  When
    d > SPAN_MAX_DIM, each pattern gets one GF(2) elimination instead, on the
    cheaper of H_E and G_Ē.
    A call scores its whole batch in one pass; the samplers pass it at most
    `rows` = STEP_WORDS / max(n, W) trials (W = 1 when eliminating).
    """

    def __init__(self, code: CodeSpec):
        self.n, self.k, self.dim = code.n, code.k, code.dim
        self.h_side = code.k <= code.dim
        d = min(code.k, code.dim)
        nbytes, w = (code.n + 7) // 8, max(1, (1 << d) // 64) if d <= SPAN_MAX_DIM else 1
        self.rows = max(1, STEP_WORDS // max(code.n, w))
        if d > SPAN_MAX_DIM:
            self.tables = None
            self.cols_h, self.cols_g = gf2.column_ints(code.H), gf2.column_ints(code.G)
            return
        comp = np.zeros((64 * w, nbytes), dtype=np.uint8)  # rows x ≥ 2^d lie in no Z_i
        comp[: 1 << d] = ~gf2.pack(_smaller_row_space(code), code.n)  # 1 past n
        z = gf2.transpose(comp, 8 * nbytes).view("<u8").reshape(nbytes, 8, w)  # Z_{8j+b} at [j, b]
        self.tables = np.empty((nbytes, 256, w), dtype=np.uint64)
        t = self.tables if self.h_side else self.tables[:, ::-1]  # G: entry b at 255 − b
        t[:, 0] = np.uint64((1 << min(1 << d, 64)) - 1)
        for b in range(8):
            np.bitwise_and(t[:, : 1 << b], z[:, b, None], out=t[:, 1 << b : 2 << b])

    def __call__(self, erased: np.ndarray) -> np.ndarray:
        """Entropies (int64) of the patterns in an (N, ⌈n/8⌉) batch of
        erased-position masks, packed as `gf2.pack` packs."""
        if self.tables is None:
            return np.array([self._eliminate(row, int(e)) for row, e
                             in zip(gf2.unpack(erased), _row_weights(erased))], dtype=np.int64)
        acc = np.take(self.tables[0], erased[:, 0], axis=0)
        for j in range(1, len(self.tables)):
            acc &= np.take(self.tables[j], erased[:, j], axis=0)
        log_count = np.frexp(_row_weights(acc))[1] - 1
        if self.h_side:
            return self.k - log_count
        return _row_weights(erased) - log_count

    def _eliminate(self, erased: int, nerased: int) -> int:
        if nerased * self.k <= (self.n - nerased) * self.dim:
            return gf2.masked_rank(self.cols_h, erased)  # rank(H_E)
        mu = self.n - nerased
        return self.k - mu + gf2.masked_rank(self.cols_g, ((1 << self.n) - 1) ^ erased)


# Bits of S covered by one dense subset-sum table; the rest are looped over.
# 2^15 uint16 entries (64 KB) stay cache-sized and bound memory at any n; 16
# ran 7–9% faster at n = 20..24 but 1.8x slower at n = 16, 14 and 17 slower.
ZETA_LOW_BITS = 15


def _relabel(code: CodeSpec, counts: np.ndarray) -> np.ndarray:
    """N(µ, r) in counts' dtype from counts[s, l], the number of s-sets S with
    l(S) = dim{c ∈ D : supp c ⊆ S} = l, D the smaller side.  S is the revealed
    set on the H side (D = C⊥): N[s, s − l] = counts[s, l].  It is the erased
    set on the G side (D = C, d = dim): N[n − s, dim − l], a reversal of both axes."""
    n, dim, d = code.n, code.dim, counts.shape[1] - 1
    if code.k > dim:
        return counts[::-1, ::-1]
    # Row s of counts[:, ::-1], laid out with stride dim + 2 and read back with
    # stride dim + 1 from offset d, lands shifted by s − d: column d − l at r = s − l.
    flat = np.zeros((n + 1) * (dim + 2), dtype=counts.dtype)
    flat.reshape(n + 1, dim + 2)[:, : d + 1] = counts[:, ::-1]
    return flat[d : d + (n + 1) * (dim + 1)].reshape(n + 1, dim + 1)


def rank_profile(code: CodeSpec) -> np.ndarray:
    """N(µ, r) as an (n + 1, dim + 1) int64 array: revealed-position subsets by
    size µ and rank r of G_µ, tallied over all 2^n subsets by one subset-sum
    (zeta) transform, O(n·2^n) whatever min(k, dim) is.

    With D the row space of the smaller side, of dimension d, f[S] =
    #{c ∈ D : supp c ⊆ S} is a power of two for every S ⊆ [n].  Each S is
    tallied at |S|·(d + 1) + log2 f[S], and `_relabel` maps those counts to
    N(µ, r).  f is built one 2^L block at a time (L = min(n, ZETA_LOW_BITS)),
    one block per value of the high bits of S, in uint16: every entry, partial
    sums included, is at most 2^d, and d ≤ n/2 ≤ 14 under the guard.
    """
    n = code.n
    if n > RANK_PROFILE_GUARD_N:
        raise GuardError(f"rank profile needs n <= {RANK_PROFILE_GUARD_N}, got {n}")
    span = np.array(_smaller_row_space(code), dtype=np.int64)
    d = min(code.k, code.dim)
    low = min(n, ZETA_LOW_BITS)
    span_lo, span_hi = span & ((1 << low) - 1), span >> low
    base = np.bitwise_count(np.arange(1 << low)) * np.int64(d + 1)  # |S_lo|·(d + 1)
    tally = np.zeros((n + 1) * (d + 1), dtype=np.int64)
    for hi in range(1 << (n - low)):
        f = np.bincount(span_lo[(span_hi & ~hi) == 0], minlength=1 << low).astype(np.uint16)
        for i in range(low):
            v = f.reshape(-1, 2, 1 << i)
            v = v.T if i < 4 else v  # order="C": the inner loop walks the last axis, not a 1–8 run
            np.add(v[:, 1], v[:, 0], out=v[:, 1], order="C")
        log_f = np.frexp(f)[1] - 1
        tally += np.bincount(base + ((d + 1) * hi.bit_count() + log_f), minlength=tally.size)
    return _relabel(code, tally.reshape(n + 1, d + 1))


# Bounds the real cost of `support_profile`, in units of one subcode or one
# big-int term (`support_profile_cost`), at 100–350 ns a unit (2-vCPU VM).
# Every Hamming and simplex code fits: r = 8 (n = 255, d = 8) is 875,951
# units, 0.15 s.  So does d = 9 up to n = 462: random (40,9) took 1.0–1.3 s
# and (300,9), 9.0·10^6 units, 2.5–3.2 s.
SUPPORT_PROFILE_BUDGET = 10**7


def support_profile_cost(n: int, d: int) -> int:
    """Units of `support_profile` work on a length-n code whose smaller side has
    dimension d: Σ_j [d choose j]_2 subcodes plus (n + 1)·Σ_j min(n + 1,
    [d choose j]_2) big-int terms, which bound its sums of T over the nonzero
    A[j, w]: at most min(n + 1, [d choose j]_2) rows of n + 1 terms for each j.
    The sum stops once it passes SUPPORT_PROFILE_BUDGET, so a large d is
    priced in microseconds."""
    total, count = 0, 1  # count = [d choose j]_2
    for j in range(d + 1):
        total += count + (n + 1) * min(n + 1, count)
        if total > SUPPORT_PROFILE_BUDGET:
            break
        count = count * ((1 << (d - j)) - 1) // ((1 << (j + 1)) - 1)
    return total


def _sci(x: int) -> str:
    """A positive int as 3 significant digits times a power of ten, also past
    the float range."""
    exp = int(math.log10(x))
    return f"{x / 10**exp:.2f}e{exp}"


def _support_refusal(code: CodeSpec) -> Optional[str]:
    """Why `support_profile` refuses the code, or None if it fits."""
    n, d = code.n, min(code.k, code.dim)
    cost = support_profile_cost(n, d)
    if cost > SUPPORT_PROFILE_BUDGET:
        return (f"the support profile of this ({n},{code.dim}) code costs at least "
                f"{_sci(cost)} units of subcodes and big-int terms (d = {d}), "
                f"over the budget of {_sci(SUPPORT_PROFILE_BUDGET)}")
    # a[µ] ≤ k·C(n, µ) must stay below the float range when `coefficients` rounds it.
    if (code.k * math.comb(n, n // 2)).bit_length() > 1023:
        return f"the coefficients of a ({n},{code.dim}) code can exceed the float range"
    return None


def subcode_supports(code: CodeSpec) -> np.ndarray:
    """A[j, w], the number of j-dimensional subcodes U of D, the smaller side
    (C⊥ when k ≤ dim, else C), whose support |supp U| is w: (d + 1, n + 1) int64.

    D's 2^d words are listed once as uint64 rows, row x the sum of the basis
    words picked by the bits of x.  The j-dimensional subspaces of those
    coordinates x come from `codes.enumerate_subspaces(d, j)`, inside its guard
    at d ≤ 9 (`support_profile`'s budget), one RREF basis per column; U is the
    span of the words at its rows, and its support is the OR of those words.
    """
    n = code.n
    words = gf2.pack(_smaller_row_space(code), 64 * ((n + 63) // 64)).view("<u8")
    d = min(code.k, code.dim)
    tally = np.zeros((d + 1, n + 1), dtype=np.int64)
    for j in range(d + 1):
        for block in codes.enumerate_subspaces(d, j):
            support = np.bitwise_or.reduce(words[block], axis=0)  # 0 at j = 0
            weight = _row_weights(support)
            tally[j] += np.bincount(weight, minlength=n + 1)
    return tally


def support_profile(code: CodeSpec) -> np.ndarray:
    """N(µ, r) as an (n + 1, dim + 1) array of Python ints, the same counts that
    `rank_profile` tallies, from the support sizes of the subcodes of D, the
    smaller side, of dimension d (`subcode_supports`).

    With l(S) = dim{c ∈ D : supp c ⊆ S} and N_l(s) the number of s-sets with
    l(S) = l, the j-dimensional subcodes U give the triangle
    T_j(s) = Σ_{|S| = s} [l(S) choose j]_2 = Σ_{l≥j} [l choose j]_2 N_l(s)
    = Σ_U C(n − |supp U|, s − |supp U|) (Wei 1991; Kløve 1992).  T is summed
    over the nonzero A[j, w] only, and solved in place by back-substitution:
    N_d = T_d, then N_l = T_l − Σ_{j>l} [j choose l]_2 N_j.  The rows are
    Python ints, since counts reach 2^n, and `_relabel` maps N_l(s) to N(µ, r).
    """
    refusal = _support_refusal(code)
    if refusal:
        raise GuardError(refusal)
    n = code.n
    supports = subcode_supports(code)
    d = len(supports) - 1
    rows = np.zeros((d + 1, n + 1), dtype=object)  # T_j(s), then N_l(s)
    for w in np.flatnonzero(supports.any(axis=0)).tolist():
        binomials = [1]  # C(n − w, i), 12–50x faster than math.comb at n − w = 300..900
        for i in range(n - w):
            binomials.append(binomials[-1] * (n - w - i) // (i + 1))
        binomials = np.array(binomials, dtype=object)
        for j in np.flatnonzero(supports[:, w]).tolist():
            rows[j, w:] += int(supports[j, w]) * binomials
    for l in range(d - 1, -1, -1):
        for j in range(l + 1, d + 1):
            rows[l] -= gaussian_binomial(j, l) * rows[j]
    return _relabel(code, rows.T)


def _exact_profile(code: CodeSpec) -> np.ndarray:
    """N(µ, r) from `rank_profile` up to n = RANK_PROFILE_GUARD_N, else from
    `support_profile`."""
    return rank_profile(code) if code.n <= RANK_PROFILE_GUARD_N else support_profile(code)


def coefficients(profile: np.ndarray) -> np.ndarray:
    """The polynomial's coefficients a[µ] = Σ_r N(µ, r)·(k − µ + r) as floats.
    An int64 profile (`rank_profile`) sums in int64, and up to n = 28
    a[µ] ≤ n·2^n < 2^53, so each float is exact; above that, the Python-int
    sums of a `support_profile` are rounded once."""
    n1, d1 = profile.shape  # n + 1 and dim + 1, so k = n1 − d1
    # Σ_r N(µ, r)·(k + r) − µ·Σ_r N(µ, r), one matrix-vector product.
    return (profile @ np.arange(n1 - d1, n1) - np.arange(n1) * profile.sum(axis=1)).astype(float)


def equivocation_bits(coeffs: Sequence[Sequence[float]], grid: Sequence[float]) -> np.ndarray:
    """H(M|Z) in bits of N codes at each ε of a grid, as an (N, len(grid)) array.

    Evaluates Σ_µ a[µ]·ε^(n−µ)(1−ε)^µ for each row a of an (N, n + 1) stack of
    `coefficients`.  Terms are added in ascending µ (friendly at small ε) as
    (a·ε^(n−µ))·(1−ε)^µ, and each power is Python's float `**` (one object-dtype
    `np.power` per table), not numpy's float power, so a value does not depend
    on which codes or points share a call.
    """
    a = np.asarray(coeffs, dtype=float)
    grid = [float(eps) for eps in grid]  # np.float64 ** would be numpy's power
    for eps in grid:
        if not 0.0 <= eps <= 1.0:
            raise ValueError(f"eps must be in [0, 1], got {eps}")
    n, mus, points = a.shape[1] - 1, np.arange(a.shape[1])[:, None], np.array(grid, dtype=object)
    # Row µ: ε^(n−µ) and (1−ε)^µ at each grid point.
    erased = np.power(points, n - mus).astype(float)
    revealed = np.power(1.0 - points, mus).astype(float)
    total = np.zeros((len(a), len(grid)))
    for mu in range(n + 1):
        total += a[:, mu, None] * erased[mu] * revealed[mu]
    return total


def exact_equivocation(profile: np.ndarray, eps: float) -> float:
    """H(M|Z) in bits at one ε: Σ N(µ, r)·ε^(n−µ)(1−ε)^µ·(k − µ + r)."""
    return float(equivocation_bits([coefficients(profile)], [eps])[0, 0])


@dataclass(frozen=True)
class McEstimate:
    mean: float
    trials: int
    stddev: float
    stderr: float
    ci95_lo: float
    ci95_hi: float
    seed: int


def check_mc_args(trials: int, *eps: float) -> None:
    """Reject what no sampler can estimate: fewer than 2 trials, an ε outside [0, 1]."""
    if trials < 2:
        raise ValueError(f"need at least 2 trials, got {trials}")
    for e in eps:
        if not 0.0 <= e <= 1.0:
            raise ValueError(f"eps must be in [0, 1], got {e}")


def check_grid(grid: Sequence[float]) -> None:
    """Reject a grid that is not strictly increasing inside [0, 1]."""
    if any(not 0.0 <= e <= 1.0 for e in grid):
        raise ValueError("grid values must lie in [0, 1]")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly increasing")


class ThreadPool:
    """min(threads, os.cpu_count()) worker threads for `mc_equivocation`'s
    batches; the calling thread waits on them.  The threads start with the
    first `map` of at least two items, so a run that samples at most one
    batch a point starts none, and stop on leaving the `with`."""

    def __init__(self, threads: int):
        self.workers, self._executor = min(threads, os.cpu_count() or 1), None

    def __enter__(self) -> "ThreadPool":
        return self

    def __exit__(self, *exc) -> None:
        if self._executor is not None:
            self._executor.shutdown()

    def map(self, fn, items: Sequence):
        """fn over items, in order; the builtin `map` below two workers or items."""
        if self.workers < 2 or len(items) < 2:
            return map(fn, items)
        if self._executor is None:
            from concurrent.futures import ThreadPoolExecutor  # 10 ms, kept out of `import bewc`
            self._executor = ThreadPoolExecutor(self.workers)
        return self._executor.map(fn, items)


def _batch_sums(ent: PatternEntropy, eps: float, seed: int, trials: int,
                b: int) -> tuple[int, int]:
    """(Σh, Σh²) over batch b of a point of `trials` trials: its MC_BATCH rows,
    or the rest in a ragged last batch, drawn from `make_rng(seed, b)` in steps
    of `ent.rows`."""
    bits = make_rng(seed, b).bit_generator
    stop = min(trials - b * MC_BATCH, MC_BATCH)
    s = ss = 0
    for a in range(0, stop, ent.rows):
        h = ent(pack_erasures(bits.random_raw((min(ent.rows, stop - a), ent.n)), eps))
        s += int(h.sum())
        ss += int(h @ h)
    return s, ss


def mc_equivocation(code: CodeSpec, eps: float, trials: int, seed: int,
                    pool: Optional[ThreadPool] = None,
                    ent: Optional[PatternEntropy] = None) -> McEstimate:
    """Unbiased Monte Carlo estimate of H(M|Z) at erasure probability ε.

    Each trial samples an erasure pattern (each position erased w.p. ε) and
    scores its integer entropy with `ent`, the code's `PatternEntropy` (built
    here if not given).  Batch b, of MC_BATCH trials, draws from its own
    counter-derived stream (`_batch_sums`); another batch size would change
    every estimate.  With a `pool`, the ⌈trials / MC_BATCH⌉ batches run on its
    threads.  Each returns exact integer sums, so the estimate is
    bit-identical on any pool, and each thread holds one step, at most
    STEP_WORDS (2 MB), of drawn words.
    """
    check_mc_args(trials, eps)
    ent = PatternEntropy(code) if ent is None else ent
    batches, run = range(-(-trials // MC_BATCH)), partial(_batch_sums, ent, eps, seed, trials)
    s, ss = map(sum, zip(*(map if pool is None else pool.map)(run, batches)))
    mean = s / trials
    var = (trials * ss - s * s) / (trials * (trials - 1))
    stddev = math.sqrt(max(var, 0.0))
    stderr = stddev / math.sqrt(trials)
    return McEstimate(mean=mean, trials=trials, stddev=stddev, stderr=stderr,
                      ci95_lo=mean - CI95 * stderr, ci95_hi=mean + CI95 * stderr, seed=seed)


@dataclass(frozen=True)
class CurvePoint:
    eps: float
    bits: float
    rate: float
    stderr: Optional[float] = None
    ci95_lo: Optional[float] = None
    ci95_hi: Optional[float] = None


@dataclass(frozen=True)
class EquivocationCurve:
    code_name: str
    method: str  # "exact" | "mc"
    points: tuple[CurvePoint, ...]

    def rates(self) -> np.ndarray:
        return np.array([p.rate for p in self.points])


@dataclass(frozen=True)
class GapReport:
    code_name: str
    rate: float  # R = k/n
    equivocation_rate_at_r: float
    gap: float  # A_g = R − equivocation rate at ε = R
    method: str
    estimate: Optional[McEstimate] = None


DEFAULT_GRID = tuple(round(0.01 * i, 2) for i in range(1, 100))
DEFAULT_MC_TRIALS = 10**6


def resolve_method(method: str, code: CodeSpec) -> str:
    """"exact" or "mc"; "auto" is exact wherever `_exact_profile` admits the code."""
    if method == "auto":
        exact = code.n <= RANK_PROFILE_GUARD_N or _support_refusal(code) is None
        return "exact" if exact else "mc"
    if method not in ("exact", "mc"):
        raise ValueError(f"unknown method {method!r}")
    return method


def curve(
    code: CodeSpec,
    grid: Sequence[float],
    method: str = "auto",
    trials: int = DEFAULT_MC_TRIALS,
    seed: int = 0,
    profile: Optional[np.ndarray] = None,
    pool: Optional[ThreadPool] = None,
) -> EquivocationCurve:
    """Equivocation at each ε of a strictly increasing grid in [0, 1]."""
    grid = list(grid)
    check_grid(grid)
    method = resolve_method(method, code)
    n = code.n
    if method == "exact":
        if profile is None:
            profile = _exact_profile(code)
        bits = equivocation_bits([coefficients(profile)], grid)[0].tolist()
        points = [CurvePoint(eps=eps, bits=b, rate=b / n) for eps, b in zip(grid, bits)]
    else:
        check_mc_args(trials)  # before the kernel's tables
        points, ent = [], PatternEntropy(code)
        for i, eps in enumerate(grid):
            est = mc_equivocation(code, eps, trials, derive_seed(seed, "curve", i), pool, ent)
            points.append(CurvePoint(eps=eps, bits=est.mean, rate=est.mean / n, stderr=est.stderr,
                                     ci95_lo=est.ci95_lo, ci95_hi=est.ci95_hi))
    return EquivocationCurve(code_name=code.name, method=method, points=tuple(points))


def achievability_gap(
    code: CodeSpec,
    method: str = "auto",
    trials: int = DEFAULT_MC_TRIALS,
    seed: int = 0,
    profile: Optional[np.ndarray] = None,
    pool: Optional[ThreadPool] = None,
) -> GapReport:
    """A_g = R − equivocation rate at ε = R: distance from the asymptotic
    optimum, since secrecy capacity equals ε for this channel."""
    method = resolve_method(method, code)
    r = code.rate
    estimate = None
    if method == "exact":
        if profile is None:
            profile = _exact_profile(code)
        bits = exact_equivocation(profile, r)
    else:
        estimate = mc_equivocation(code, r, trials, seed, pool)
        bits = estimate.mean
    eq_rate = bits / code.n
    return GapReport(
        code_name=code.name,
        rate=r,
        equivocation_rate_at_r=eq_rate,
        gap=r - eq_rate,
        method=method,
        estimate=estimate,
    )
