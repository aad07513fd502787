"""Eavesdropper equivocation over the binary erasure channel.

An erasure pattern is the int mask of the positions the eavesdropper sees
unerased (bit i = position i), and an observation is that mask plus the
word it reveals.  Per-observation entropy for a coset code depends only on
the mask: with µ positions revealed, it is k − µ + rank(G_µ), where G_µ is
the generator restricted to the revealed columns.
Sampled patterns are scored by one batched kernel, `PatternEntropy`, on
erased masks packed as `gf2.pack` packs; it counts the words of C⊥ or C an
erasure hides.

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
from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Sequence

import numpy as np

from . import gf2
from .codes import CodeSpec, GuardError, derive_seed, gaussian_binomial, make_rng

# Bounds the real cost of `rank_profile`: O(n·2^n) time in 2^15-entry blocks
# whatever min(k, dim) is, 0.3 s at n = 24 and 6 s at n = 28 (2-vCPU VM).
RANK_PROFILE_GUARD_N = 28
MC_BATCH = 1 << 14
# Float64 entries in `equivocation_bits`' scratch block (2 MB), so its memory
# beyond the (codes, grid) result stays fixed however many codes it sums.
EVAL_BLOCK_ENTRIES = 1 << 18
CI95 = 1.96


# Row spaces of at most this dimension are listed and matched against whole
# batches; above it, per-pattern elimination is cheaper.  Per trial at d = 13:
# 12–22 µs listed against 13–74 µs eliminated (n = 30..127); at d = 14, n = 32,
# 24 µs against 12.
SPAN_MAX_DIM = 13
_POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)])


def _smaller_row_space(code: CodeSpec) -> list[int]:
    """All 2^min(k, dim) words of C⊥ (spanned by H) when k ≤ dim, else of C."""
    span = [0]
    for row in (code.H if code.k <= code.dim else code.G).rows:
        span += [c ^ row for c in span]
    return span


class PatternEntropy:
    """Per-pattern entropy h(E), in bits, for batches of erased-position masks.

    Lists the row space D of the smaller of H (D = C⊥) and G (D = C) once;
    then h = k − log2 #{c ∈ D : c ∧ E = 0} on the H side and
    h = |E| − log2 #{c ∈ D : c ∧ ¬E = 0} on the G side, one AND-and-compare
    per word of D over the whole batch.  Each count is the size of a subspace,
    so its log2 is exact.  When min(k, dim) > SPAN_MAX_DIM, each pattern gets
    one GF(2) elimination instead, on the cheaper of H_E and G_Ē.
    """

    def __init__(self, code: CodeSpec):
        self.n, self.k, self.dim = code.n, code.k, code.dim
        self.h_side = code.k <= code.dim
        if min(code.k, code.dim) > SPAN_MAX_DIM:
            self.span = None
            self.cols_h, self.cols_g = gf2.column_ints(code.H), gf2.column_ints(code.G)
            return
        # (2^d − 1, ⌈n/64⌉) uint64 words; the zero word is counted up front.
        self.span = gf2.pack(_smaller_row_space(code)[1:], 64 * ((code.n + 63) // 64)).view("<u8")

    def __call__(self, erased: np.ndarray) -> np.ndarray:
        """Entropies (int64) of the patterns in an (N, ⌈n/8⌉) batch of
        erased-position masks, packed as `gf2.pack` packs."""
        nerased = _POPCOUNT8[erased].sum(axis=1)
        if self.span is None:
            return np.array([self._eliminate(row, int(e))
                             for row, e in zip(gf2.unpack(erased), nerased)], dtype=np.int64)
        padded = np.zeros((len(erased), 8 * self.span.shape[1]), dtype=np.uint8)
        padded[:, : erased.shape[1]] = erased
        m = np.ascontiguousarray(padded.view("<u8").T)  # (words, N)
        if not self.h_side:
            m = ~m
        count = np.ones(len(erased), dtype=np.int32)
        hit, tmp = np.empty(len(erased), dtype=bool), np.empty(len(erased), dtype=np.uint64)
        for c in self.span:
            np.equal(np.bitwise_and(m[0], c[0], out=tmp), 0, out=hit)
            for w in range(1, len(c)):
                hit &= np.bitwise_and(m[w], c[w], out=tmp) == 0
            count += hit
        log_count = np.frexp(count)[1] - 1
        return (self.k if self.h_side else nerased) - log_count.astype(np.int64)

    def _eliminate(self, erased: int, nerased: int) -> int:
        if nerased * self.k <= (self.n - nerased) * self.dim:
            return gf2.masked_rank(self.cols_h, erased)  # rank(H_E)
        mu = self.n - nerased
        return self.k - mu + gf2.masked_rank(self.cols_g, ((1 << self.n) - 1) ^ erased)


# Bits of S covered by one dense subset-sum table; the rest are looped over.
# 2^15 int32 entries (128 KB) stay cache-sized and bound memory at any n;
# 15 measured as fast as 16 or faster at n = 16..22, with half the memory.
ZETA_LOW_BITS = 15


def rank_profile(code: CodeSpec) -> np.ndarray:
    """N(µ, r) as an (n + 1, dim + 1) int64 array: revealed-position subsets by
    size µ and rank r of G_µ, tallied over all 2^n subsets by one subset-sum
    (zeta) transform, O(n·2^n) whatever min(k, dim) is.

    With D the row space of the smaller side, f[S] = #{c ∈ D : supp c ⊆ S}
    is a power of two for every S ⊆ [n].  On the H side (D = C⊥), S is the
    revealed set R and rank(G_R) = |R| − log2 f[R]; on the G side (D = C),
    S is the erased set E and rank(G_R) = dim − log2 f[E].  f is built one
    2^L block at a time (L = min(n, ZETA_LOW_BITS)), one block per value of
    the high bits of S.
    """
    n, dim = code.n, code.dim
    if n > RANK_PROFILE_GUARD_N:
        raise GuardError(f"rank profile needs n <= {RANK_PROFILE_GUARD_N}, got {n}")
    span = np.array(_smaller_row_space(code), dtype=np.int64)
    low = min(n, ZETA_LOW_BITS)
    span_lo, span_hi = span & ((1 << low) - 1), span >> low
    # |S_lo| for S_lo < 2^low, as (high byte, low byte) popcount sums.
    pop = (_POPCOUNT8[: 1 << max(low - 8, 0), None] + _POPCOUNT8[: 1 << min(low, 8)]).ravel()
    # Tally index µ·(dim+1) + r = base[S_lo] + step·|S_hi| − log2 f[S].
    if code.k <= dim:  # H side: µ = |S|, r = |S| − log2 f
        base, step = pop * (dim + 2), dim + 2
    else:  # G side: µ = n − |S|, r = dim − log2 f
        base, step = (n - pop) * (dim + 1) + dim, -(dim + 1)
    tally = np.zeros((n + 1) * (dim + 1), dtype=np.int64)
    for hi in range(1 << (n - low)):
        f = np.bincount(span_lo[(span_hi & ~hi) == 0], minlength=1 << low).astype(np.int32)
        for i in range(low):
            v = f.reshape(-1, 2, 1 << i)
            v[:, 1] += v[:, 0]
        log_f = np.frexp(f)[1] - 1
        tally += np.bincount(base + (step * hi.bit_count() - log_f), minlength=tally.size)
    return tally.reshape(n + 1, dim + 1)


# Bounds the real cost of `support_profile`, in units of one subcode or one
# big-int term (`support_profile_cost`), at 100–350 ns a unit (2-vCPU VM).
# Every Hamming and simplex code fits: r = 8 (n = 255, d = 8) is 875,951
# units, 0.15 s.  So does d = 9 up to n = 462: random (40,9) took 1.0–1.3 s
# and (300,9), 9.0·10^6 units, 2.5–3.2 s.
SUPPORT_PROFILE_BUDGET = 10**7
# Subcodes whose supports are formed at once; the popcount's int64 scratch
# is 256 KB per 64 positions.
SUBCODE_BLOCK = 1 << 12


def support_profile_cost(n: int, d: int) -> int:
    """Units of `support_profile` work on a length-n code whose smaller side has
    dimension d: Σ_j [d choose j]_2 subcodes plus (n + 1)·Σ_j min(n + 1,
    [d choose j]_2) big-int terms.  The sum stops once it passes
    SUPPORT_PROFILE_BUDGET, so a large d is priced in microseconds."""
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
    words picked by the bits of x.  Each U is the span of the words at the
    rows of one j×d coordinate RREF (a pivot set, then every fill of its free
    entries), and its support is the OR of those words.
    """
    n = code.n
    words = gf2.pack(_smaller_row_space(code), 64 * ((n + 63) // 64)).view("<u8")
    d = min(code.k, code.dim)
    tally = np.zeros((d + 1, n + 1), dtype=np.int64)
    for j in range(d + 1):
        for pivots in combinations(range(d), j):
            slots = [(i, c) for i, p in enumerate(pivots) for c in range(p + 1, d)
                     if c not in pivots]
            for lo in range(0, 1 << len(slots), SUBCODE_BLOCK):
                fill = np.arange(lo, min(lo + SUBCODE_BLOCK, 1 << len(slots)))
                coords = (1 << np.array(pivots, dtype=np.int64))[:, None] + np.zeros_like(fill)
                for t, (i, c) in enumerate(slots):
                    coords[i] |= ((fill >> t) & 1) << c
                support = np.zeros((len(fill), words.shape[1]), dtype=np.uint64)
                for row in coords:
                    support |= words[row]
                weight = _POPCOUNT8[support.view(np.uint8)].sum(axis=1)
                tally[j] += np.bincount(weight, minlength=n + 1)
    return tally


def support_profile(code: CodeSpec) -> np.ndarray:
    """N(µ, r) as an (n + 1, dim + 1) array of Python ints, the same counts that
    `rank_profile` tallies, from the support sizes of the subcodes of D, the
    smaller side, of dimension d (`subcode_supports`).

    With l(S) = dim{c ∈ D : supp c ⊆ S}, the j-dimensional subcodes U give
    T_j(s) = Σ_{|S| = s} [l(S) choose j]_2 = Σ_U C(n − |supp U|, s − |supp U|),
    and inverting the Gaussian-binomial triangle gives the number of s-sets
    with l(S) = l: N_l(s) = Σ_{j≥l} (−1)^(j−l) 2^C(j−l, 2) [j choose l]_2 T_j(s)
    (Wei 1991; Kløve 1992).  S is the revealed set on the H side (µ = s,
    r = s − l) and the erased set on the G side (µ = n − s, r = dim − l), as
    in `rank_profile`.  Counts reach 2^n, so they stay Python ints.
    """
    refusal = _support_refusal(code)
    if refusal:
        raise GuardError(refusal)
    n, dim = code.n, code.dim
    supports = subcode_supports(code)
    d = len(supports) - 1
    t = np.zeros((d + 1, n + 1), dtype=object)  # t[j, s] = T_j(s)
    binomials = {}  # support w -> C(n − w, s − w) for s = w..n
    for j, a in enumerate(supports):
        for w in np.flatnonzero(a).tolist():
            if w not in binomials:
                binomials[w] = np.array([math.comb(n - w, i) for i in range(n - w + 1)],
                                        dtype=object)
            t[j, w:] += int(a[w]) * binomials[w]
    counts = np.zeros_like(t)  # counts[l, s] = N_l(s)
    for l in range(d + 1):
        for j in range(l, d + 1):
            sign = -1 if (j - l) & 1 else 1
            counts[l] += sign * (gaussian_binomial(j, l) << math.comb(j - l, 2)) * t[j]
    l, s = np.nonzero(counts)
    profile = np.zeros((n + 1, dim + 1), dtype=object)
    if code.k <= dim:
        profile[s, s - l] = counts[l, s]
    else:
        profile[n - s, dim - l] = counts[l, s]
    return profile


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
    (a·ε^(n−µ))·(1−ε)^µ, and each power is Python's float `**`, not numpy's,
    so a value does not depend on which codes or points share a call.
    Rows are summed EVAL_BLOCK_ENTRIES // len(grid) at a time through one
    block-sized scratch buffer.
    """
    a = np.asarray(coeffs, dtype=float)
    grid = [float(eps) for eps in grid]  # np.float64 ** would be numpy's power
    for eps in grid:
        if not 0.0 <= eps <= 1.0:
            raise ValueError(f"eps must be in [0, 1], got {eps}")
    n = a.shape[1] - 1
    # Row µ: ε^(n−µ) and (1−ε)^µ at each grid point.
    erased = np.array([[eps ** (n - mu) for eps in grid] for mu in range(n + 1)])
    revealed = np.array([[(1.0 - eps) ** mu for eps in grid] for mu in range(n + 1)])
    total = np.zeros((len(a), len(grid)))
    rows = max(1, EVAL_BLOCK_ENTRIES // max(1, len(grid)))
    term = np.empty((min(rows, len(a)), len(grid)))
    for lo in range(0, len(a), rows):
        block = total[lo : lo + rows]
        t = term[: len(block)]
        for mu in range(n + 1):
            np.multiply(a[lo : lo + rows, mu, None], erased[mu], out=t)
            t *= revealed[mu]
            block += t
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


def check_mc_args(eps: float, trials: int) -> None:
    """Reject what no sampler can estimate: fewer than 2 trials, ε outside [0, 1]."""
    if trials < 2:
        raise ValueError(f"need at least 2 trials, got {trials}")
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"eps must be in [0, 1], got {eps}")


def check_grid(grid: Sequence[float]) -> None:
    """Reject a grid that is not strictly increasing inside [0, 1]."""
    if any(not 0.0 <= e <= 1.0 for e in grid):
        raise ValueError("grid values must lie in [0, 1]")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly increasing")


def mc_equivocation(code: CodeSpec, eps: float, trials: int, seed: int) -> McEstimate:
    """Unbiased Monte Carlo estimate of H(M|Z) at erasure probability ε.

    Each trial samples an erasure pattern (each position erased w.p. ε) and
    scores the integer per-pattern entropy; sums are accumulated in exact
    integer arithmetic, so the result is independent of batching order.
    Batch b, of MC_BATCH trials, draws from its own counter-derived stream, so
    any worker layout reproduces the same estimate bit for bit; another batch
    size would regroup the streams and change every estimate.
    """
    check_mc_args(eps, trials)
    ent = PatternEntropy(code)
    s = ss = 0
    for bindex, start in enumerate(range(0, trials, MC_BATCH)):
        size = min(MC_BATCH, trials - start)
        rng = make_rng(seed, bindex)
        erased = rng.random((size, code.n)) < eps
        h = ent(np.packbits(erased, axis=1, bitorder="little"))
        s += int(h.sum())
        ss += int(h @ h)
    mean = s / trials
    var = (trials * ss - s * s) / (trials * (trials - 1))
    stddev = math.sqrt(max(var, 0.0))
    stderr = stddev / math.sqrt(trials)
    return McEstimate(
        mean=mean,
        trials=trials,
        stddev=stddev,
        stderr=stderr,
        ci95_lo=mean - CI95 * stderr,
        ci95_hi=mean + CI95 * stderr,
        seed=seed,
    )


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
        points = []
        for i, eps in enumerate(grid):
            est = mc_equivocation(code, eps, trials, derive_seed(seed, "curve", i))
            points.append(
                CurvePoint(
                    eps=eps,
                    bits=est.mean,
                    rate=est.mean / n,
                    stderr=est.stderr,
                    ci95_lo=est.ci95_lo,
                    ci95_hi=est.ci95_hi,
                )
            )
    return EquivocationCurve(code_name=code.name, method=method, points=tuple(points))


def achievability_gap(
    code: CodeSpec,
    method: str = "auto",
    trials: int = DEFAULT_MC_TRIALS,
    seed: int = 0,
    profile: Optional[np.ndarray] = None,
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
        estimate = mc_equivocation(code, r, trials, seed)
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
