"""Eavesdropper equivocation over the binary erasure channel.

Per-observation entropy for a coset code depends only on which positions
were erased: with µ positions revealed, it is k − µ + rank(G_µ), where G_µ
is the generator restricted to the revealed columns (`pattern_equivocation`,
the reference).  Sampled patterns are scored by one batched kernel,
`PatternEntropy`, which counts the words of C⊥ or C an erasure hides.

Exact equivocation tallies all 2^n erasure patterns into a rank profile
N(µ, r) with one subset-sum transform over the words of C⊥ or C, never
scoring a pattern on its own; `equivocation_bits`, the one evaluator of the
resulting polynomial in ε, serves points, curves, gaps and searches alike.
Beyond the 2^n budget, an unbiased Monte Carlo estimator samples patterns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from . import gf2
from .codes import CodeSpec, GuardError, derive_seed, make_rng
from .coset import Codebook, codebook

# Bounds the real cost of `rank_profile`: O(n·2^n) time in 2^15-entry blocks
# whatever min(k, dim) is, 0.3 s at n = 24 and 6 s at n = 28 (2-vCPU VM).
RANK_PROFILE_GUARD_N = 28
MC_BATCH = 1 << 14
# Float64 entries in `equivocation_bits`' scratch block (2 MB), so its memory
# beyond the (codes, grid) result stays fixed however many codes it sums.
EVAL_BLOCK_ENTRIES = 1 << 18
CI95 = 1.96


@dataclass(frozen=True)
class ErasurePattern:
    """Which positions the eavesdropper received unerased."""

    n: int
    revealed: tuple[int, ...]

    def __post_init__(self) -> None:
        prev = -1
        for i in self.revealed:
            if not 0 <= i < self.n:
                raise ValueError(f"position {i} out of range")
            if i <= prev:
                raise ValueError("revealed positions must be strictly increasing")
            prev = i

    @property
    def mu(self) -> int:
        return len(self.revealed)

    @classmethod
    def from_mask(cls, n: int, mask: int) -> "ErasurePattern":
        return cls(n, tuple(i for i in range(n) if (mask >> i) & 1))


@dataclass(frozen=True)
class Observation:
    """A received word over {0, 1, ?}; leftmost symbol is position 0."""

    symbols: str

    def __post_init__(self) -> None:
        if not set(self.symbols) <= {"0", "1", "?"}:
            raise ValueError(f"bad observation alphabet in {self.symbols!r}")

    @property
    def n(self) -> int:
        return len(self.symbols)

    def pattern(self) -> ErasurePattern:
        return ErasurePattern(
            self.n, tuple(i for i, c in enumerate(self.symbols) if c != "?")
        )

    def revealed_mask_and_word(self) -> tuple[int, int]:
        mask = word = 0
        for i, c in enumerate(self.symbols):
            if c != "?":
                mask |= 1 << i
                if c == "1":
                    word |= 1 << i
        return mask, word


def pattern_equivocation(code: CodeSpec, pat: ErasurePattern) -> int:
    """Bits of uncertainty left about the message: k − µ + rank(G_µ)."""
    if pat.n != code.n:
        raise gf2.DimensionError(f"pattern n={pat.n} but code n={code.n}")
    g_mu = gf2.select_columns(code.G, pat.revealed)
    return code.k - pat.mu + gf2.rank(g_mu)


def observation_equivocation_oracle(
    code: CodeSpec, z: Observation, book: Optional[Codebook] = None
) -> float:
    """Entropy of the message posterior by direct coset counting.

    Counts the codewords of every coset consistent with z and takes the
    Shannon entropy of the induced distribution; no rank formula and no
    assumption of within-coset uniformity.
    """
    if z.n != code.n:
        raise gf2.DimensionError(f"observation n={z.n} but code n={code.n}")
    if book is None:
        book = codebook(code)
    mask, word = z.revealed_mask_and_word()
    counts = np.count_nonzero((book.cosets & mask) == word, axis=1).tolist()
    total = sum(counts)
    return -sum((c / total) * math.log2(c / total) for c in counts if c)


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
        width = 8 * ((code.n + 63) // 64)
        # (2^d − 1, words) little-endian; the zero word is counted up front.
        self.span = np.array([np.frombuffer(c.to_bytes(width, "little"), "<u8")
                              for c in _smaller_row_space(code)[1:]])

    def __call__(self, erased: np.ndarray) -> np.ndarray:
        """Entropies (int64) of the patterns in an (N, ⌈n/8⌉) little-endian
        packed erased-mask array."""
        nerased = _POPCOUNT8[erased].sum(axis=1)
        if self.span is None:
            return np.array([self._eliminate(int.from_bytes(row.tobytes(), "little"), int(e))
                             for row, e in zip(erased, nerased)], dtype=np.int64)
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


@dataclass(frozen=True)
class RankProfile:
    """N(µ, r): revealed-subset counts by size µ and generator-submatrix rank r."""

    n: int
    dim: int
    counts: dict[tuple[int, int], int]

    @property
    def k(self) -> int:
        return self.n - self.dim

    @cached_property
    def coefficients(self) -> tuple[float, ...]:
        """a[µ] = Σ_r N(µ, r)·(k − µ + r), computed once per profile; the
        equivocation polynomial's pattern-entropy mass at each revealed count."""
        k, a = self.k, [0] * (self.n + 1)
        for (mu, r), c in self.counts.items():
            a[mu] += c * (k - mu + r)
        return tuple(float(x) for x in a)


# Bits of S covered by one dense subset-sum table; the rest are looped over.
# 2^15 int32 entries (128 KB) stay cache-sized and bound memory at any n;
# 15 measured as fast as 16 or faster at n = 16..22, with half the memory.
ZETA_LOW_BITS = 15


def rank_profile(code: CodeSpec) -> RankProfile:
    """Tally rank(G_µ) over all 2^n revealed-position subsets by one
    subset-sum (zeta) transform, O(n·2^n) whatever min(k, dim) is.

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
    counts = {divmod(i, dim + 1): c for i, c in enumerate(tally.tolist()) if c}
    return RankProfile(n=n, dim=dim, counts=counts)


def equivocation_bits(
    coefficients: Sequence[Sequence[float]], grid: Sequence[float]
) -> np.ndarray:
    """H(M|Z) in bits of N codes at each ε of a grid, as an (N, len(grid)) array.

    Evaluates Σ_µ a[µ]·ε^(n−µ)(1−ε)^µ for each row a of an (N, n + 1) stack of
    `RankProfile.coefficients`.  Terms are added in ascending µ (friendly at
    small ε) as (a·ε^(n−µ))·(1−ε)^µ, and each power is Python's float `**`, not
    numpy's, so a value does not depend on which codes or points share a call.
    Rows are summed EVAL_BLOCK_ENTRIES // len(grid) at a time through one
    block-sized scratch buffer.
    """
    a = np.asarray(coefficients, dtype=float)
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


def exact_equivocation(profile: RankProfile, eps: float) -> float:
    """H(M|Z) in bits at one ε: Σ N(µ, r)·ε^(n−µ)(1−ε)^µ·(k − µ + r)."""
    return float(equivocation_bits([profile.coefficients], [eps])[0, 0])


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


def resolve_method(method: str, n: int) -> str:
    if method == "auto":
        return "exact" if n <= RANK_PROFILE_GUARD_N else "mc"
    if method not in ("exact", "mc"):
        raise ValueError(f"unknown method {method!r}")
    return method


def curve(
    code: CodeSpec,
    grid: Sequence[float],
    method: str = "auto",
    trials: int = DEFAULT_MC_TRIALS,
    seed: int = 0,
    profile: Optional[RankProfile] = None,
) -> EquivocationCurve:
    """Equivocation at each ε of a strictly increasing grid in [0, 1]."""
    grid = list(grid)
    check_grid(grid)
    method = resolve_method(method, code.n)
    n = code.n
    if method == "exact":
        if profile is None:
            profile = rank_profile(code)
        bits = equivocation_bits([profile.coefficients], grid)[0].tolist()
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
    profile: Optional[RankProfile] = None,
) -> GapReport:
    """A_g = R − equivocation rate at ε = R: distance from the asymptotic
    optimum, since secrecy capacity equals ε for this channel."""
    method = resolve_method(method, code.n)
    r = code.rate
    estimate = None
    if method == "exact":
        if profile is None:
            profile = rank_profile(code)
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
