"""End-to-end channel runs and code-comparison studies.

Covers the erasure-channel transmit path (Alice → Bob noiselessly, Alice →
Eve through BEC(ε)), exhaustive optimality searches over all subspaces of a
given size, random-ensemble comparisons against a reference code, and
achievability-gap sweeps across a code family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import codes, coset, equivocation as eq, gf2
from .codes import CodeSpec, GuardError, RandomCodeParams, derive_seed, make_rng
from .equivocation import CI95, EquivocationCurve, GapReport
from .gf2 import BitMatrix


@dataclass(frozen=True)
class SessionReport:
    code_name: str
    eps: float
    trials: int
    bob_success_rate: float
    mean_equivocation: float
    stderr: float
    seed: int


# Most trials per `simulate_session` chunk.  Larger chunks were no faster on
# perfbench `session` and peaked higher (2-vCPU VM, 3 pairs each): `ent.rows`
# trials read wall_s 0.038–0.040 against 0.037 s and 43.4 against 38.9 MB,
# 8,192 trials 0.034–0.036 against 0.035–0.036 s and 41.0 against 38.8 MB.
SESSION_CHUNK = 2048


def _session_stream(rng: np.random.Generator, trials: int, mb: int, vb: int, n: int, chunk: int):
    """Yield, `chunk` trials at a time, exactly what per-trial `rng.bytes(mb)`,
    `rng.bytes(vb)` and `rng.random(n)` calls would read: an (N, mb) and an
    (N, vb) uint8 view whose rows are those byte strings, and an (N, n)
    uint64 array of the raw words that `random` turns into its doubles,
    (word >> 11)·2^−53, ready for `equivocation.pack_erasures`.

    Each chunk is one `random_raw` read of 64-bit Philox words.  `bytes(L)`
    draws ⌈L/4⌉ uint32s; a uint32 draw takes the low half of a fresh word and
    buffers the high half for the next uint32 draw, across calls and trials.
    A double takes a fresh word and leaves the buffer alone.  With
    c = ⌈mb/4⌉ + ⌈vb/4⌉ uint32s per trial, each pair of trials reads ⌈c/2⌉
    uint32 words, n double words, ⌊c/2⌋ uint32 words, n double words, so an
    even chunk never starts on a buffered half-word.
    """
    cm, cv = -(-mb // 4), -(-vb // 4)
    c = cm + cv
    h0, h1 = (c + 1) // 2, c // 2
    for start in range(0, trials, chunk):
        size = min(chunk, trials - start)
        pairs = (size + 1) // 2  # an odd last chunk reads one spare trial
        raw = rng.bit_generator.random_raw(pairs * (c + 2 * n)).reshape(pairs, c + 2 * n)
        halves = np.concatenate([raw[:, :h0], raw[:, h0 + n : h0 + n + h1]], axis=1)
        # Low half first, as `bytes` reads its uint32s little-endian.
        u32 = halves.astype("<u8", copy=False).view("<u4").reshape(2 * pairs, c)[:size]
        u8 = u32.view(np.uint8)
        words = np.stack([raw[:, h0 : h0 + n], raw[:, h0 + n + h1 :]], axis=1)
        yield u8[:, :mb], u8[:, 4 * cm : 4 * cm + vb], words.reshape(2 * pairs, n)[:size]


def simulate_session(code: CodeSpec, eps: float, trials: int, seed: int) -> SessionReport:
    """Full pipeline replica: encode random (m, v), Bob syndrome-decodes the
    noiseless copy, Eve's observation is scored by per-pattern entropy.

    The stream contract is per trial: m from `rng.bytes(⌈k/8⌉)`, v from
    `rng.bytes(⌈dim/8⌉)`, each cut to its low k or dim bits, then the
    erasures from `rng.random(n)` < ε.  `_session_stream` reads the same
    words from one raw read per chunk (SESSION_CHUNK trials, or `ent.rows` made
    even if fewer), `pack_erasures` decides each erasure on its word as `random`
    would, and each chunk takes one `encode`, one `decode` and one kernel call.
    """
    eq.check_mc_args(eps, trials)
    enc = coset.build_encoder(code)
    ent = eq.PatternEntropy(code)
    chunk = max(2, min(SESSION_CHUNK, ent.rows) // 2 * 2)
    n, k, dim = code.n, code.k, code.dim
    mb, vb = (k + 7) // 8, (dim + 7) // 8
    # Byte masks that keep the low k (dim) bits of a packed row.
    mask_m, mask_v = gf2.pack([(1 << k) - 1], k)[0], gf2.pack([(1 << dim) - 1], dim)[0]
    rng = make_rng(seed, "session")
    bob_ok = 0
    s = ss = 0
    for mbytes, vbytes, words in _session_stream(rng, trials, mb, vb, n, chunk):
        m = mbytes & mask_m
        x = coset.encode(enc, m, vbytes & mask_v)
        bob_ok += int(np.all(coset.decode(enc, x) == m, axis=1).sum())
        h = ent(eq.pack_erasures(words, eps))
        s += int(h.sum())
        ss += int(h @ h)
    mean = s / trials
    var = (trials * ss - s * s) / (trials * (trials - 1))
    return SessionReport(
        code_name=code.name,
        eps=eps,
        trials=trials,
        bob_success_rate=bob_ok / trials,
        mean_equivocation=mean,
        stderr=math.sqrt(max(var, 0.0) / trials),
        seed=seed,
    )


@dataclass(frozen=True)
class SearchResult:
    n: int
    dim: int
    grid: tuple[float, ...]
    generators: np.ndarray  # (num_codes, dim) int64 RREF rows, enumeration order; see generator
    rates: np.ndarray  # shape (num_codes, len(grid)), equivocation rates
    gaps: np.ndarray  # A_g per code
    argmax_per_eps: tuple[tuple[int, ...], ...]  # Python-int code indices, per grid point
    ranking: tuple[int, ...]  # Python-int code indices by ascending A_g, then generator

    @property
    def count(self) -> int:
        return len(self.generators)

    def generator(self, i: int) -> BitMatrix:
        """Code i's canonical RREF generator as a BitMatrix."""
        return BitMatrix(self.n, tuple(self.generators[i].tolist()))


ARGMAX_TIE_TOL = 1e-12
# Bounds the real cost of `exhaustive_search`, priced as one rank profile
# over 2^n subsets per subspace, [n choose dim]_2 · 2^n subsets in all.  This
# over-prices the search, which enumerates every subspace but profiles each
# column multiset only once.  Every (8, dim) shape fits ((8,4): 5.1·10^7);
# (20,1) would be 1.1·10^12.
SEARCH_SUBSET_BUDGET = 1 << 27


def search_count(n: int, dim: int) -> int:
    """[n choose dim]_2, the number of codes to search; refuses a bad or over-budget shape."""
    codes.check_shape(n, dim)
    # Each count is at least 2^n, so a large n is refused before the Gaussian
    # binomial, which runs for over 30 s at (8000, 4000) on a 2-vCPU VM.
    count = codes.gaussian_binomial(n, dim) if n < SEARCH_SUBSET_BUDGET.bit_length() else None
    if count is None or (count << n) > SEARCH_SUBSET_BUDGET:
        raise GuardError(
            f"searching all ({n},{dim}) codes tallies [n choose dim]_2 · 2^n subsets, "
            f"over the search budget of {SEARCH_SUBSET_BUDGET}"
        )
    return count


def _class_keys(rows: np.ndarray, n: int, dim: int) -> np.ndarray:
    """One int64 key per code, from a (count, dim) array of RREF rows: the
    sorted columns of its smaller side, so that codes with equal keys have
    equal rank profiles.

    A code's erasure matroid, and so its rank profile, is fixed by the column
    multiset of G and equally by that of H, as the two matroids are dual.
    Row i's pivot is its lowest set bit, so G = [I | A] and H = [Aᵀ | I] up to
    one column order, and the unit columns are shared by every code.  The key
    is therefore A's dim rows as k-bit words (H's side, k ≤ dim) or A's k
    columns as dim-bit words (G's side, k > dim), sorted: max(dim, k) words
    of min(dim, k) bits, dim·k ≤ 42 bits in all, as the budget keeps n ≤ 13.
    """
    k = n - dim
    r = rows.astype(np.uint16)
    free = np.uint16((1 << n) - 1) & ~np.bitwise_or.reduce(r & -r, axis=1)
    # Row i of A packs row i's bits at the free columns, left to right;
    # t counts each code's free columns so far.
    a = np.zeros(r.shape, dtype=np.uint16)
    t = np.zeros((len(r), 1), dtype=np.uint16)
    for j in range(n):
        f = (free[:, None] >> j) & 1
        a |= ((r >> j) & f) << t
        t += f
    if k > dim:
        g = np.zeros((len(r), k), dtype=np.uint16)
        for i in range(dim):
            g |= ((a[:, i, None] >> np.arange(k, dtype=np.uint16)) & 1) << i
        a = g
    a.sort(axis=1)
    return np.bitwise_or.reduce(a.astype(np.int64) << min(dim, k) * np.arange(a.shape[1]), axis=1)


def exhaustive_search(n: int, dim: int, grid: Sequence[float]) -> SearchResult:
    """Exact curves for every dim-dimensional base code in GF(2)^n.

    A rank profile depends on a code only through the column multiset of
    either side, G or H.  So the search stacks the enumerator's blocks as one
    (count, dim) array of rows, keys each code by its smaller side's sorted
    columns (`_class_keys`), groups the keys with one `np.unique` and profiles
    each class once (from its first code, through `from_generator`) with an
    O(n·2^n) transform: 330 profiles for the 11,811 (7,4) codes and 330 for
    the 11,811 (7,3) codes, 13 for the 8,191 (13,12) codes.
    `equivocation_bits` evaluates the distinct profiles over the grid plus
    ε = R in one call, the arithmetic that `curve` and `achievability_gap` run
    for a single code; each code takes its class's row, and argmax and
    ranking are array operations over all codes.
    """
    search_count(n, dim)
    grid = tuple(grid)
    eq.check_grid(grid)
    k = n - dim
    rows = np.concatenate([block.T for block in codes.enumerate_subspaces(n, dim)])
    _, first, index = np.unique(_class_keys(rows, n, dim), return_index=True, return_inverse=True)
    coeffs = [eq.coefficients(eq.rank_profile(codes.from_generator(BitMatrix(n, g), "search")))
              for g in map(tuple, rows[first].tolist())]
    bits = eq.equivocation_bits(coeffs, grid + (k / n,))[index]  # gap point appended
    bits /= n
    rates = bits[:, :-1]
    gaps = k / n - bits[:, -1]
    top = rates.max(axis=0)
    argmax = tuple(tuple(np.flatnonzero(rates[:, j] >= top[j] - ARGMAX_TIE_TOL).tolist())
                   for j in range(len(grid)))
    # Ties in A_g break by the lexicographically smallest canonical generator.
    order = tuple(np.lexsort((*rows.T[::-1], gaps)).tolist())
    return SearchResult(
        n=n,
        dim=dim,
        grid=grid,
        generators=rows,
        rates=rates,
        gaps=gaps,
        argmax_per_eps=argmax,
        ranking=order,
    )


@dataclass(frozen=True)
class EnsembleReport:
    n: int
    dim: int
    alpha: float
    grid: tuple[float, ...]
    member_curves: tuple[EquivocationCurve, ...]
    mean_rates: np.ndarray
    best_rates: np.ndarray
    worst_rates: np.ndarray
    ci95_halfwidth: np.ndarray  # on the ensemble mean, per grid point
    reference_curve: EquivocationCurve
    seed: int


def ensemble_study(
    n: int,
    dim: int,
    alpha: float,
    num_codes: int,
    grid: Sequence[float],
    trials: int,
    seed: int,
    reference: CodeSpec,
    pool: Optional[eq.ThreadPool] = None,
) -> EnsembleReport:
    """Monte Carlo curves for num_codes random bases plus a reference code."""
    if num_codes < 1:
        raise ValueError("num_codes must be positive")
    grid = tuple(grid)
    members = []
    for i in range(num_codes):
        c = codes.random_base(
            RandomCodeParams(n=n, dim=dim, alpha=alpha, seed=derive_seed(seed, "code", i))
        )
        members.append(
            eq.curve(c, grid, "mc", trials, derive_seed(seed, "mc", i), pool=pool)
        )
    ref_curve = eq.curve(reference, grid, "mc", trials, derive_seed(seed, "ref"), pool=pool)
    rates = np.array([cv.rates() for cv in members])  # (num_codes, grid)
    mean = rates.mean(axis=0)
    if num_codes > 1:
        half = CI95 * rates.std(axis=0, ddof=1) / math.sqrt(num_codes)
    else:
        half = np.zeros(len(grid))
    return EnsembleReport(
        n=n,
        dim=dim,
        alpha=alpha,
        grid=grid,
        member_curves=tuple(members),
        mean_rates=mean,
        best_rates=rates.max(axis=0),
        worst_rates=rates.min(axis=0),
        ci95_halfwidth=half,
        reference_curve=ref_curve,
        seed=seed,
    )


FAMILY_BUILDERS = {"hamming": codes.hamming_base, "simplex": codes.simplex_base}


def family_sweep(
    family: str,
    rs: Sequence[int],
    method: str = "auto",
    trials: int = eq.DEFAULT_MC_TRIALS,
    seed: int = 0,
    pool: Optional[eq.ThreadPool] = None,
) -> list[GapReport]:
    """Achievability gap per blocklength for a Hamming or simplex family."""
    if family not in FAMILY_BUILDERS:
        raise ValueError(f"unknown family {family!r}")
    build = FAMILY_BUILDERS[family]
    reports = []
    for i, r in enumerate(rs):
        reports.append(
            eq.achievability_gap(build(r), method, trials, derive_seed(seed, "sweep", i),
                                 pool=pool)
        )
    return reports
