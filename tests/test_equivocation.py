import hashlib
import itertools
import math
import os
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import bewc
from bewc import codes, equivocation as eq, gf2
from bewc.equivocation import PatternEntropy
from bewc.gf2 import pack

from conftest import (all_observations, dual_words, exact_gap_by_dual_count, from_strings,
                      observation, observation_equivocation_oracle, pattern_equivocation,
                      random_code, reference_subspaces)


def ternary_brute_force(code, eps, book=None):
    """Independent Eq.-style sum over all 3^n observations; entropy comes
    from the coset-counting oracle, probabilities from first principles."""
    if book is None:
        book = bewc.codebook(code)
    n = code.n
    total = 0.0
    for mask, word in all_observations(n):
        mu = mask.bit_count()
        p = eps ** (n - mu) * (1 - eps) ** mu / 2**mu
        total += p * observation_equivocation_oracle(code, mask, word, book)
    return total


# ---------------------------------------------------------------- Theorem-1 entropy

def test_pattern_equivocation_examples(ex1):
    assert pattern_equivocation(ex1, 0b1001) == 1  # w??w
    assert pattern_equivocation(ex1, 0b0011) == 2  # ww??


def test_pattern_equivocation_extremes(ex1):
    assert pattern_equivocation(ex1, 0) == ex1.k
    assert pattern_equivocation(ex1, 0b1111) == 0
    h3 = bewc.hamming_base(3)
    assert pattern_equivocation(h3, 0) == h3.k
    assert pattern_equivocation(h3, (1 << 7) - 1) == 0


def test_pattern_equivocation_dimension_check(ex1):
    for mask in (1 << 4, -1):  # a fifth position; no positions at all
        with pytest.raises(gf2.DimensionError, match="outside the code's 4 positions"):
            pattern_equivocation(ex1, mask)


@given(st.integers(0, 2**9 - 1), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_pattern_entropy_within_erasure_bound(mask, seed):
    code = random_code(9, 4, seed=seed % 50)
    h = pattern_equivocation(code, mask)
    assert 0 <= h <= min(code.k, code.n - mask.bit_count())


def _assert_kernel_matches_generator_formula(code, erased_masks):
    got = PatternEntropy(code)(pack(erased_masks, code.n))
    full = (1 << code.n) - 1
    want = [pattern_equivocation(code, full ^ m) for m in erased_masks]
    assert got.tolist() == want


def test_dual_side_entropy_equivalence():
    # An (8,5) code is scored on its H side (k = 3 <= dim = 5) and its (8,3)
    # dual on its G side; both must agree with k − µ + rank(G_µ) on every mask.
    for seed in range(8):
        code = random_code(8, 5, seed=seed)
        dual = bewc.from_generator(code.H, "dual")
        assert PatternEntropy(code).h_side and not PatternEntropy(dual).h_side
        for c in (code, dual):
            _assert_kernel_matches_generator_formula(c, range(256))


def test_entropy_kernel_scalar_path_and_long_codes():
    # Erasure densities from 0 to 1, so both elimination sides are taken.
    rng = np.random.default_rng(21)
    scalar = random_code(30, 15, seed=2)
    assert PatternEntropy(scalar).tables is None  # min(k, dim) > SPAN_MAX_DIM
    _assert_kernel_matches_generator_formula(scalar, _sample_masks(rng, 30, 300))
    for code in (bewc.hamming_base(7), bewc.simplex_base(7)):  # two 64-bit words
        _assert_kernel_matches_generator_formula(code, _sample_masks(rng, 127, 120))


def _sample_masks(rng, n, count):
    """Erased masks at densities from 0 to 1, so counts of every size occur."""
    return [sum(1 << int(i) for i in np.flatnonzero(rng.random(n) < j / (count - 1)))
            for j in range(count)]


@pytest.mark.parametrize("d", range(1, eq.SPAN_MAX_DIM + 1))
def test_entropy_tables_every_listed_dimension(d):
    # Both sides at each listed d, at n on byte and 64-bit word edges; n > 2d
    # puts the (n, n − d) code on the H side and its dual on the G side.
    rng = np.random.default_rng(d)
    for n in (n for n in (8, 9, 63, 64, 65, 127) if n > 2 * d):
        code = random_code(n, n - d, seed=n + d)
        dual = bewc.from_generator(code.H, "dual")
        assert PatternEntropy(code).h_side and not PatternEntropy(dual).h_side
        for c in (code, dual):
            assert PatternEntropy(c).tables.shape == ((n + 7) // 8, 256, max(1, 2**d // 64))
            _assert_kernel_matches_generator_formula(c, _sample_masks(rng, n, 40))


def test_entropy_tables_read_z_sets_through_gf2_transpose(monkeypatch):
    # One bit transpose: each Z_i is column i of D's complemented word list,
    # read through `gf2.transpose`, not through a transpose of its own.
    code, calls = bewc.hamming_base(5), []
    real = gf2.transpose

    def counted(rows, cols):
        calls.append((rows.shape, cols))
        return real(rows, cols)

    monkeypatch.setattr(gf2, "transpose", counted)
    assert PatternEntropy(code).tables is not None
    assert calls == [((64, 4), 32)]  # 2^5 words of C⊥ in one uint64, 4 bytes of positions


def _tables_through_column_ints(code):
    """The bitset tables as built before `gf2.transpose`: the complemented words
    as a BitMatrix, its columns as ints from `gf2.column_ints`, packed again."""
    d, nbytes = min(code.k, code.dim), (code.n + 7) // 8
    w = max(1, (1 << d) // 64)
    ones = (1 << 8 * nbytes) - 1
    comp = gf2.BitMatrix(8 * nbytes, tuple(ones ^ c for c in eq._smaller_row_space(code)))
    z = pack(gf2.column_ints(comp), 64 * w).view("<u8").reshape(nbytes, 8, w)
    tables = np.empty((nbytes, 256, w), dtype=np.uint64)
    t = tables if code.k <= code.dim else tables[:, ::-1]
    t[:, 0] = np.uint64((1 << min(1 << d, 64)) - 1)
    for b in range(8):
        np.bitwise_and(t[:, : 1 << b], z[:, b, None], out=t[:, 1 << b : 2 << b])
    return tables


@pytest.mark.parametrize("make", [lambda: bewc.hamming_base(5), lambda: bewc.simplex_base(5),
                                  lambda: random_code(127, 13, seed=1)],
                         ids=["hamming-5", "simplex-5", "random-127-13"])
def test_entropy_tables_match_the_column_ints_construction(make):
    # The H side at d = 5, the G side at d = 5 and at d = 13 (two bytes of n).
    code = make()
    tables = PatternEntropy(code).tables
    want = _tables_through_column_ints(code)
    assert tables.dtype == want.dtype and tables.shape == want.shape
    assert tables.tobytes() == want.tobytes()


# ---------------------------------------------------------------- oracle

def test_oracle_example_observation(ex1):
    assert observation("10??") == (0b0011, 0b0001)
    assert observation_equivocation_oracle(ex1, 0b0011, 0b0001) == pytest.approx(2.0)


def test_oracle_fully_revealed_word(ex1):
    assert observation_equivocation_oracle(ex1, *observation("0110")) == pytest.approx(0.0)


@pytest.mark.parametrize("mask, word, message", [
    (1 << 4, 0, "outside the code's 4 positions"),
    (-1, 0, "outside the code's 4 positions"),
    (0b0011, 0b0100, "outside the revealed mask"),  # a value at an erased position
    (0b0011, -1, "outside the revealed mask"),
], ids=["wide-mask", "negative-mask", "word-outside-mask", "negative-word"])
def test_oracle_refuses_a_bad_observation(ex1, mask, word, message):
    with pytest.raises(gf2.DimensionError, match=message):
        observation_equivocation_oracle(ex1, mask, word)


def test_all_observations_are_the_ternary_words():
    for n in range(5):
        got = all_observations(n)
        assert len(got) == 3**n
        assert set(got) == {observation("".join(z)) for z in itertools.product("01?", repeat=n)}


def test_oracle_guard():
    big = bewc.hamming_base(5)
    with pytest.raises(codes.GuardError):
        observation_equivocation_oracle(big, 0, 0)


def test_oracle_matches_theorem_small_codes():
    rng = np.random.default_rng(11)
    for seed in range(20):
        n = int(rng.integers(4, 9))
        dim = int(rng.integers(1, n))
        code = random_code(n, dim, seed=seed)
        book = bewc.codebook(code)
        for _ in range(60):
            mask, word = observation("".join(rng.choice(list("01?"), size=n)))
            got = observation_equivocation_oracle(code, mask, word, book)
            want = pattern_equivocation(code, mask)
            assert got == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------- rank profile

def test_rank_profile_example_code(ex1):
    prof = bewc.rank_profile(ex1)
    assert prof.shape == (ex1.n + 1, ex1.dim + 1) and prof.dtype == np.int64
    assert prof[0, 0] == 1
    assert prof[4, 2] == 1
    assert prof.sum() == 16


def test_rank_profile_completeness_hamming3():
    prof = bewc.rank_profile(bewc.hamming_base(3))
    assert prof.sum() == 128
    assert prof[7, 4] == 1  # the full revealed set


@pytest.mark.parametrize("n, dim, seed", [(16, 8, 1), (16, 5, 2)])
def test_rank_profile_rows_sum_to_binomials(n, dim, seed):
    # Both sides of the relabel: (16,8) and its dual have k = dim, (16,5) is on
    # the G side and its dual on the H side.
    code = random_code(n, dim, seed=seed)
    for c in (code, _dual(code)):
        prof = bewc.rank_profile(c)
        assert prof.dtype == np.int64 and prof.shape == (n + 1, c.dim + 1)
        assert prof.sum(axis=1).tolist() == [math.comb(n, mu) for mu in range(n + 1)]


def test_rank_profile_guard():
    c = random_code(31, 26, seed=1)
    with pytest.raises(codes.GuardError):
        bewc.rank_profile(c)


def test_rank_profile_row_space_invariance(ex1):
    # Same row space, different generator rows.
    other = bewc.from_generator(from_strings(["1111", "0110"]), "ex1b")
    assert np.array_equal(bewc.rank_profile(other), bewc.rank_profile(ex1))


def test_rank_profile_column_permutation_invariance():
    code = random_code(7, 3, seed=3)
    perm = [3, 0, 6, 1, 5, 2, 4]
    rows = []
    for r in code.G.rows:
        w = 0
        for new_j, old_j in enumerate(perm):
            if (r >> old_j) & 1:
                w |= 1 << new_j
        rows.append(w)
    permuted = bewc.from_generator(gf2.BitMatrix(7, tuple(rows)), "perm")
    assert np.array_equal(bewc.rank_profile(permuted), bewc.rank_profile(code))


def _dual(code):
    return bewc.from_generator(code.H, f"{code.name}-dual")


def test_rank_profile_matches_pattern_tally():
    # The profile is built from subset sums of dual (H side) or code (G side)
    # words; each (µ, r) count must equal the per-pattern rank tally.
    rng = np.random.default_rng(31)
    for n in range(2, 11):
        dims = {1, n - 1, int(rng.integers(1, n))}
        for dim in sorted(dims):
            code = random_code(n, dim, seed=n * 100 + dim)
            for c in (code, _dual(code)):
                want = np.zeros((n + 1, c.dim + 1), dtype=np.int64)
                for mask in range(1 << n):
                    mu = mask.bit_count()
                    want[mu, pattern_equivocation(c, mask) - c.k + mu] += 1
                assert np.array_equal(bewc.rank_profile(c), want), (n, c.dim)


@pytest.mark.parametrize("n, dim", [(17, 5), (17, 12), (18, 4), (18, 14), (19, 9)])
def test_rank_profile_blocked_matches_kernel_tally(n, dim):
    # n > ZETA_LOW_BITS: the subset-sum table is built one block of high bits
    # at a time; the batched entropy kernel scores the same 2^n patterns, 2^16
    # at a time.  At (19, 9), d = 9, so table entries reach 2^9, past a byte.
    assert n > eq.ZETA_LOW_BITS
    code = random_code(n, dim, seed=n + dim)
    ent, tally = PatternEntropy(code), np.zeros((n + 1) * (dim + 1), dtype=np.int64)
    for start in range(0, 1 << n, 1 << 16):
        erased = np.arange(start, start + (1 << 16), dtype="<u8")
        packed = erased.view(np.uint8).reshape(-1, 8)[:, : (n + 7) // 8]
        mu = n - np.unpackbits(packed, axis=1).sum(axis=1, dtype=np.int64)
        r = ent(packed) - code.k + mu
        tally += np.bincount(mu * (dim + 1) + r, minlength=tally.size)
    assert np.array_equal(bewc.rank_profile(code), tally.reshape(n + 1, dim + 1))


def test_rank_profile_table_entries_fit_its_dtype_up_to_the_guard():
    # Every entry of `rank_profile`'s uint16 subset-sum table is at most 2^d, and
    # d = min(k, dim) ≤ n/2, so a higher guard must not wrap the table silently.
    assert 2 ** (eq.RANK_PROFILE_GUARD_N // 2) <= np.iinfo(np.uint16).max


def test_rank_profile_duality_identity_n22():
    # E_{C⊥}(1 − ε) = E_C(ε) + n(1 − ε) − k for a (22,11) code and its dual.
    code = random_code(22, 11, seed=4)
    prof, dual_prof = bewc.rank_profile(code), bewc.rank_profile(_dual(code))
    n, k = code.n, code.k
    for eps in (0.05, 0.3, 0.5, 0.77, 0.95):
        lhs = bewc.exact_equivocation(dual_prof, 1 - eps)
        rhs = bewc.exact_equivocation(prof, eps) + n * (1 - eps) - k
        assert abs(lhs - rhs) <= 1e-12


@st.composite
def small_codes(draw, max_n=12):
    """A code with 2 ≤ n ≤ max_n and any 1 ≤ dim < n, from a full-rank generator."""
    n = draw(st.integers(2, max_n))
    dim = draw(st.integers(1, n - 1))
    rows = draw(st.lists(st.integers(1, (1 << n) - 1), min_size=dim, max_size=dim))
    g = gf2.BitMatrix(n, tuple(rows))
    assume(gf2.rank(g) == dim)
    return bewc.from_generator(g, "small")


@settings(max_examples=200, deadline=None)
@given(small_codes(), st.data())
def test_pattern_equivocation_counts_hidden_dual_words(code, data):
    # k − µ + rank(G_µ) = k − log2 #{c ∈ C⊥ : supp c ⊆ R}, with C⊥ listed by
    # brute force, so the count shares no rank routine with the formula.
    dual = dual_words(code)
    masks = data.draw(st.lists(st.integers(0, (1 << code.n) - 1), min_size=1, max_size=8))
    for revealed in masks:
        count = sum(1 for c in dual if c & ~revealed == 0)
        want = code.k - (count.bit_length() - 1)
        assert pattern_equivocation(code, revealed) == want


@settings(max_examples=200, deadline=None)
@given(small_codes())
def test_rank_profile_duality_relabel(code):
    # rank(H_E) = |E| − dim + rank(G_R) for E the complement of R, |R| = µ:
    # N_{C⊥}(n − µ, n − µ − dim + r) = N_C(µ, r).
    n, dim = code.n, code.dim
    prof = bewc.rank_profile(code)
    mu, r = np.nonzero(prof)
    assert (n - mu - dim + r >= 0).all()
    relabelled = np.zeros((n + 1, code.k + 1), dtype=np.int64)
    relabelled[n - mu, n - mu - dim + r] = prof[mu, r]
    assert np.array_equal(bewc.rank_profile(_dual(code)), relabelled)


@settings(max_examples=200, deadline=None)
@given(small_codes(), st.data())
def test_pattern_entropy_duality(code, data):
    # h_C(E) = |E| − dim + h_{C⊥}(Ē); C and C⊥ are scored on opposite kernel
    # sides unless k = dim.
    full = (1 << code.n) - 1
    masks = data.draw(st.lists(st.integers(0, full), min_size=1, max_size=16))
    h = PatternEntropy(code)(pack(masks, code.n))
    h_dual = PatternEntropy(_dual(code))(pack([full ^ m for m in masks], code.n))
    assert h.tolist() == [m.bit_count() - code.dim + hd for m, hd in zip(masks, h_dual.tolist())]


def test_rank_profile_does_not_score_patterns(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("rank_profile scored patterns one by one")

    monkeypatch.setattr(eq, "PatternEntropy", refuse)
    assert bewc.rank_profile(random_code(18, 9, seed=1)).sum() == 1 << 18


# ---------------------------------------------------------------- exact evaluation

def test_exact_equivocation_endpoints(ex1):
    prof = bewc.rank_profile(ex1)
    assert bewc.exact_equivocation(prof, 0.0) == pytest.approx(0.0)
    assert bewc.exact_equivocation(prof, 1.0) == pytest.approx(ex1.k)


def test_exact_equivocation_matches_ternary_brute_force(ex1):
    prof = bewc.rank_profile(ex1)
    for eps in (0.2, 0.5, 0.8):
        assert bewc.exact_equivocation(prof, eps) == pytest.approx(
            ternary_brute_force(ex1, eps), abs=1e-10
        )


def test_exact_equivocation_hamming3_matches_brute_force():
    h3 = bewc.hamming_base(3)
    prof = bewc.rank_profile(h3)
    r = h3.rate
    brute = ternary_brute_force(h3, r)
    assert bewc.exact_equivocation(prof, r) == pytest.approx(brute, abs=1e-10)
    # Frozen from the 3^7 enumeration above: the exact achievability gap.
    assert r - brute / 7 == pytest.approx(0.0803330418517482, abs=1e-10)


def test_exact_equivocation_rejects_bad_eps(ex1):
    prof = bewc.rank_profile(ex1)
    with pytest.raises(ValueError):
        bewc.exact_equivocation(prof, 1.5)


def test_coefficients_are_the_integer_sums():
    # a[µ] = Σ_r N(µ, r)·(k − µ + r) in Python ints, converted to float once,
    # at the largest n the profile guard admits, with counts up to C(28, 14).
    n, dim = eq.RANK_PROFILE_GUARD_N, 9
    prof = np.random.default_rng(3).integers(0, math.comb(n, n // 2), size=(n + 1, dim + 1))
    want = [float(sum(int(c) * (n - dim - mu + r) for r, c in enumerate(row)))
            for mu, row in enumerate(prof)]
    assert eq.coefficients(prof).tolist() == want


def _scalar_bits(profile, eps):
    """The loop `equivocation_bits` must reproduce: ascending µ, Python powers."""
    n, total = profile.shape[0] - 1, 0.0
    for mu, a in enumerate(eq.coefficients(profile)):
        total += a * eps ** (n - mu) * (1.0 - eps) ** mu
    return total


def test_equivocation_bits_matches_scalar_loop_bit_for_bit():
    profiles = [bewc.rank_profile(random_code(13, dim, seed=dim)) for dim in range(1, 13)]
    grid = [0.0, *eq.DEFAULT_GRID, 1.0, 5 / 13, np.float64(0.37)]  # in any order
    bits = eq.equivocation_bits([eq.coefficients(p) for p in profiles], grid)
    assert bits.shape == (12, len(grid))
    assert bits.tolist() == [[_scalar_bits(p, float(e)) for e in grid] for p in profiles]


@pytest.mark.parametrize("r", [3, 5, 8])
def test_equivocation_bits_is_the_python_float_sum(r):
    # The evaluator's contract at n = 7, 31 and 255, for a Hamming code and a
    # simplex code in one call: Python's `**`, terms added in ascending µ, on
    # an empty grid, the two ends, one point and the default grid plus ε = R.
    # numpy's float power differs from `**` in the last bit on some of these.
    n = 2**r - 1
    profiles = [eq._exact_profile(bewc.hamming_base(r)), eq._exact_profile(bewc.simplex_base(r))]
    coeffs = [eq.coefficients(p) for p in profiles]
    for grid in ([], [0.0, 1.0], [0.3], sorted({*eq.DEFAULT_GRID, r / n, (n - r) / n})):
        bits = eq.equivocation_bits(coeffs, grid)
        assert bits.shape == (2, len(grid))
        assert bits.tolist() == [[_scalar_bits(p, e) for e in grid] for p in profiles]


def test_equivocation_bits_of_many_codes_match_single_rows():
    coeffs = [eq.coefficients(bewc.rank_profile(random_code(13, dim, seed=dim)))
              for dim in range(1, 13)]
    bits = eq.equivocation_bits(coeffs, eq.DEFAULT_GRID)
    rows = [eq.equivocation_bits([a], eq.DEFAULT_GRID)[0] for a in coeffs]
    assert (bits == np.array(rows)).all()


# SHA-256 over the ","-joined bits.hex() of the 99-point default-grid exact
# curve, and gap.hex() of the exact achievability gap, recorded while the
# rank profile was still tallied pattern by pattern through the entropy kernel.
EXACT_PINS = {  # id: (code, curve SHA-256, gap.hex())
    "hamming-4": (lambda: bewc.hamming_base(4),
                  "316768b20be545dfd7815b3f7efd030e1cf0bb5b3e629bb43c00e157b6091109",
                  "0x1.b118d0c295270p-5"),
    "simplex-4": (lambda: bewc.simplex_base(4),
                  "1dc6a750f36e03b68161b7a7f270dd61abbe943c24a5fc2049fac09130c52da3",
                  "0x1.b118d0c295270p-5"),
    "random-16-8": (lambda: random_code(16, 8, seed=1),
                    "62ad8ac35be467429f3dac19359165a827a1ef153c514303fa00bd3bf86273df",
                    "0x1.097c000000000p-4"),
    "random-16-8-dual": (lambda: _dual(random_code(16, 8, seed=1)),
                         "7b421e9e9c19bf0f6e3a5c7e9926bcbacf46cc84253dc8a0ed9490de71f53aa5",
                         "0x1.097c000000000p-4"),
    "random-18-3": (lambda: random_code(18, 3, seed=2),
                    "fbf67429222e558ba01abdc7eb8bcb9976dfee1015705326b7203921144fdfe3",
                    "0x1.b10b3b4fc80b0p-5"),
    # n = 200 runs on `support_profile`, whose subcodes spread over 89 support sizes.
    "random-200-6": (lambda: random_code(200, 6, seed=1),
                     "94778e10d72fd84c3dc6e40ca33f650b14d651e5288b21f00b4cd14cc4595e48",
                     "0x1.b1fc7325b7800p-8"),
    "random-200-6-dual": (lambda: _dual(random_code(200, 6, seed=1)),
                          "b5d1aa487b47f4c2973704c7b0a11fd070664f0007d54121ed4744772ae6d577",
                          "0x1.b1fc7325b783cp-8"),
}


@pytest.mark.parametrize("case", EXACT_PINS)
def test_exact_results_pinned(case):
    make, curve_sha, gap_hex = EXACT_PINS[case]
    code = make()
    cv = bewc.curve(code, eq.DEFAULT_GRID, method="exact")
    digest = hashlib.sha256(",".join(p.bits.hex() for p in cv.points).encode()).hexdigest()
    assert digest == curve_sha
    assert bewc.achievability_gap(code, method="exact").gap.hex() == gap_hex


# ---------------------------------------------------------------- support profile

@settings(max_examples=100, deadline=None)
@given(small_codes(max_n=14))
def test_support_profile_equals_rank_profile(code):
    # The code and its dual: one on the H side and one on the G side unless k = dim.
    for c in (code, _dual(code)):
        assert np.array_equal(eq.support_profile(c), bewc.rank_profile(c))


def test_support_profile_enumerates_through_the_codes_module(monkeypatch):
    # A wrapper set on `codes` sees every subcode enumeration, as the
    # benchmark's tracer does; a name bound at import would miss it.
    calls = []
    real = codes.enumerate_subspaces

    def counted(n, dim):
        calls.append((n, dim))
        return real(n, dim)

    monkeypatch.setattr(codes, "enumerate_subspaces", counted)
    eq.support_profile(bewc.hamming_base(5))
    assert calls == [(5, j) for j in range(6)]


@pytest.mark.parametrize("r", range(3, 9))
def test_simplex_subcode_supports_closed_form(r):
    # The [r choose j]_2 j-dimensional subcodes of the simplex code each have
    # support 2^r − 2^(r−j).  From r = 3 on it is the smaller side of both
    # simplex-r and its dual, hamming-r.
    for code in (bewc.simplex_base(r), bewc.hamming_base(r)):
        want = np.zeros((r + 1, code.n + 1), dtype=np.int64)
        for j in range(r + 1):
            want[j, (1 << r) - (1 << (r - j))] = codes.gaussian_binomial(r, j)
        assert np.array_equal(eq.subcode_supports(code), want)


def _simplex_rank_counts(r):
    """N(µ, j) of simplex-r in closed form: a µ-set of its columns, the nonzero
    vectors of GF(2)^r, has rank j when it spans one of the [r choose j]_2
    j-dimensional subspaces V; Möbius inversion over the subspaces of V counts
    the µ-sets of V's 2^j − 1 nonzero vectors that span V."""
    gb = codes.gaussian_binomial
    return [[gb(r, j) * sum((-1) ** (j - i) * (gb(j, i) << math.comb(j - i, 2))
                            * math.comb((1 << i) - 1, mu) for i in range(j + 1))
             for j in range(r + 1)] for mu in range(1 << r)]


@pytest.mark.parametrize("r", range(2, 9))
def test_support_profile_closed_form_families(r):
    # The inversion in `support_profile`, checked without `subcode_supports`'
    # table: hamming-r's profile is simplex-r's with µ ↦ n − µ and
    # ρ = j + µ − r, since rank(G_S) = |S| − r + rank(H_S̄).
    n = (1 << r) - 1
    simplex = _simplex_rank_counts(r)
    hamming = [[simplex[n - mu][rho + r - mu] if 0 <= rho + r - mu <= r else 0
                for rho in range(n - r + 1)] for mu in range(n + 1)]
    for code, want in ((bewc.simplex_base(r), simplex), (bewc.hamming_base(r), hamming)):
        prof = eq.support_profile(code)
        assert all(type(c) is int for c in prof.flat)
        assert prof.tolist() == want
        if r <= 4:
            assert bewc.rank_profile(code).tolist() == want


def _reference_subcode_supports(code):
    """A[j, w] by brute force: each j-dimensional subspace of D's coordinates,
    listed by `conftest.reference_subspaces`, spans a subcode of D (the smaller
    side), whose support is the OR of the words at its basis rows."""
    basis = (code.H if code.k <= code.dim else code.G).rows
    d = len(basis)

    def word(x):
        w = 0
        for i, row in enumerate(basis):
            if x >> i & 1:
                w ^= row
        return w

    want = np.zeros((d + 1, code.n + 1), dtype=np.int64)
    for j in range(d + 1):
        for sub in reference_subspaces(d, j):
            support = 0
            for x in sub.rows:
                support |= word(x)
            want[j, support.bit_count()] += 1
    return want


@pytest.mark.parametrize("block", [None, 1, 3])
@pytest.mark.parametrize("n, dim, seed", [(9, 5, 1), (12, 7, 2), (10, 8, 3), (6, 3, 4),
                                          (9, 4, 5), (12, 5, 6), (11, 3, 7)])
def test_subcode_supports_match_reference_subcodes(n, dim, seed, block, monkeypatch):
    # d ≤ 5 on the H side (k ≤ dim, the first four) and on the G side; blocks of
    # 1 and 3 bases end inside a pivot set's fills.
    if block:
        monkeypatch.setattr(codes, "SUBSPACE_BLOCK", block)
    code = random_code(n, dim, seed=seed)
    assert np.array_equal(eq.subcode_supports(code), _reference_subcode_supports(code))


@pytest.mark.parametrize("make", [lambda: bewc.hamming_base(8), lambda: bewc.simplex_base(8),
                                  lambda: random_code(200, 6, seed=1)],
                         ids=["hamming-8", "simplex-8", "random-200-6"])
def test_support_profile_rows_sum_to_binomials_past_int64(make):
    # Hamming-8 is relabelled on the H side, simplex-8 and random (200,6), whose
    # subcodes have 89 distinct support sizes, on the G side; every revealed
    # set is counted once, in exact Python ints.
    code = make()
    prof = eq.support_profile(code)
    assert all(type(c) is int for c in prof.flat)
    assert [sum(row) for row in prof.tolist()] == [math.comb(code.n, mu)
                                                   for mu in range(code.n + 1)]
    assert prof.sum() == 1 << code.n


@pytest.mark.parametrize("make", [
    lambda: bewc.hamming_base(3), lambda: bewc.simplex_base(3), lambda: bewc.hamming_base(4),
    lambda: random_code(15, 11, seed=2), lambda: random_code(12, 4, seed=3),
    lambda: random_code(10, 3, seed=4),
], ids=["hamming-3", "simplex-3", "hamming-4", "random-15-11", "random-12-4", "random-10-3"])
def test_support_profile_gap_matches_dual_count(make):
    code = make()
    gap = bewc.achievability_gap(code, method="exact", profile=eq.support_profile(code)).gap
    assert abs(gap - exact_gap_by_dual_count(code)) <= 1e-12


# Ag of hamming-r and simplex-r, r = 5..8, to 7 digits.
SUPPORT_GAPS = {5: 0.0317548, 6: 0.0180854, 7: 0.0099528, 8: 0.0053531}


@pytest.mark.parametrize("r", sorted(SUPPORT_GAPS))
def test_support_profile_gaps_of_dual_families_agree(r):
    h = bewc.achievability_gap(bewc.hamming_base(r))
    s = bewc.achievability_gap(bewc.simplex_base(r))
    assert h.method == s.method == "exact"
    assert abs(h.gap - s.gap) <= 1e-12
    assert abs(h.gap - SUPPORT_GAPS[r]) <= 5e-8


@pytest.mark.parametrize("make", [lambda: bewc.hamming_base(6), lambda: bewc.simplex_base(6),
                                  lambda: bewc.hamming_base(8), lambda: bewc.simplex_base(8)],
                         ids=["hamming-6", "simplex-6", "hamming-8", "simplex-8"])
def test_support_profile_float_evaluation_matches_fractions(make):
    # Σ_µ a[µ]·ε^(n−µ)(1−ε)^µ in exact rationals, with a[µ] summed in Python ints.
    code = make()
    n, k = code.n, code.k
    prof = eq.support_profile(code)
    a = [sum(c * (k - mu + r) for r, c in enumerate(row)) for mu, row in enumerate(prof.tolist())]
    for eps in (0.1, code.rate, 0.9):
        e = Fraction(eps)
        want = sum(c * e ** (n - mu) * (1 - e) ** mu for mu, c in enumerate(a))
        got = bewc.exact_equivocation(prof, eps)
        assert abs(Fraction(got) - want) <= Fraction(1, 10**12) * want


def test_support_profile_budget():
    # Every family code fits (r = 8: 417,199 subcodes and 458,752 terms); a
    # d = 32 code is priced and refused at once.
    assert eq.support_profile_cost(255, 8) == 875_951 <= eq.SUPPORT_PROFILE_BUDGET
    assert eq.support_profile_cost(2324, 1162) > eq.SUPPORT_PROFILE_BUDGET
    with pytest.raises(codes.GuardError, match=r"costs at least 4\.29e9 units"):
        eq.support_profile(random_code(64, 32, seed=1))
    # a[µ] ≤ k·C(n, n/2) would pass the float range.
    with pytest.raises(codes.GuardError, match="float range"):
        eq.support_profile(random_code(1100, 1, seed=1))
    assert eq.resolve_method("auto", random_code(1100, 1, seed=1)) == "mc"


# ---------------------------------------------------------------- Monte Carlo

def test_mc_degenerate_channels():
    h3 = bewc.hamming_base(3)
    lo = bewc.mc_equivocation(h3, 0.0, 1000, seed=1)
    hi = bewc.mc_equivocation(h3, 1.0, 1000, seed=1)
    assert lo.mean == 0.0 and lo.stderr == 0.0
    assert hi.mean == h3.k and hi.stderr == 0.0


def test_mc_close_to_exact():
    h3 = bewc.hamming_base(3)
    exact = bewc.exact_equivocation(bewc.rank_profile(h3), 3 / 7)
    est = bewc.mc_equivocation(h3, 3 / 7, 10**5, seed=5)
    assert abs(est.mean - exact) < 4 * est.stderr
    assert est.ci95_lo == pytest.approx(est.mean - 1.96 * est.stderr)
    assert est.ci95_hi == pytest.approx(est.mean + 1.96 * est.stderr)


def test_mc_same_seed_same_estimate_other_seed_differs():
    h3 = bewc.hamming_base(3)
    # 30000 trials span two MC_BATCH batches, each with its own stream.
    a = bewc.mc_equivocation(h3, 0.3, 30000, seed=9)
    b = bewc.mc_equivocation(h3, 0.3, 30000, seed=9)
    assert a == b
    c = bewc.mc_equivocation(h3, 0.3, 30000, seed=10)
    assert a != c


def test_mc_validates_arguments():
    h3 = bewc.hamming_base(3)
    with pytest.raises(ValueError):
        bewc.mc_equivocation(h3, 0.3, 1, seed=1)
    with pytest.raises(ValueError):
        bewc.mc_equivocation(h3, -0.1, 100, seed=1)


def test_mc_curve_refuses_one_trial_before_the_kernel(monkeypatch):
    def no_kernel(code):
        raise AssertionError("the kernel was built before trials were checked")
    monkeypatch.setattr(eq, "PatternEntropy", no_kernel)
    with pytest.raises(ValueError, match="need at least 2 trials, got 1"):
        eq.curve(bewc.hamming_base(3), [0.2, 0.5], "mc", trials=1)


@pytest.mark.parametrize("eps", [0.0, 5e-324, 2.0**-53, math.nextafter(0.3, 0), 0.3,
                                 math.nextafter(0.3, 1), 0.5, 1 - 2.0**-53, 1.0])
def test_pack_erasures_matches_generator_random(eps):
    # The integer threshold on raw words decides `Generator.random(...) < eps`
    # for every word, at the edges of the double grid too.
    for n in (1, 7, 8, 9, 31, 64, 65):
        key = codes.derive_seed(17, n)
        words = codes.make_rng(key).bit_generator.random_raw((300, n))
        want = np.packbits(codes.make_rng(key).random((300, n)) < eps, axis=1, bitorder="little")
        got = eq.pack_erasures(words, eps)
        assert got.shape == want.shape and np.array_equal(got, want), (eps, n)
    # Random words never land next to the threshold; these do, low bits set.
    edge = math.ceil(eps * 2**53)
    tops = [t for t in range(edge - 2, edge + 2) if 0 <= t < 2**53]
    words = np.array([[t << 11 | 0x7FF for t in tops]], dtype=np.uint64)
    want = gf2.pack([sum(1 << i for i, t in enumerate(tops) if t * 2.0**-53 < eps)], len(tops))
    assert np.array_equal(eq.pack_erasures(words, eps), want)


# mean.hex() and stddev.hex() recorded while each pattern was still scored by
# its own elimination.  Cases: H side (hamming, random (31,26)), G side
# (simplex), patterns wider than 64 bits (n = 127) and the scalar
# elimination path (random (40,20)); 40000 trials span three batches.
MC_PINS = {  # id: (code, ε (None: ε = R), seed, mean.hex(), stddev.hex())
    "hamming-5": (lambda: bewc.hamming_base(5), None, 1,
                  "0x1.01474538ef34dp+2", "0x1.19d557515d2d9p+0"),
    "simplex-5": (lambda: bewc.simplex_base(5), 0.3, 2,
                  "0x1.2957dbf487fccp+3", "0x1.475314ae07cb0p+1"),
    "random-31-26-eps0.7": (lambda: random_code(31, 26, seed=3), 0.7, 3,
                            "0x1.4000000000000p+2", "0x0.0p+0"),
    "random-31-26-eps0.1": (lambda: random_code(31, 26, seed=3), 0.1, 7,
                            "0x1.5a04189374bc7p+1", "0x1.4e3045d7028fdp+0"),
    "hamming-7": (lambda: bewc.hamming_base(7), None, 4,
                  "0x1.6ef06f6944674p+2", "0x1.5f1bc28ceefa4p+0"),
    "simplex-7": (lambda: bewc.simplex_base(7), 0.5, 8,
                  "0x1.fc13d07c84b5ep+5", "0x1.68a462b057bfep+2"),
    "random-40-20": (lambda: random_code(40, 20, seed=5), 0.5, 5,
                     "0x1.2733d07c84b5ep+4", "0x1.cc044d6fe9dbfp+0"),
}


@pytest.mark.parametrize("case", MC_PINS)
def test_mc_estimates_pinned(case):
    make, eps, seed, mean_hex, stddev_hex = MC_PINS[case]
    code = make()
    est = bewc.mc_equivocation(code, code.rate if eps is None else eps, 40000, seed=seed)
    assert (est.mean.hex(), est.stddev.hex()) == (mean_hex, stddev_hex)


@pytest.mark.parametrize("case", MC_PINS)
def test_mc_estimates_pinned_on_any_pool(case, pool):
    make, eps, seed, mean_hex, stddev_hex = MC_PINS[case]
    code = make()
    est = bewc.mc_equivocation(code, code.rate if eps is None else eps, 40000, seed, pool)
    assert (est.mean.hex(), est.stddev.hex()) == (mean_hex, stddev_hex)


BATCH_CODES = {16: lambda: random_code(16, 8, seed=2), 31: lambda: bewc.hamming_base(5),
               127: lambda: bewc.simplex_base(7)}


@pytest.mark.parametrize("n", BATCH_CODES)
def test_batch_sums_are_the_rows_of_each_serial_batch(n):
    # Batch b sums exactly the entropies of the rows that one draw of the
    # whole batch from its stream gives, the last batch ragged at 7,234 rows.
    code, eps, seed, trials = BATCH_CODES[n](), 0.3, 9, 40002
    ent = PatternEntropy(code)
    for b, start in enumerate(range(0, trials, eq.MC_BATCH)):
        h = ent(eq.pack_erasures(codes.make_rng(seed, b).bit_generator.random_raw(
            (min(eq.MC_BATCH, trials - start), n)), eps))
        assert eq._batch_sums(ent, eps, seed, trials, b) == (int(h.sum()), int(h @ h)), b


@pytest.mark.parametrize("n", BATCH_CODES)
def test_mc_estimate_is_the_same_on_any_pool(n, pool):
    # 2 and 5 trials are one batch, on the calling thread; 40,000 and 40,002
    # are three, the last ragged, on the pool's threads.
    code = BATCH_CODES[n]()
    for trials in (2, 5, 40000, 40002):
        for eps in (0.0, 0.3, 1.0):
            want = bewc.mc_equivocation(code, eps, trials, seed=6)
            assert bewc.mc_equivocation(code, eps, trials, 6, pool) == want, (trials, eps)


@pytest.mark.parametrize("n, dim", [(31, 26), (31, 5), (20, 8), (70, 62)])
def test_mc_estimate_is_the_same_in_any_step(n, dim, monkeypatch):
    # W = 1 and W = 4 words per bitset, H side and G side; steps of 1 and 3
    # rows against one step per batch.  Batches of 64 keep the test fast: 150
    # trials cross two batch edges, each batch ends on a ragged step of 3, and
    # two threads run the three batches.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(eq, "MC_BATCH", 64)
    code, trials = random_code(n, dim, seed=n), 150
    assert PatternEntropy(code).rows == eq.STEP_WORDS // n
    want = bewc.mc_equivocation(code, 0.4, trials, seed=8)
    for rows in (1, 3):
        monkeypatch.setattr(eq, "STEP_WORDS", rows * n)
        assert PatternEntropy(code).rows == rows
        assert bewc.mc_equivocation(code, 0.4, trials, seed=8) == want, rows
        with eq.ThreadPool(2) as pool:
            assert bewc.mc_equivocation(code, 0.4, trials, 8, pool) == want, rows


def test_mc_point_holds_one_step_of_drawn_words():
    # 2^14 trials at n = 1000 draw 128 MB of words: one step is 2 MB.
    code = random_code(1000, 4, seed=0)
    tracemalloc.start()
    try:
        bewc.mc_equivocation(code, 0.5, eq.MC_BATCH, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 << 20, peak


def test_mc_estimate_survives_more_threads_than_cores(monkeypatch):
    # Eight workers share one kernel and switch every microsecond over ten
    # batches; a batch lost, repeated or mixed with another changes the exact sums.
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(eq, "MC_BATCH", 4096)
    code = bewc.hamming_base(5)
    want = [bewc.mc_equivocation(code, eps, 40000, seed=2) for eps in (0.1, 0.5)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with eq.ThreadPool(8) as pool:
            assert [bewc.mc_equivocation(code, eps, 40000, 2, pool) for eps in (0.1, 0.5)] == want
    finally:
        sys.setswitchinterval(interval)


def test_pack_erasures_leaves_the_words_untouched():
    words = codes.make_rng(3).bit_generator.random_raw((50, 31))
    kept = words.copy()
    for eps in (0.0, 0.3, 1.0):
        eq.pack_erasures(words, eps)
        assert np.array_equal(words, kept), eps


# ---------------------------------------------------------------- curves and gaps

def test_mc_curve_gap_and_sweep_are_the_same_on_any_pool(pool):
    # 2·10^4 trials are two batches, so each point runs on the pool.
    code, grid, trials = bewc.simplex_base(5), [0.1, 0.5, 0.9], 2 * 10**4
    assert (bewc.curve(code, grid, "mc", trials, 3, pool=pool)
            == bewc.curve(code, grid, "mc", trials, 3))
    assert (bewc.achievability_gap(code, "mc", trials, 4, pool=pool)
            == bewc.achievability_gap(code, "mc", trials, 4))
    assert (bewc.family_sweep("hamming", [5, 6], "mc", trials, 5, pool=pool)
            == bewc.family_sweep("hamming", [5, 6], "mc", trials, 5))


def test_mc_curve_builds_one_kernel(monkeypatch):
    built = []

    class Counted(PatternEntropy):
        def __init__(self, code):
            built.append(code.name)
            super().__init__(code)

    monkeypatch.setattr(eq, "PatternEntropy", Counted)
    cv = bewc.curve(bewc.hamming_base(4), [0.2, 0.5, 0.8], method="mc", trials=100, seed=1)
    assert len(cv.points) == 3 and built == ["hamming-4"]
    built.clear()
    bewc.ensemble_study(7, 4, 0.5, num_codes=2, grid=[0.2, 0.5, 0.8], trials=100, seed=1,
                        reference=bewc.hamming_base(3))
    assert len(built) == 3  # one per member and one for the reference


def test_curve_trivial_grid(ex1):
    cv = bewc.curve(ex1, [0.0, 1.0], method="exact")
    assert [p.rate for p in cv.points] == [pytest.approx(0.0), pytest.approx(ex1.rate)]


def test_curve_exact_shape_properties():
    h3 = bewc.hamming_base(3)
    grid = [round(0.01 * i, 2) for i in range(1, 100)]
    cv = bewc.curve(h3, grid, method="exact")
    rates = cv.rates()
    assert np.all(np.diff(rates) >= -1e-12)  # nondecreasing
    assert np.all(np.diff(rates, 2) <= 1e-9)  # concave
    bound = np.minimum(grid, h3.rate)
    assert np.all(rates <= bound + 1e-12)


def test_curve_rejects_bad_grid(ex1):
    with pytest.raises(ValueError):
        bewc.curve(ex1, [0.5, 0.4], method="exact")
    with pytest.raises(ValueError):
        bewc.curve(ex1, [0.5, 1.2], method="exact")


def test_curve_mc_deterministic():
    h3 = bewc.hamming_base(3)
    a = bewc.curve(h3, [0.2, 0.5], method="mc", trials=5000, seed=3)
    b = bewc.curve(h3, [0.2, 0.5], method="mc", trials=5000, seed=3)
    assert a == b
    assert all(p.stderr is not None for p in a.points)


def test_method_resolution():
    assert eq.resolve_method("auto", bewc.hamming_base(4)) == "exact"  # rank profile
    assert eq.resolve_method("auto", bewc.hamming_base(8)) == "exact"  # support profile
    past_both = random_code(64, 32, seed=1)
    assert eq.resolve_method("auto", past_both) == "mc"
    assert eq.resolve_method("exact", past_both) == "exact"  # refused by the builder
    with pytest.raises(ValueError):
        eq.resolve_method("magic", bewc.hamming_base(3))


def test_gap_report_invariants():
    h3 = bewc.hamming_base(3)
    rep = bewc.achievability_gap(h3, method="exact")
    assert rep.method == "exact"
    assert rep.rate == pytest.approx(3 / 7)
    assert 0.0 <= rep.gap <= rep.rate
    assert rep.gap == pytest.approx(rep.rate - rep.equivocation_rate_at_r)


def test_gap_exact_guard():
    # n > 28 and d = 15 or 32: past both exact builders' budgets.
    for n, dim in [(31, 15), (64, 32)]:
        with pytest.raises(codes.GuardError, match=r"over the budget of 1\.00e7$"):
            bewc.achievability_gap(random_code(n, dim, seed=1), method="exact")
