import dataclasses
import tracemalloc

import numpy as np
import pytest

import bewc
from bewc import codes, coset, equivocation as eq, experiments, gf2

from conftest import enumerated_bases, random_code, reference_subspaces


# ---------------------------------------------------------------- sessions

def test_session_bob_always_succeeds():
    for code in (bewc.hamming_base(3), random_code(9, 5, seed=2)):
        rep = bewc.simulate_session(code, 0.4, trials=2000, seed=1)
        assert rep.bob_success_rate == 1.0


def test_session_no_erasures_no_equivocation():
    rep = bewc.simulate_session(bewc.hamming_base(3), 0.0, trials=500, seed=1)
    assert rep.mean_equivocation == 0.0


def test_session_consistent_with_exact():
    h3 = bewc.hamming_base(3)
    exact = bewc.exact_equivocation(bewc.rank_profile(h3), 3 / 7)
    rep = bewc.simulate_session(h3, 3 / 7, trials=20000, seed=4)
    assert abs(rep.mean_equivocation - exact) < 4 * rep.stderr


def test_session_pinned():
    # Recorded while each pattern was still scored by its own elimination.
    rep = bewc.simulate_session(bewc.hamming_base(4), 4 / 15, trials=20000, seed=6)
    assert rep.bob_success_rate == 1.0
    assert rep.mean_equivocation.hex() == "0x1.998adab9f559bp+1"
    assert rep.stderr.hex() == "0x1.b68bf21e8ad71p-8"


@pytest.mark.parametrize("chunk", [2, 4, experiments.SESSION_CHUNK])
def test_session_stream_matches_generator_calls(chunk):
    # The chunked raw read must return what per-trial Generator calls return;
    # a numpy change to Philox's half-word buffering or to `bytes` fails here.
    pick = np.random.default_rng(7)
    # (k, dim): c = ⌈mb/4⌉ + ⌈vb/4⌉ even and odd, and k or dim above 32 and 64.
    shapes = [(3, 4), (4, 11), (33, 5), (5, 40), (65, 2), (65, 40), (9, 70), (100, 33)]
    shapes += [tuple(int(x) for x in pick.integers(1, 90, size=2)) for _ in range(3)]
    for k, dim in shapes:
        mb, vb = (k + 7) // 8, (dim + 7) // 8
        n = int(pick.integers(1, 40))  # the reader's n need not be k + dim
        trials = 2 * chunk + 3  # three chunks, the last ragged and odd
        seed = int(pick.integers(1 << 63))
        fast, slow = codes.make_rng(seed), codes.make_rng(seed)
        read = 0
        for mbytes, vbytes, words in experiments._session_stream(fast, trials, mb, vb, n, chunk):
            assert len(mbytes) == len(vbytes) == len(words) <= chunk
            assert mbytes.dtype == vbytes.dtype == np.uint8 and words.dtype == np.uint64
            assert mbytes.shape[1:] == (mb,) and vbytes.shape[1:] == (vb,)
            draws = (words >> np.uint64(11)) * 2.0**-53
            for m, v, d in zip(mbytes, vbytes, draws):
                assert m.tobytes() == slow.bytes(mb), (k, dim, read)
                assert v.tobytes() == slow.bytes(vb), (k, dim, read)
                assert d.tobytes() == slow.random(n).tobytes(), (k, dim, read)
                read += 1
        assert read == trials


def test_session_report_independent_of_chunk_size(monkeypatch):
    # k = 33, dim = 5: c = 2 + 1 is odd, so half-words carry between trials.
    # 4099 trials: a ragged last chunk at every size.
    code = random_code(38, 5, seed=3)
    reports = []
    for chunk in (2, 6, experiments.SESSION_CHUNK):
        monkeypatch.setattr(experiments, "SESSION_CHUNK", chunk)
        reports.append(bewc.simulate_session(code, 0.6, trials=4099, seed=5))
    assert reports[0] == reports[1] == reports[2]
    # The kernel's step cuts the chunk too, made even: 1 → 2 and 7 → 6.
    for rows in (1, 7):
        monkeypatch.setattr(eq, "STEP_WORDS", rows * code.n)
        assert bewc.simulate_session(code, 0.6, trials=4099, seed=5) == reports[0], rows


def test_session_holds_one_step_of_drawn_words(monkeypatch):
    # At n = 1000 the kernel's step of 262 trials cuts the 2,048-trial chunk;
    # the report is bit for bit the one an uncut chunk gives.  The encoder's
    # big-int elimination runs 20x slower traced, so it is built untraced.
    code = random_code(1000, 4, seed=0)
    enc = coset.build_encoder(code)
    monkeypatch.setattr(coset, "build_encoder", lambda c: enc)
    tracemalloc.start()
    try:
        rep = bewc.simulate_session(code, 0.5, trials=4096, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 << 20, peak
    monkeypatch.setattr(eq, "STEP_WORDS", experiments.SESSION_CHUNK * code.n)
    assert rep == bewc.simulate_session(code, 0.5, trials=4096, seed=2)


def test_session_counts_bob_failures(monkeypatch):
    # A decoder that flips the low bit of one message per chunk must lower
    # Bob's success rate by exactly one trial per chunk: the chunk-wide
    # comparison is not vacuous.  k = 11, so a message spans two bytes and a
    # comparison that passed on any matching byte would miss the flip.
    decode = coset.decode

    def faulty(enc, y):
        out = decode(enc, y).copy()
        out[0, 0] ^= 1
        return out
    monkeypatch.setattr(coset, "decode", faulty)
    trials = 2 * experiments.SESSION_CHUNK + 5
    rep = bewc.simulate_session(bewc.simplex_base(4), 0.4, trials=trials, seed=1)
    assert rep.bob_success_rate == 1 - 3 / trials


def test_session_builds_each_table_once(monkeypatch):
    # `encode` and `decode` gather from the encoder's G', G and Hᵀ tables;
    # no chunk builds a table of its own.
    built = []
    init = gf2.ByteTables.__post_init__

    def counting(self):
        built.append(self.m)
        init(self)
    monkeypatch.setattr(gf2.ByteTables, "__post_init__", counting)
    code = bewc.hamming_base(4)
    bewc.simulate_session(code, 0.3, trials=3 * experiments.SESSION_CHUNK + 1, seed=0)
    assert len(built) == 3 and built[1] == code.G


def test_session_validates_arguments():
    h3 = bewc.hamming_base(3)
    with pytest.raises(ValueError, match=r"eps must be in \[0, 1\], got 1.5"):
        bewc.simulate_session(h3, 1.5, trials=10, seed=1)
    with pytest.raises(ValueError, match="need at least 2 trials, got 1"):
        bewc.simulate_session(h3, 0.3, trials=1, seed=1)


# ---------------------------------------------------------------- search

def test_exhaustive_search_small():
    grid = [0.1, 0.3, 0.5, 0.7, 0.9]
    res = bewc.exhaustive_search(4, 2, grid)
    assert res.count == codes.gaussian_binomial(4, 2) == 35
    assert res.classes.shape == (35,) and res.class_rates.shape == (res.classes.max() + 1, 5)
    rates = res.class_rates[res.classes]
    # Every curve respects the min(eps, R) bound.
    bound = np.minimum(grid, 2 / 4)
    assert np.all(rates <= bound + 1e-9)
    # argmax sets actually achieve the columnwise max.
    for j, s in enumerate(res.argmax_classes):
        top = rates[:, j].max()
        assert all(res.class_rates[c, j] >= top - 1e-12 for c in s)
    # Ranking is sorted by gap.
    gaps = [res.gaps[i] for i in res.ranking]
    assert gaps == sorted(gaps)


def test_exhaustive_search_guard():
    with pytest.raises(codes.GuardError):
        bewc.exhaustive_search(40, 20, [0.5])


@pytest.mark.parametrize("n, dim", [(20, 1), (22, 1), (2000, 1000), (8000, 4000)])
def test_exhaustive_search_guard_bounds_profile_cost(n, dim, monkeypatch):
    # (20,1) has only 2^20 − 1 subspaces, inside the enumeration guard, but
    # each costs a 2^20-subset rank profile: the search must refuse up front,
    # and at once even where the subspace count has thousands of digits.
    def no_profile(code):
        raise AssertionError("rank profile built before the guard")
    monkeypatch.setattr(eq, "rank_profile", no_profile)
    with pytest.raises(codes.GuardError):
        bewc.exhaustive_search(n, dim, [0.5])


def test_exhaustive_search_budget_admits_every_n8_shape():
    for dim in range(1, 8):
        assert codes.gaussian_binomial(8, dim) << 8 <= experiments.SEARCH_SUBSET_BUDGET


def test_exhaustive_search_matches_curve_and_gap_bit_for_bit():
    res = bewc.exhaustive_search(5, 2, eq.DEFAULT_GRID)
    assert res.count == 155
    for i in range(res.count):
        code = codes.from_generator(res.generator(i))
        assert np.array_equal(res.class_rates[res.classes[i]],
                              bewc.curve(code, eq.DEFAULT_GRID, "exact").rates())
        assert res.gaps[i] == bewc.achievability_gap(code, "exact").gap


@pytest.mark.parametrize("n, dim", [(n, d) for n in range(2, 7) for d in range(1, n)]
                         # (7,4) and (n, n − 1): H's key merges most, (7,3): G's
                         + [(7, 3), (7, 4), (9, 8), (10, 9)])
def test_exhaustive_search_matches_per_code_profiles(n, dim):
    # One profile per column multiset must give exactly what a profile of
    # every code gives, evaluated in one `equivocation_bits` call.
    grid = tuple(eq.DEFAULT_GRID)
    res = bewc.exhaustive_search(n, dim, grid)
    coeffs = [eq.coefficients(eq.rank_profile(codes.from_generator(res.generator(i))))
              for i in range(res.count)]
    bits = eq.equivocation_bits(coeffs, grid + ((n - dim) / n,)) / n
    rates, gaps = bits[:, :-1], (n - dim) / n - bits[:, -1]
    assert res.class_rates[res.classes].tobytes() == rates.tobytes()
    assert res.gaps.tobytes() == gaps.tobytes()
    tops = rates.max(axis=0)
    for j, s in enumerate(res.argmax_classes):
        assert list(s) == sorted(set(s))
        assert np.isin(res.classes, s).tolist() == (
            rates[:, j] >= tops[j] - experiments.ARGMAX_TIE_TOL).tolist()
    assert res.ranking == tuple(
        sorted(range(res.count), key=lambda i: (gaps[i], res.generator(i).rows)))


@pytest.mark.parametrize("n, dim", [(5, 2), (7, 4), (9, 8)])
def test_exhaustive_search_generators_are_enumeration_rows(n, dim):
    res = bewc.exhaustive_search(n, dim, [0.5])
    want = reference_subspaces(n, dim)
    assert isinstance(res.generators, np.ndarray)
    assert res.generators.dtype == np.int64 and res.generators.shape == (len(want), dim)
    assert res.generators.tolist() == [list(g.rows) for g in want]
    assert all(res.generator(i) == g for i, g in enumerate(want))


def test_exhaustive_search_indices_are_python_ints():
    res = bewc.exhaustive_search(5, 2, [0.2, 0.4, 0.6])
    assert all(type(c) is int for s in res.argmax_classes for c in s)
    assert all(type(i) is int for i in res.ranking)
    assert sorted(res.ranking) == list(range(res.count))


def per_code(res):
    """A search result's fields with its classes expanded to the codes: each
    code's rate row, and at each grid point the codes whose class is at the max."""
    facts = {f.name: getattr(res, f.name) for f in dataclasses.fields(res)
             if f.name not in ("classes", "class_rates", "argmax_classes")}
    facts["rates"] = res.class_rates[res.classes]
    facts["argmax_codes"] = tuple(tuple(np.flatnonzero(np.isin(res.classes, s)).tolist())
                                  for s in res.argmax_classes)
    return facts


def distinct_profiles(n, dim):
    """The number of distinct rank profiles among all (n, dim) codes, counted
    over one code per `_class_keys` key: codes that share a column key share
    a profile (`test_class_keys_never_merge_codes_with_different_profiles`)."""
    blocks = list(codes.enumerate_subspaces(n, dim))
    rows = np.concatenate([block.T for block in blocks])
    keys = np.concatenate([experiments._class_keys(block, n, dim) for block in blocks])
    _, first = np.unique(keys, return_index=True)
    return len({eq.rank_profile(codes.from_generator(gf2.BitMatrix(n, tuple(g)))).tobytes()
                for g in rows[first].tolist()})


def counting_calls(monkeypatch):
    """Count `rank_profile` and `from_generator` calls, as the search makes them."""
    calls = {"rank_profile": 0, "from_generator": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(eq, "rank_profile", counting("rank_profile", eq.rank_profile))
    monkeypatch.setattr(codes, "from_generator", counting("from_generator", codes.from_generator))
    return calls


@pytest.mark.parametrize("n, dim", [(6, 3), (7, 4), (7, 3), (13, 12)])
def test_exhaustive_search_profiles_each_profile_class_once(n, dim, monkeypatch):
    # (6,3) 22, (7,4) 43, (7,3) 43 and (13,12) 13 profiles.
    classes = distinct_profiles(n, dim)
    calls = counting_calls(monkeypatch)
    for _ in range(2):  # a second identical search profiles as much: no state is kept
        calls.update(rank_profile=0, from_generator=0)
        bewc.exhaustive_search(n, dim, [0.5])
        assert calls == {"rank_profile": classes, "from_generator": classes}


@pytest.mark.parametrize("n, dim", [(6, 3), (7, 3), (7, 4)])
def test_search_is_the_same_without_the_support_merge(n, dim, monkeypatch):
    # Each column key its own class: one profile per column multiset of the
    # smaller side (H when k ≤ dim, else G), and the same result.
    def side(g):
        return codes.from_generator(g).H if n - dim <= dim else g
    multisets = {tuple(sorted(gf2.column_ints(side(g)))) for g in enumerated_bases(n, dim)}
    assert len(multisets) > distinct_profiles(n, dim)
    want = bewc.exhaustive_search(n, dim, eq.DEFAULT_GRID)
    monkeypatch.setattr(experiments, "_support_keys", lambda keys, n, dim: keys[:, None])
    calls = counting_calls(monkeypatch)
    got = bewc.exhaustive_search(n, dim, eq.DEFAULT_GRID)
    assert calls == {"rank_profile": len(multisets), "from_generator": len(multisets)}
    got, want = per_code(got), per_code(want)
    assert got.keys() == want.keys()
    for name, b in want.items():
        a = got[name]
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name
        else:
            assert a == b, name


@pytest.mark.parametrize("block", [1, 3])
@pytest.mark.parametrize("n, dim", [(6, 3), (7, 3), (7, 4)])
def test_search_is_the_same_across_block_edges(n, dim, block, monkeypatch):
    # Blocks that end inside a pivot set's fills key their codes on their own.
    grid = [0.1, 0.3, 0.5, 0.7, 0.9]
    want = bewc.exhaustive_search(n, dim, grid)
    monkeypatch.setattr(codes, "SUBSPACE_BLOCK", block)
    got = bewc.exhaustive_search(n, dim, grid)
    for field in ("generators", "classes", "class_rates", "gaps"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), field
    assert got.argmax_classes == want.argmax_classes
    assert got.ranking == want.ranking


def test_search_is_the_same_in_small_evaluator_blocks(monkeypatch):
    # STEP_WORDS = 24 evaluates the 100 points (the grid and ε = R) three at a time.
    want = bewc.exhaustive_search(7, 4, eq.DEFAULT_GRID)
    monkeypatch.setattr(eq, "STEP_WORDS", 24)
    got = bewc.exhaustive_search(7, 4, eq.DEFAULT_GRID)
    for f in dataclasses.fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), f.name
        else:
            assert a == b, f.name


def test_search_8_4_profiles_each_profile_class_once(monkeypatch):
    # Pivots {0, 1, 2, 3} have 2^16 fills, so they span 16 default blocks;
    # the 200,787 codes fall into 3,876 column keys and 106 profile classes.
    classes = distinct_profiles(8, 4)
    calls = counting_calls(monkeypatch)
    res = bewc.exhaustive_search(8, 4, [0.5])
    assert res.count == 200787 and res.class_rates.shape == (classes, 1) == (106, 1)
    assert calls == {"rank_profile": classes, "from_generator": classes}


def test_exhaustive_search_holds_no_per_code_rows():
    # One rate row per profile class, no (codes, grid) array and no per-code
    # argmax tuple: the call peaks near 1.6 MB, and a float64 row per code
    # alone would be 11,811 × 99 × 8 B = 9.4 MB.
    tracemalloc.start()
    try:
        res = bewc.exhaustive_search(7, 4, eq.DEFAULT_GRID)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.class_rates.shape == (43, len(eq.DEFAULT_GRID))
    assert peak < 4 << 20, peak


@pytest.mark.parametrize("n, dim", [(n, d) for n in range(2, 7) for d in range(1, n)])
def test_class_keys_never_merge_codes_with_different_profiles(n, dim):
    # Each code's profile by brute force: (|S|, rank of G's columns in S) over
    # every subset S of positions.  Codes that share a column key or a merged
    # class must share it, and codes that share it must share a merged class.
    bases = enumerated_bases(n, dim)
    keys = np.concatenate([experiments._class_keys(block, n, dim)
                           for block in codes.enumerate_subspaces(n, dim)])
    merged = map(tuple, experiments._support_keys(keys, n, dim).tolist())
    by_key, by_class, by_profile = {}, {}, {}
    for key, cls, g in zip(keys.tolist(), merged, bases):
        cols = gf2.column_ints(g)
        profile = tuple(sorted((s.bit_count(), gf2.masked_rank(cols, s)) for s in range(1 << n)))
        assert by_key.setdefault(key, profile) == profile, (n, dim, g)
        assert by_class.setdefault(cls, profile) == profile, (n, dim, g)
        assert by_profile.setdefault(profile, cls) == cls, (n, dim, g)


# ---------------------------------------------------------------- ensembles

def test_ensemble_single_code_degenerate():
    ref = bewc.hamming_base(3)
    rep = bewc.ensemble_study(7, 4, 0.5, num_codes=1, grid=[0.3, 0.5],
                              trials=2000, seed=1, reference=ref)
    assert np.allclose(rep.mean_rates, rep.best_rates)
    assert np.allclose(rep.mean_rates, rep.worst_rates)
    assert np.all(rep.ci95_halfwidth == 0.0)


def test_ensemble_envelopes_bound_members():
    ref = bewc.hamming_base(3)
    rep = bewc.ensemble_study(7, 4, 0.5, num_codes=4, grid=[0.2, 0.5, 0.8],
                              trials=2000, seed=2, reference=ref)
    member = np.array([cv.rates() for cv in rep.member_curves])
    assert np.all(rep.worst_rates <= member + 1e-15)
    assert np.all(member <= rep.best_rates + 1e-15)
    assert np.all(rep.worst_rates <= rep.mean_rates)
    assert np.all(rep.mean_rates <= rep.best_rates)
    assert np.all(rep.ci95_halfwidth >= 0.0)


def test_ensemble_deterministic():
    ref = bewc.hamming_base(3)
    kw = dict(n=7, dim=4, alpha=0.5, num_codes=2, grid=[0.4],
              trials=1000, seed=3, reference=ref)
    a = bewc.ensemble_study(**kw)
    b = bewc.ensemble_study(**kw)
    assert np.array_equal(a.mean_rates, b.mean_rates)
    assert a.member_curves == b.member_curves


def test_ensemble_is_the_same_on_any_pool(pool):
    # 2·10^4 trials are two batches, so each point runs on the pool.
    kw = dict(n=31, dim=26, alpha=0.5, num_codes=2, grid=[0.2, 0.6], trials=2 * 10**4, seed=5,
              reference=bewc.hamming_base(5))
    a, b = bewc.ensemble_study(**kw), bewc.ensemble_study(**kw, pool=pool)
    assert a.member_curves == b.member_curves and a.reference_curve == b.reference_curve
    for field in ("mean_rates", "best_rates", "worst_rates", "ci95_halfwidth"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field


# ---------------------------------------------------------------- sweeps

def test_family_sweep_exact_small():
    reports = bewc.family_sweep("hamming", [3, 4], method="exact", seed=1)
    assert [r.method for r in reports] == ["exact", "exact"]
    assert reports[0].rate == pytest.approx(3 / 7)
    assert reports[1].rate == pytest.approx(4 / 15)
    assert reports[1].gap < reports[0].gap  # gap shrinks with blocklength


def test_family_sweep_guard_and_override(monkeypatch):
    # Every family code fits the support profile's budget; with a budget below
    # hamming-5's 4,470 units, auto samples it and exact is refused.
    assert bewc.family_sweep("hamming", [5], method="mc", trials=100, seed=1)[0].method == "mc"
    monkeypatch.setattr(eq, "SUPPORT_PROFILE_BUDGET", 4469)
    reports = bewc.family_sweep("hamming", [5], trials=100, seed=1)
    assert reports[0].method == "mc"
    with pytest.raises(codes.GuardError):
        bewc.family_sweep("hamming", [5], method="exact", seed=1)


# Each n = 31 and 63 row was Monte Carlo before the support profile made it
# exact: (Ag, standard error of Ag) of criteria 3 and 4 (10^6 trials), of the
# gap-table benchmark's seed-0 reference (5·10^4 trials; stddev/(n·√trials)),
# and, for hamming-5, of the `sweep` output pin (2,000 trials).
OLD_MC_ROWS = {
    ("hamming", 5): [(0.03174696774193547, 3.553424841924016e-05),
                     (0.031791612903225824, 1.1024859263974114 / (31 * 50_000**0.5)),
                     (0.031612903225806455, 0.0007974370709852066)],
    ("hamming", 6): [(0.018108015873015873, 1.9753561703466626e-05),
                     (0.018077777777777762, 1.2420296464870937 / (63 * 50_000**0.5))],
    ("simplex", 5): [(0.03175341935483866, 4.097532160972853e-05),
                     (0.0318187096774194, 1.2752517480640515 / (31 * 50_000**0.5))],
    ("simplex", 6): [(0.0180798253968254, 2.287153434376117e-05),
                     (0.018081904761904743, 1.4453222040519098 / (63 * 50_000**0.5))],
}
# Criteria 3 and 4: published value ± tolerance.
CRITERION_WINDOWS = {("hamming", 5): (0.0311, 0.003), ("hamming", 6): (0.0181, 0.003),
                     ("simplex", 5): (0.0305, 0.003), ("simplex", 6): (0.0179, 0.003)}


@pytest.mark.parametrize("family", ["hamming", "simplex"])
def test_family_sweep_exact_rows_match_their_old_mc_rows(family):
    for r, rep in zip([5, 6], bewc.family_sweep(family, [5, 6])):
        assert rep.method == "exact"
        for gap, stderr in OLD_MC_ROWS[family, r]:
            assert abs(rep.gap - gap) <= 5 * stderr, (r, gap)
        centre, tol = CRITERION_WINDOWS[family, r]
        assert abs(rep.gap - centre) <= tol


def test_family_sweep_unknown_family():
    with pytest.raises(ValueError):
        bewc.family_sweep("golay", [3])


@pytest.mark.parametrize("grid, message", [
    ([1.5, 0.2, 0.1], "grid values must lie in [0, 1]"),
    ([-0.1, 0.5], "grid values must lie in [0, 1]"),
    ([0.5, 0.2], "grid must be strictly increasing"),
    ([0.3, 0.3], "grid must be strictly increasing"),
])
def test_exhaustive_search_rejects_bad_grid(grid, message):
    with pytest.raises(ValueError) as err:
        bewc.exhaustive_search(4, 2, grid)
    assert str(err.value) == message
