"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.

Criteria 1, 2 and the n=15 part of 3 assert exact rationals, not the published
table values 0.0812 (Hamming n=7), 0.0779 (simplex n=7) and 0.0723 (Hamming
n=15). Those three cannot all be right: for any code C,
E_{C⊥}(1−ε) = E_C(ε) + n(1−ε) − k, which at ε = R gives Ag(C⊥) = Ag(C), and
the Hamming and simplex codes are duals, yet the table gives them different
gaps at n=7 and n=15. The targets Ag = 463104/7^8 (both n=7 codes) and
347260440611181504/15^16 (Hamming n=15) are derived independently by
`conftest.exact_gap_by_dual_count`, which counts dual codewords by brute force
and uses no rank routine; the 3^7 ternary enumeration frozen in
test_equivocation.py gives the same n=7 value. The published values that
agree with these (simplex n=15, both families at n=31 and 63) stay as targets.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

import bewc
from bewc import cli, codes, equivocation as eq
from bewc.codes import derive_seed
from bewc.gf2 import pack, unpack
from conftest import (all_observations, exact_gap_by_dual_count, from_strings, observation,
                      observation_equivocation_oracle, pattern_equivocation, random_code)

GRID = [round(0.01 * i, 2) for i in range(1, 100)]
# Exact Ag at ε = R: Hamming and simplex n=7 (equal by duality), Hamming n=15.
GAP_7 = Fraction(463104, 7**8)
GAP_HAMMING_15 = Fraction(347260440611181504, 15**16)


def report(num: int, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


# ---------------------------------------------------------------- shared work

@pytest.fixture(scope="module")
def search74():
    return bewc.exhaustive_search(7, 4, GRID)


@pytest.fixture(scope="module")
def search73():
    return bewc.exhaustive_search(7, 3, GRID)


@pytest.fixture(scope="module")
def exact_curves():
    out = {}
    for name, code in [
        ("hamming-3", bewc.hamming_base(3)),
        ("simplex-3", bewc.simplex_base(3)),
        ("hamming-4", bewc.hamming_base(4)),
        ("simplex-4", bewc.simplex_base(4)),
    ]:
        out[name] = (code, bewc.curve(code, GRID, method="exact"))
    return out


# ---------------------------------------------------------------- criteria

def test_criterion_1_hamming7_exact_gap():
    t0 = time.perf_counter()
    code = bewc.hamming_base(3)
    rep = bewc.achievability_gap(code, method="exact")
    dt = time.perf_counter() - t0
    derived = exact_gap_by_dual_count(code)
    ok = derived == GAP_7 and abs(rep.gap - GAP_7) <= 1e-12 and dt < 1.0
    assert report(
        1, ok,
        f"hamming n=7 exact Ag={rep.gap:.12f} (target 463104/7^8 = {float(GAP_7):.12f}±1e-12, "
        f"dual count {derived}; published 0.0812), {dt:.3f}s",
    )


def test_criterion_2_simplex7_exact_gap():
    t0 = time.perf_counter()
    code = bewc.simplex_base(3)
    rep = bewc.achievability_gap(code, method="exact")
    dt = time.perf_counter() - t0
    derived = exact_gap_by_dual_count(code)
    ok = derived == GAP_7 and abs(rep.gap - GAP_7) <= 1e-12 and dt < 1.0
    assert report(
        2, ok,
        f"simplex n=7 exact Ag={rep.gap:.12f} (target 463104/7^8 = {float(GAP_7):.12f}±1e-12, "
        f"dual count {derived}; published 0.0779), {dt:.3f}s",
    )


def test_criterion_3_hamming_family_rows():
    t0 = time.perf_counter()
    h15 = bewc.hamming_base(4)
    g15 = bewc.achievability_gap(h15, method="exact").gap
    dt15 = time.perf_counter() - t0
    t0 = time.perf_counter()
    g31 = bewc.achievability_gap(bewc.hamming_base(5), method="mc", trials=10**6, seed=31).gap
    g63 = bewc.achievability_gap(bewc.hamming_base(6), method="mc", trials=10**6, seed=63).gap
    dt_mc = time.perf_counter() - t0
    derived15 = exact_gap_by_dual_count(h15)
    ok15 = derived15 == GAP_HAMMING_15 and abs(g15 - GAP_HAMMING_15) <= 1e-12 and dt15 < 10.0
    ok31 = abs(g31 - 0.0311) <= 0.003
    ok63 = abs(g63 - 0.0181) <= 0.003
    ok = ok15 and ok31 and ok63 and dt_mc < 600.0
    assert report(
        3, ok,
        f"hamming Ag: n=15 {g15:.12f} (347260440611181504/15^16 = "
        f"{float(GAP_HAMMING_15):.12f}±1e-12, published 0.0723, {'ok' if ok15 else 'FAIL'}), "
        f"n=31 {g31:.4f} (0.0311±0.003, {'ok' if ok31 else 'FAIL'}), "
        f"n=63 {g63:.4f} (0.0181±0.003, {'ok' if ok63 else 'FAIL'}); "
        f"times {dt15:.1f}s / {dt_mc:.1f}s",
    )


def test_criterion_4_simplex_family_rows():
    g15 = bewc.achievability_gap(bewc.simplex_base(4), method="exact").gap
    g31 = bewc.achievability_gap(bewc.simplex_base(5), method="mc", trials=10**6, seed=131).gap
    g63 = bewc.achievability_gap(bewc.simplex_base(6), method="mc", trials=10**6, seed=163).gap
    ok = (abs(g15 - 0.0526) <= 0.002 and abs(g31 - 0.0305) <= 0.003
          and abs(g63 - 0.0179) <= 0.003)
    assert report(
        4, ok,
        f"simplex Ag: n=15 {g15:.4f} (0.0526±0.002), n=31 {g31:.4f} (0.0305±0.003), "
        f"n=63 {g63:.4f} (0.0179±0.003)",
    )


def _family_index(res, family_code):
    canon = codes.canonical_generator(family_code.G)
    return next(i for i in range(res.count) if res.generator(i).rows == canon.rows)


def test_criterion_5_exhaustive_optimality(search74, search73):
    t0 = time.perf_counter()
    checks = []
    for res, fam in [(search74, bewc.hamming_base(3)), (search73, bewc.simplex_base(3))]:
        idx = _family_index(res, fam)
        in_argmax = all(res.classes[idx] in s for s in res.argmax_classes)
        min_gap = res.gaps.min()
        minimizes = res.gaps[idx] <= min_gap + 1e-12
        checks.append((res.count == 11811, in_argmax, minimizes))
    dt = time.perf_counter() - t0
    ok = all(all(c) for c in checks)
    assert report(
        5, ok,
        f"(7,4) and (7,3): counts 11811, family in per-eps argmax everywhere, "
        f"family minimizes Ag: {checks} (search cached, check {dt:.2f}s)",
    )


def test_criterion_6_theorem_oracle_equivalence():
    rng = np.random.default_rng(606)
    mismatches = 0
    total_obs = 0
    for trial in range(200):
        n = 4 + trial % 7  # cycles 4..10
        dim = int(rng.integers(1, n))
        code = random_code(n, dim, seed=60000 + trial)
        book = bewc.codebook(code)
        if n <= 8:
            observations = all_observations(n)
        else:
            observations = [observation("".join(rng.choice(list("01?"), size=n)))
                            for _ in range(1000)]
        # The rank formula depends on the mask alone: once per distinct mask.
        formula = {mask: pattern_equivocation(code, mask)
                   for mask in {mask for mask, _ in observations}}
        for mask, word in observations:
            total_obs += 1
            if observation_equivocation_oracle(code, mask, word, book) != formula[mask]:
                mismatches += 1
    ok = mismatches == 0
    assert report(6, ok, f"200 codes, {total_obs} observations, {mismatches} mismatches")


def test_criterion_7_exact_vs_ternary():
    eps_values = (0.1, 0.3, 0.5, 0.7, 0.9)
    worst = 0.0
    for trial in range(50):
        n = 4 + trial % 5  # cycles 4..8
        dim = int(np.random.default_rng(700 + trial).integers(1, n))
        code = random_code(n, dim, seed=70000 + trial)
        book = bewc.codebook(code)
        # Entropy per observation once; probability weights per eps after.
        per_obs = [(mask.bit_count(), observation_equivocation_oracle(code, mask, word, book))
                   for mask, word in all_observations(n)]
        prof = bewc.rank_profile(code)
        for eps in eps_values:
            brute = sum(
                eps ** (n - mu) * (1 - eps) ** mu / 2**mu * h for mu, h in per_obs
            )
            worst = max(worst, abs(brute - bewc.exact_equivocation(prof, eps)))
    ok = worst <= 1e-10
    assert report(7, ok, f"50 codes × 5 eps, worst |exact − ternary| = {worst:.2e} bits")


def test_criterion_8_unbiasedness():
    h3 = bewc.hamming_base(3)
    exact = bewc.exact_equivocation(bewc.rank_profile(h3), 0.3)
    means = [
        bewc.mc_equivocation(h3, 0.3, 1000, seed=derive_seed(8, i)).mean
        for i in range(200)
    ]
    grand = float(np.mean(means))
    gse = float(np.std(means, ddof=1) / math.sqrt(len(means)))
    ok = abs(grand - exact) <= 4 * gse
    assert report(
        8, ok,
        f"grand mean {grand:.5f} vs exact {exact:.5f}, |Δ| = "
        f"{abs(grand - exact):.5f} ≤ 4·gse = {4 * gse:.5f}",
    )


def test_criterion_9_bounds_monotonicity_concavity(exact_curves, search74, search73):
    ok = True
    details = []
    for name, (code, cv) in exact_curves.items():
        rates = cv.rates()
        bound = np.minimum(GRID, code.rate)
        b = bool(np.all(rates <= bound + 1e-9))
        m = bool(np.all(np.diff(rates) >= -1e-12))
        c = bool(np.all(np.diff(rates, 2) <= 1e-9))
        ok &= b and m and c
        details.append(f"{name}: bound={b} monotone={m} concave={c}")
    for res, label in [(search74, "(7,4)"), (search73, "(7,3)")]:
        bound = np.minimum(GRID, (res.n - res.dim) / res.n)
        rates = res.class_rates[res.classes]
        b = bool(np.all(rates <= bound[None, :] + 1e-9))
        m = bool(np.all(np.diff(rates, axis=1) >= -1e-12))
        c = bool(np.all(np.diff(rates, 2, axis=1) <= 1e-9))
        ok &= b and m and c
        details.append(f"all {label} curves: bound={b} monotone={m} concave={c}")
    assert report(9, ok, "; ".join(details))


def test_criterion_10_codec_correctness():
    exhaustive_ok = True
    small = [
        bewc.from_generator(from_strings(["1001", "0110"]), "ex1"),
        bewc.hamming_base(3),
        bewc.simplex_base(3),
        random_code(9, 4, seed=10),
        random_code(10, 6, seed=11),
    ]
    for code in small:
        enc = bewc.build_encoder(code)
        pairs = [(m, v) for m in range(1 << code.k) for v in range(1 << code.dim)]
        ms, vs = [m for m, _ in pairs], [v for _, v in pairs]
        x = bewc.encode(enc, pack(ms, code.k), pack(vs, code.dim))
        exhaustive_ok &= unpack(bewc.decode(enc, x)) == ms
    random_ok = True
    rng = np.random.default_rng(1010)
    for code in (bewc.hamming_base(4), bewc.hamming_base(5), bewc.hamming_base(6)):
        enc = bewc.build_encoder(code)
        ms, vs = [], []
        for _ in range(10**4):
            ms.append(int(rng.integers(0, 1 << code.k)))
            vs.append(int.from_bytes(rng.bytes(8), "little") & ((1 << code.dim) - 1))
        x = bewc.encode(enc, pack(ms, code.k), pack(vs, code.dim))
        random_ok &= unpack(bewc.decode(enc, x)) == ms
    session = bewc.simulate_session(bewc.hamming_base(3), 0.35, trials=10**5, seed=12)
    session_ok = session.bob_success_rate == 1.0
    ok = exhaustive_ok and random_ok and session_ok
    assert report(
        10, ok,
        f"exhaustive={exhaustive_ok}, 3×10^4 random n∈{{15,31,63}}={random_ok}, "
        f"bob success over 10^5 trials={session.bob_success_rate}",
    )


def test_criterion_11_ensemble_direction():
    results = []
    for dim, ref in [(26, bewc.hamming_base(5)), (5, bewc.simplex_base(5))]:
        r = ref.rate if dim == 26 else bewc.simplex_base(5).rate
        rep = bewc.ensemble_study(
            n=31, dim=dim, alpha=0.5, num_codes=10, grid=[r],
            trials=10**5, seed=1100 + dim, reference=ref,
        )
        ref_rate = float(rep.reference_curve.rates()[0])
        floor = float(rep.mean_rates[0] - rep.ci95_halfwidth[0])
        results.append((ref.name, ref_rate, floor, ref_rate >= floor))
    ok = all(r[3] for r in results)
    assert report(
        11, ok,
        "; ".join(f"{name}: ref {rr:.5f} ≥ mean−ci {fl:.5f} = {good}"
                  for name, rr, fl, good in results),
    )


def test_criterion_12_determinism(tmp_path, capsys):
    cases = [
        ["gap", "--family", "hamming", "--r", "5", "--method", "mc",
         "--trials", "100000", "--seed", "12", "--format", "json"],
        ["curve", "--family", "simplex", "--r", "3", "--method", "exact",
         "--grid", "99"],
    ]
    ok = True
    for i, base in enumerate(cases):
        a = tmp_path / f"a{i}.out"
        b = tmp_path / f"b{i}.out"
        assert cli.main(base + ["-o", str(a), "--threads", "1"]) == 0
        assert cli.main(base + ["-o", str(b), "--threads", "4"]) == 0
        ok &= a.read_bytes() == b.read_bytes()
    capsys.readouterr()  # swallow the CLI summary lines
    assert report(12, ok, "mc gap and exact curve outputs byte-identical across reruns and thread counts")
