"""Output checks for the benchmark workloads.

Every function here works on plain data (JSON text, lists of floats), so
the checks can be tested without running the program.  Two kinds of check
run on each job's outputs:

- seed-independent identities (code duality, Hamming/simplex gap equality,
  search counts, session decoding), run at every seed;
- comparison with the outputs recorded from the seed commit in
  ``reference/``, run only when the run's seed is the recorded seed:
  Monte Carlo values bit for bit, exact values within ``EXACT_TOL``.  A row
  whose method moved from ``mc`` to ``exact`` passes if it lies within
  ``MOVED_SIGMAS`` recorded standard errors of the recorded MC value.

Each compared value counts as one attempted output; the failed share is
``failed / attempted``.
"""

from __future__ import annotations

import json
import math

import numpy as np

EXACT_TOL = 1e-12
MOVED_SIGMAS = 5.0
SEARCH_COUNT = 11811  # Gaussian binomial [7 choose 4]_2 = [7 choose 3]_2
GAP_CLASS_TOL = 1e-9
MAX_MESSAGES = 20


class Checker:
    """Counts attempted and failed comparisons; keeps the first messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < MAX_MESSAGES:
                self.messages.append(what)
        return ok

    def close(self, actual: float, expected: float, tol: float, what: str) -> bool:
        # abs(...) <= tol is False for NaN, so a NaN output always fails.
        return self.check(
            abs(actual - expected) <= tol,
            f"{what}: {actual!r} vs {expected!r} (tol {tol:g})",
        )

    def close_all(self, actual, expected, tol: float, what: str) -> None:
        """Element-wise close(); each element counts as one output."""
        a = np.asarray(actual, dtype=float)
        e = np.asarray(expected, dtype=float)
        if not self.check(a.shape == e.shape, f"{what}: shape {a.shape} vs {e.shape}"):
            return
        bad = np.flatnonzero(~(np.abs(a - e) <= tol))
        self.attempted += a.size - 1  # the shape check above counted one
        self.failed += len(bad)
        for i in bad[: MAX_MESSAGES - len(self.messages)]:
            self.messages.append(f"{what}[{i}]: {float(a[i])!r} vs {float(e[i])!r} (tol {tol:g})")


def compare_tree(c: Checker, actual, expected, tol: float, what: str) -> None:
    """Compare two parsed JSON values leaf by leaf; floats within tol."""
    if isinstance(expected, dict):
        if c.check(isinstance(actual, dict) and actual.keys() == expected.keys(),
                   f"{what}: keys differ"):
            for key in expected:
                compare_tree(c, actual[key], expected[key], tol, f"{what}.{key}")
    elif isinstance(expected, list):
        if c.check(isinstance(actual, list) and len(actual) == len(expected),
                   f"{what}: length differs"):
            for i, (a, e) in enumerate(zip(actual, expected)):
                compare_tree(c, a, e, tol, f"{what}[{i}]")
    elif isinstance(expected, float) and isinstance(actual, (int, float)) \
            and not isinstance(actual, bool):
        c.close(actual, expected, tol, what)
    else:
        c.check(type(actual) is type(expected) and actual == expected,
                f"{what}: {actual!r} vs {expected!r}")


def compare_mc_file(c: Checker, text: str, ref_text: str, what: str) -> None:
    """A file of Monte Carlo results: byte-identical, and every value equal."""
    c.check(text == ref_text, f"{what}: bytes differ from the reference")
    compare_tree(c, json.loads(text), json.loads(ref_text), 0.0, what)


def mirrored(values):
    """Values at 1 − ε on a grid symmetric about 1/2 (ε_i ↔ ε_{m−1−i})."""
    return list(values)[::-1]


def check_duality(c: Checker, eps, bits, dual_bits, n: int, k: int, what: str) -> None:
    """E_{C⊥}(1 − ε) = E_C(ε) + n(1 − ε) − k at every grid point."""
    c.close_all(
        mirrored(dual_bits),
        [b + n * (1.0 - e) - k for e, b in zip(eps, bits)],
        EXACT_TOL,
        f"{what} duality",
    )


def check_params(c: Checker, params: dict, ref: dict) -> None:
    c.check(params == ref["params"], f"sizes {params} differ from the reference's {ref['params']}")


# ---------------------------------------------------------------- gap-table


def mc_gap_stderr(stddev: float, n: int, trials: int) -> float:
    """Standard error of a gap estimated from `trials` patterns of a length-n code."""
    return stddev / (n * math.sqrt(trials))


def check_gap_table(c: Checker, files: dict, params: dict, ref: dict, at_ref: bool) -> None:
    trials = params["sweep_trials"]
    stddev = ref["mc_stddev"]
    sweeps = {fam: json.loads(files[f"sweep-{fam}.json"]) for fam in ("hamming", "simplex")}
    for h, s in zip(sweeps["hamming"]["rows"], sweeps["simplex"]["rows"]):
        n = h["blocklength"]
        what = f"Ag hamming vs simplex, n={n}"
        if not c.check(n == s["blocklength"], f"{what}: blocklengths differ"):
            continue
        if h["method"] == "exact" and s["method"] == "exact":
            c.close(h["Ag"], s["Ag"], EXACT_TOL, what)
        else:
            se = [
                mc_gap_stderr(stddev[fam][str(n)], n, trials) if row["method"] == "mc" else 0.0
                for fam, row in (("hamming", h), ("simplex", s))
            ]
            c.close(h["Ag"], s["Ag"], MOVED_SIGMAS * math.hypot(*se), what)

    ens = json.loads(files["ensemble.json"])
    # The reference code, hamming-5, has the ensemble's n and k, so R bounds both.
    rate = (params["ensemble_n"] - params["ensemble_dim"]) / params["ensemble_n"]
    for p in ens["points"]:
        what = f"ensemble at eps={p['epsilon']}"
        c.check(0.0 <= p["worst_rate"] <= p["mean_rate"] <= p["best_rate"] <= rate,
                f"{what}: need 0 <= worst <= mean <= best <= R, got {p}")
        c.check(0.0 <= p["reference_rate"] <= rate, f"{what}: reference rate {p['reference_rate']}")

    if not at_ref:
        return
    check_params(c, params, ref)
    for fam, doc in sweeps.items():
        ref_doc = json.loads(ref["files"][f"sweep-{fam}.json"])
        compare_tree(c, doc["config"], ref_doc["config"], 0.0, f"sweep-{fam} config")
        if not c.check(len(doc["rows"]) == len(ref_doc["rows"]), f"sweep-{fam}: row count"):
            continue
        for row, ref_row in zip(doc["rows"], ref_doc["rows"]):
            n = ref_row["blocklength"]
            what = f"sweep-{fam} n={n}"
            c.check(row["blocklength"] == n, f"{what}: blocklength {row['blocklength']}")
            c.close(row["R"], ref_row["R"], EXACT_TOL, f"{what} R")
            if row["method"] == ref_row["method"]:
                tol = EXACT_TOL if row["method"] == "exact" else 0.0
            elif (row["method"], ref_row["method"]) == ("exact", "mc"):
                tol = MOVED_SIGMAS * mc_gap_stderr(stddev[fam][str(n)], n, trials)
            else:
                c.check(False, f"{what}: method {ref_row['method']} -> {row['method']}")
                continue
            c.close(row["Ag"], ref_row["Ag"], tol, f"{what} Ag")
    compare_mc_file(c, files["ensemble.json"], ref["files"]["ensemble.json"], "ensemble.json")


# ---------------------------------------------------------------- exact


def check_exact(c: Checker, out: dict, params: dict, ref: dict, at_ref: bool) -> None:
    eps = params["grid"]
    for i in range(params["codes"]):
        code, dual = out[f"code-{i}"], out[f"dual-{i}"]
        check_duality(c, eps, code["bits"], dual["bits"], code["n"], code["k"], f"random code {i}")
        c.close(code["gap"], dual["gap"], EXACT_TOL, f"Ag(C) vs Ag(C⊥), random code {i}")

    curves = {
        name: json.loads(text)["points"] for name, text in out["files"].items()
    }
    h, s = curves["curve-hamming-4.json"], curves["curve-simplex-4.json"]
    check_duality(c, [p["eps"] for p in h], [p["bits"] for p in h],
                  [p["bits"] for p in s], 15, 4, "hamming-4/simplex-4 curves")

    if not at_ref:
        return
    check_params(c, params, ref)
    for label, ref_out in ref["outputs"].items():
        compare_tree(c, out[label], ref_out, EXACT_TOL, label)
    for name, text in out["files"].items():
        compare_tree(c, json.loads(text), json.loads(ref["files"][name]), EXACT_TOL, name)


# ---------------------------------------------------------------- search


def gap_classes(gaps) -> list[list]:
    """Sorted gaps grouped into [smallest value, count] runs 1e-9 apart."""
    classes: list[list] = []
    for g in sorted(float(x) for x in gaps):
        if classes and g - classes[-1][2] <= GAP_CLASS_TOL:
            classes[-1][1] += 1
            classes[-1][2] = g
        else:
            classes.append([g, 1, g])
    return [[lo, count] for lo, count, _ in classes]


def check_search(c: Checker, out: dict, params: dict, ref: dict, at_ref: bool) -> None:
    for key, res in out.items():
        c.check(res["count"] == SEARCH_COUNT, f"search {key}: {res['count']} codes")
    a, b = (np.sort(np.asarray(res["gaps"], dtype=float)) for res in out.values())
    c.close_all(a, b, EXACT_TOL, "sorted Ag, (7,4) vs (7,3)")

    if not at_ref:
        return
    check_params(c, params, ref)
    for key, res in out.items():
        got, want = gap_classes(res["gaps"]), ref["gap_classes"][key]
        if c.check(len(got) == len(want), f"search {key}: {len(got)} gap classes, want {len(want)}"):
            c.close_all([g for g, _ in got], [w for w, _ in want], EXACT_TOL, f"search {key} class Ag")
            c.check([n for _, n in got] == [n for _, n in want], f"search {key}: class sizes differ")


# ---------------------------------------------------------------- session


def check_session(c: Checker, files: dict, params: dict, exact_bits: dict,
                  ref: dict, at_ref: bool) -> None:
    """exact_bits maps each output file to the exact equivocation of its run."""
    for name, text in files.items():
        rep = json.loads(text)
        c.check(rep["bob_success_rate"] == 1.0, f"{name}: bob_success_rate {rep['bob_success_rate']}")
        c.check(rep["trials"] == params["trials"], f"{name}: trials {rep['trials']}")
        c.close(rep["mean_equivocation"], exact_bits[name], MOVED_SIGMAS * rep["stderr"],
                f"{name}: mean vs exact equivocation")
    if not at_ref:
        return
    check_params(c, params, ref)
    for name, text in files.items():
        compare_mc_file(c, text, ref["files"][name], name)
