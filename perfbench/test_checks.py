"""Negative tests for the benchmark's output checks.

They feed the recorded reference outputs, unchanged and then perturbed,
through the same check functions the benchmark runs, so they need no bewc
run:  python3 -m pytest perfbench/test_checks.py
"""

import copy
import json
import math
from pathlib import Path

import checks

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def reference(name: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{name}.json").read_text())


def exact_outputs(ref: dict) -> dict:
    return {**copy.deepcopy(ref["outputs"]), "files": dict(ref["files"])}


def run_exact(out: dict, ref: dict) -> checks.Checker:
    c = checks.Checker()
    checks.check_exact(c, out, ref["params"], ref, at_ref=True)
    return c


def test_exact_reference_passes_and_1e9_perturbation_is_counted():
    ref = reference("exact")
    c = run_exact(exact_outputs(ref), ref)
    assert c.attempted > 0 and c.failed == 0, c.messages

    out = exact_outputs(ref)
    out["code-0"]["bits"][40] += 1e-9
    c = run_exact(out, ref)
    # Caught by the reference comparison and by the duality identity.
    assert c.failed == 2
    assert 0 < c.failed / c.attempted < 1


def session_files(ref: dict, name: str, **changes) -> dict:
    files = dict(ref["files"])
    doc = json.loads(files[name])
    doc.update(changes)
    files[name] = json.dumps(doc, indent=2) + "\n"
    return files


def run_session(files: dict, ref: dict) -> checks.Checker:
    exact_bits = {name: json.loads(text)["mean_equivocation"] for name, text in ref["files"].items()}
    c = checks.Checker()
    checks.check_session(c, files, ref["params"], exact_bits, ref, at_ref=True)
    return c


def test_session_mc_mean_must_match_bit_for_bit():
    ref = reference("session")
    name = "simulate-hamming-3.json"
    c = run_session(dict(ref["files"]), ref)
    assert c.attempted > 0 and c.failed == 0, c.messages

    mean = json.loads(ref["files"][name])["mean_equivocation"]
    c = run_session(session_files(ref, name, mean_equivocation=math.nextafter(mean, 1.0)), ref)
    # One ulp moves it by far less than a standard error, so only the bit
    # comparison (bytes and value) catches it.
    assert c.failed == 2
    assert all(name in m for m in c.messages)


def sweep_files(ref: dict, fam: str, n: int, **changes) -> dict:
    files = dict(ref["files"])
    doc = json.loads(files[f"sweep-{fam}.json"])
    row = next(r for r in doc["rows"] if r["blocklength"] == n)
    row.update(changes)
    files[f"sweep-{fam}.json"] = json.dumps(doc, indent=2) + "\n"
    return files


def run_gap_table(files: dict, ref: dict, at_ref: bool) -> checks.Checker:
    c = checks.Checker()
    checks.check_gap_table(c, files, ref["params"], ref, at_ref)
    return c


def test_sweep_mc_row_bit_identity_and_move_to_exact():
    ref = reference("gap-table")
    assert run_gap_table(dict(ref["files"]), ref, at_ref=True).failed == 0

    row = next(r for r in json.loads(ref["files"]["sweep-hamming.json"])["rows"]
               if r["blocklength"] == 31)
    assert row["method"] == "mc"
    ag = row["Ag"]
    c = run_gap_table(sweep_files(ref, "hamming", 31, Ag=math.nextafter(ag, 1.0)), ref, True)
    assert c.failed == 1 and "sweep-hamming n=31 Ag" in c.messages[0]

    se = checks.mc_gap_stderr(ref["mc_stddev"]["hamming"]["31"], 31, ref["params"]["sweep_trials"])
    moved = sweep_files(ref, "hamming", 31, method="exact", Ag=ag + se)
    assert run_gap_table(moved, ref, True).failed == 0
    moved = sweep_files(ref, "hamming", 31, method="exact", Ag=ag + 6 * se)
    c = run_gap_table(moved, ref, True)
    assert any("sweep-hamming n=31 Ag" in m for m in c.messages)


def test_hamming_simplex_mc_rows_must_agree_at_any_seed():
    ref = reference("gap-table")
    se = checks.mc_gap_stderr(ref["mc_stddev"]["simplex"]["63"], 63, ref["params"]["sweep_trials"])
    simplex = next(r for r in json.loads(ref["files"]["sweep-simplex.json"])["rows"]
                   if r["blocklength"] == 63)
    files = sweep_files(ref, "simplex", 63, Ag=simplex["Ag"] + 20 * se)
    c = run_gap_table(files, ref, at_ref=False)
    assert c.failed == 1 and "n=63" in c.messages[0]
