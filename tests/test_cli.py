import argparse
import concurrent.futures
import functools
import importlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import bewc
from bewc import cli, codes, equivocation, experiments

REPO = Path(__file__).resolve().parents[1]


def run(args, capsys):
    rc = cli.main(args)
    out = capsys.readouterr()
    return rc, out.out, out.err


# ---------------------------------------------------------------- code command

def test_code_make_hamming(tmp_path, capsys):
    out = tmp_path / "h3.json"
    rc, stdout, _ = run(["code", "make", "--family", "hamming", "--r", "3",
                         "-o", str(out)], capsys)
    assert rc == 0
    assert "n=7 dim=4 k=3 R=0.428571" in stdout
    code = codes.parse(out.read_text())
    assert code.n == 7 and code.dim == 4


def test_code_make_default_name_lands_in_output_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, "envdir")
    rc, stdout, _ = run(["code", "make", "--family", "hamming", "--r", "3"], capsys)
    assert rc == 0
    assert stdout.startswith("wrote envdir/hamming-3.json\n")
    assert codes.parse((tmp_path / "envdir" / "hamming-3.json").read_text()).n == 7
    assert not (tmp_path / "hamming-3.json").exists()


@pytest.mark.parametrize("name", ["../escaped", "{tmp}/abs", "sub/x", ".", "..", ""])
def test_code_make_refuses_a_name_that_is_not_a_file_name(name, tmp_path, monkeypatch, capsys):
    # The default file is <name>.json in $BEWC_OUTPUT_DIR; a name with a
    # separator, an absolute one or a dot name would write elsewhere.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, "out")
    name = name.format(tmp=tmp_path)
    src = tmp_path / "in.json"
    src.write_text(json.dumps({"name": name, "n": 4, "dim": 2, "generator_rows": ["1011", "0110"]}))
    before = sorted(tmp_path.rglob("*"))
    rc, stdout, stderr = run(["code", "make", "--code", str(src)], capsys)
    assert (rc, stdout) == (1, "")
    assert stderr == (f"error: code name {name!r} is not a plain file name; "
                      "name the output with -o\n")
    assert sorted(tmp_path.rglob("*")) == before
    # -o may still name any path.
    rc, stdout, _ = run(["code", "make", "--code", str(src), "-o", str(tmp_path / "o.json")],
                        capsys)
    assert rc == 0 and codes.parse((tmp_path / "o.json").read_text()).name == name


def test_code_show_prints_codebook(tmp_path, capsys, ex1):
    f = tmp_path / "ex1.json"
    f.write_text(codes.serialize(ex1))
    rc, stdout, _ = run(["code", "show", str(f)], capsys)
    assert rc == 0
    assert "0000 0110 1001 1111" in stdout  # Table-style codebook row


_ONE_SOURCE = "error: specify exactly one code source: --family/--r, --code, or --random\n"


@pytest.mark.parametrize("action, source, message", [
    ("show", ["--family", "simplex", "--r", "4"], _ONE_SOURCE),
    ("show", ["--code", "{file}"], _ONE_SOURCE),
    ("show", ["--random", "--n", "5", "--dim", "2", "--alpha", "0.5"], _ONE_SOURCE),
    ("validate", ["--family", "simplex", "--r", "4"], _ONE_SOURCE),
    ("validate", ["--code", "{file}"], _ONE_SOURCE),
    ("make", ["--family", "simplex", "--r", "4"],
     "error: code make takes no FILE; pass it as --code FILE\n"),
])
def test_code_refuses_a_source_it_would_ignore(action, source, message, tmp_path, monkeypatch,
                                                capsys):
    monkeypatch.chdir(tmp_path)
    f = tmp_path / "h3.json"
    f.write_text(codes.serialize(codes.hamming_base(3)))
    rc, stdout, stderr = run(["code", action, str(f), *(a.format(file=f) for a in source)],
                             capsys)
    assert (rc, stdout, stderr) == (1, "", message)
    assert [p.name for p in tmp_path.iterdir()] == ["h3.json"]


@pytest.mark.parametrize("argv, message", [
    (["gap", "--family", "hamming", "--r", "3", "--n", "5", "--dim", "2", "--alpha", "0.3",
      "--method", "exact"], "error: --n --dim --alpha given without --random\n"),
    (["curve", "--family", "simplex", "--r", "3", "--alpha", "0.3"],
     "error: --alpha given without --random\n"),
    (["gap", "--code", "{file}", "--r", "3"], "error: --r given without --family\n"),
    (["gap", "--code", "{file}", "--dim", "2"], "error: --dim given without --random\n"),
    (["simulate", "--random", "--n", "7", "--dim", "4", "--alpha", "0.5", "--r", "3",
      "--eps", "0.3"], "error: --r given without --family\n"),
    (["code", "show", "{file}", "--n", "7"], "error: --n given without --random\n"),
    (["code", "make", "--family", "simplex", "--r", "3", "--dim", "3"],
     "error: --dim given without --random\n"),
    (["ensemble", "--n", "7", "--dim", "4", "--alpha", "0.5", "--reference-file", "{file}",
      "--reference-r", "3"], "error: --reference-r given without --reference-family\n"),
])
def test_flags_of_an_unchosen_source_are_refused(argv, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    f = tmp_path / "h3.json"
    f.write_text(codes.serialize(codes.hamming_base(3)))
    rc, stdout, stderr = run([a.format(file=f) for a in argv], capsys)
    assert (rc, stdout, stderr) == (1, "", message)
    assert [p.name for p in tmp_path.iterdir()] == ["h3.json"]


def test_seed_is_not_a_source_flag(capsys):
    rc, stdout, _ = run(["gap", "--family", "hamming", "--r", "3", "--method", "exact",
                         "--seed", "5"], capsys)
    assert (rc, stdout) == (0, "Ag = 0.0803\n")


def test_code_validate_rejects_rank_deficient(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text('{"name": "bad", "n": 4, "dim": 2, "generator_rows": ["1010", "1010"]}')
    rc, _, stderr = run(["code", "validate", str(f)], capsys)
    assert rc == 1
    assert "invalid" in stderr


def test_code_validate_rejects_integer_rows(tmp_path, capsys):
    f = tmp_path / "ints.json"
    f.write_text('{"name": "ints", "n": 3, "dim": 1, "generator_rows": [111]}')
    rc, _, stderr = run(["code", "validate", str(f)], capsys)
    assert rc == 1
    assert stderr == "invalid: generator_rows must be a list of '01' strings\n"


def test_code_validate_rejects_huge_zero_dim_before_null_space(tmp_path, capsys, monkeypatch):
    def no_null_space(m):
        raise AssertionError("null space computed before the shape check")
    monkeypatch.setattr(bewc.gf2, "null_space", no_null_space)
    f = tmp_path / "wide.json"
    f.write_text('{"name":"x","n":60000,"dim":0,"generator_rows":[]}')
    rc, _, stderr = run(["code", "validate", str(f)], capsys)
    assert rc == 1
    assert stderr == "invalid: need 1 <= dim < n, got dim=0, n=60000\n"


@pytest.mark.parametrize("argv", [
    ["code", "validate", "{file}"],  # one all-ones row: rank(H) alone once took 21 s
    ["gap", "--random", "--n", "20000", "--dim", "1", "--alpha", "0.5"],
])
def test_code_too_costly_to_build_is_refused_at_once(argv, tmp_path, capsys, monkeypatch):
    def no_null_space(m):
        raise AssertionError("null space computed before the build budget was checked")
    monkeypatch.setattr(bewc.gf2, "null_space", no_null_space)
    f = tmp_path / "wide.json"
    f.write_text(json.dumps({"name": "x", "n": 8000, "dim": 1, "generator_rows": ["1" * 8000]}))
    start = time.perf_counter()
    rc, _, stderr = run([a.replace("{file}", str(f)) for a in argv], capsys)
    assert time.perf_counter() - start < 1.0
    assert rc == 2
    assert stderr.startswith("guard violation: building a code of length n=")


def test_code_validate_accepts_good_file(tmp_path, capsys, ex1):
    f = tmp_path / "ok.json"
    f.write_text(codes.serialize(ex1))
    rc, stdout, _ = run(["code", "validate", str(f)], capsys)
    assert rc == 0 and "valid" in stdout


@pytest.mark.parametrize("argv", [
    ["code", "validate", "{file}"],
    ["gap", "--code", "{file}"],
    ["ensemble", "--n", "7", "--dim", "4", "--alpha", "0.5", "--reference-file", "{file}"],
])
@pytest.mark.parametrize("text", ["[" * 100_000 + "]" * 100_000,
                                  '{"a":' * 100_000 + "0" + "}" * 100_000], ids=["list", "dict"])
def test_deeply_nested_code_file_gives_one_line(argv, text, tmp_path, capsys):
    f = tmp_path / "deep.json"
    f.write_text(text)
    rc, stdout, stderr = run([a.replace("{file}", str(f)) for a in argv], capsys)
    assert (rc, stdout) == (1, "")
    assert stderr.startswith(("error: malformed code document: ",
                              "invalid: malformed code document: "))
    assert stderr.count("\n") == 1


# ---------------------------------------------------------------- gap / curve

def test_gap_exact_summary_line(capsys):
    rc, stdout, _ = run(["gap", "--family", "hamming", "--r", "3",
                         "--method", "exact"], capsys)
    assert rc == 0
    assert stdout.strip() == "Ag = 0.0803"


def test_curve_csv_schema_and_rate_consistency(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    rc, _, _ = run(["curve", "--family", "simplex", "--r", "3",
                    "--method", "exact", "--grid", "99", "-o", str(out)], capsys)
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == cli.CURVE_CSV_HEADER
    assert len(lines) == 100
    s3 = bewc.simplex_base(3)
    for line in lines[1:]:
        epsv, bits, rate, stderr, lo, hi, method = line.split(",")
        assert method == "exact"
        assert stderr == "" and lo == "" and hi == ""
        assert abs(float(rate) - float(bits) / 7) < 1e-12
        assert float(rate) <= min(float(epsv), s3.rate) + 1e-9


@pytest.mark.parametrize("npts", ["0", "-2"])
def test_curve_rejects_nonpositive_grid(tmp_path, capsys, npts):
    out = tmp_path / "c.csv"
    rc, stdout, stderr = run(["curve", "--family", "hamming", "--r", "3",
                              "--method", "exact", "--grid", npts, "-o", str(out)], capsys)
    assert rc == 1
    assert stderr == f"error: --grid must be a positive number of points, got {npts}\n"
    assert stdout == "" and not out.exists()


@pytest.mark.parametrize("argv", [
    ["curve", "--family", "hamming", "--r", "3", "--grid", "200000000"],
    ["curve", "--family", "hamming", "--r", "3", "--method", "mc", "--grid", "2000000"],
    ["search", "--n", "7", "--dim", "4", "--grid", "20000"],
    ["ensemble", "--n", "7", "--dim", "4", "--alpha", "0.5", "--codes", "10",
     "--reference-family", "hamming", "--reference-r", "3", "--grid", "100000"],
    # 600,000 × 2 KB = 1.2 GB: an exact curve's points, at any n, priced as any curve's.
    ["curve", "--family", "hamming", "--r", "8", "--method", "exact", "--grid", "600000"],
])
def test_grid_refused_by_what_it_would_hold(argv, capsys, monkeypatch):
    def no_grid(npts):
        raise AssertionError("grid built before the budget check")
    monkeypatch.setattr(cli, "_uniform_grid", no_grid)
    rc, stdout, stderr = run(argv, capsys)
    assert (rc, stdout) == (2, "")
    assert stderr.startswith("guard violation: ") and stderr.count("\n") == 1
    assert "grid budget" in stderr


def test_grid_budget_admits_the_largest_search():
    # The (8,4) search holds 200,787 rates per point; its default 99 points fit.
    per_point = cli.POINT_BYTES + 8 * experiments.search_count(8, 4)
    assert len(cli._grid(argparse.Namespace(eps=None, grid=None), per_point)) == 99


def priced_peak(argv, capsys):
    """`main(argv)`'s tracemalloc peak and the bytes a point that `_grid` was told it holds."""
    with mock.patch.object(cli, "_grid", wraps=cli._grid) as grid:
        tracemalloc.start()
        try:
            rc, _, _ = run(argv, capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert rc == 0 and grid.call_count == 1
    return peak, grid.call_args.args[1]


@pytest.mark.parametrize("r", [5, 8])
def test_exact_curve_holds_no_more_than_its_grid_price(r, tmp_path, capsys):
    # An exact curve is priced as any curve: the evaluator bounds its power
    # tables by a block, at most 48 B × STEP_WORDS whatever the grid.  A block
    # is 8,192 points at n = 31 and 1,024 at n = 255, where 20,000 points
    # stay under 32 MiB.
    peaks, grids = [], (2000, 20000)
    for npts in grids:
        argv = ["curve", "--family", "hamming", "--r", str(r), "--method", "exact",
                "--grid", str(npts), "-o", str(tmp_path / "c.csv")]
        peak, price = priced_peak(argv, capsys)
        assert price == cli.POINT_BYTES
        assert peak <= npts * price + 48 * equivocation.STEP_WORDS, (npts, peak)
        peaks.append(peak)
    assert peaks[1] - peaks[0] <= (grids[1] - grids[0]) * cli.POINT_BYTES, peaks
    assert peaks[1] < 32 << 20, peaks


def test_json_curve_holds_no_more_than_its_grid_price(tmp_path, capsys):
    # A JSON document is built whole before it is written: about 1.6 KB a
    # point of a Monte Carlo curve, within its 2 KB price.
    npts = 4000
    argv = ["curve", "--family", "hamming", "--r", "3", "--method", "mc", "--trials", "2",
            "--grid", str(npts), "--format", "json", "-o", str(tmp_path / "c.json")]
    peak, price = priced_peak(argv, capsys)
    assert peak <= npts * price, (peak / npts, price)


def test_curve_explicit_eps_endpoints(tmp_path, capsys):
    out = tmp_path / "c.csv"
    rc, _, _ = run(["curve", "--family", "hamming", "--r", "3",
                    "--method", "exact", "--eps", "0", "1", "-o", str(out)], capsys)
    assert rc == 0
    rows = out.read_text().strip().split("\n")[1:]
    rates = [float(r.split(",")[2]) for r in rows]
    assert rates[0] == pytest.approx(0.0)
    assert rates[1] == pytest.approx(3 / 7)


@pytest.mark.parametrize("argv", [
    ["curve", "--family", "hamming", "--r", "3", "--method", "exact"],
    ["search", "--n", "4", "--dim", "2"],
    ["ensemble", "--n", "7", "--dim", "4", "--alpha", "0.5", "--reference-family", "hamming",
     "--reference-r", "3", "--trials", "10"],
])
def test_grid_and_eps_are_exclusive(argv, tmp_path, capsys):
    out = tmp_path / "o.csv"
    rc, stdout, stderr = run(argv + ["--grid", "5", "--eps", "0.1", "0.2", "-o", str(out)],
                             capsys)
    assert (rc, stdout) == (1, "")
    assert stderr.endswith("error: argument --eps: not allowed with argument --grid\n")
    assert not out.exists()


def test_curve_json_echoes_config(tmp_path, capsys):
    out = tmp_path / "c.json"
    rc, _, _ = run(["curve", "--family", "hamming", "--r", "3", "--method", "exact",
                    "--eps", "0.5", "--format", "json", "-o", str(out)], capsys)
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["family"] == "hamming"
    assert doc["method"] == "exact"
    assert len(doc["points"]) == 1


# ---------------------------------------------------------------- exit codes

def test_usage_error_exit_1(capsys):
    rc, _, stderr = run(["gap"], capsys)  # no code source
    assert rc == 1
    assert "code source" in stderr


def test_unknown_flag_exit_1(capsys):
    rc, _, _ = run(["gap", "--nope"], capsys)
    assert rc == 1


def test_guard_violation_exit_2(capsys):
    # (64,32): past the rank profile's n <= 28 and the support profile's budget.
    for command in (["curve", "--eps", "0.5"], ["gap"]):
        rc, _, stderr = run(command + ["--random", "--n", "64", "--dim", "32", "--alpha", "0.5",
                                       "--method", "exact"], capsys)
        assert rc == 2
        assert stderr == ("guard violation: the support profile of this (64,32) code costs at "
                          "least 4.29e9 units of subcodes and big-int terms (d = 32), over the "
                          "budget of 1.00e7\n")


# ---------------------------------------------------------------- determinism / env

def test_mc_outputs_byte_identical(tmp_path, capsys):
    args = ["gap", "--family", "hamming", "--r", "5", "--method", "mc",
            "--trials", "20000", "--seed", "77", "--format", "json"]
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run(args + ["-o", str(a), "--threads", "1"], capsys)[0] == 0
    assert run(args + ["-o", str(b), "--threads", "8"], capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()


class _StandInExecutor:
    """Records each executor the CLI makes and runs its items at once, on the
    calling thread, so no thread starts."""

    made: list = []

    def __init__(self, max_workers):
        self.made.append(max_workers)

    def map(self, fn, items):
        return [fn(item) for item in items]

    def shutdown(self):
        self.made.append("shutdown")


@pytest.fixture
def stand_in_executor(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _StandInExecutor)
    monkeypatch.setattr(_StandInExecutor, "made", [])
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    return _StandInExecutor.made


def test_threads_are_capped_at_the_cpu_count(stand_in_executor, capsys):
    args = ["gap", "--family", "hamming", "--r", "5", "--method", "mc", "--trials", "20000"]
    serial = run(args + ["--threads", "1"], capsys)
    assert stand_in_executor == []
    assert run(args + ["--threads", "1000000"], capsys) == serial
    assert stand_in_executor == [3, "shutdown"]  # min(10^6, 3 CPUs) workers


def test_import_leaves_concurrent_futures_unloaded():
    # `ThreadPool` imports it on its first pooled map, so the 5–10 ms it costs stay
    # out of every command that samples nothing.
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    probe = "import sys, bewc, bewc.cli; print('concurrent.futures' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": path},
                         check=True, capture_output=True, text=True)
    assert out.stdout == "False\n"


@pytest.mark.parametrize("argv", [
    ["curve", "--family", "hamming", "--r", "5", "--method", "exact", "--grid", "3"],
    ["gap", "--family", "simplex", "--r", "6"],
    ["sweep", "--family", "hamming", "--rs", "3", "5", "--trials", "20000"],
    ["search", "--n", "5", "--dim", "2"],
    ["simulate", "--family", "hamming", "--r", "5", "--eps", "0.3", "--trials", "20000"],
    ["code", "show", "--family", "hamming", "--r", "3"],
])
def test_exact_search_and_simulate_open_no_pool(argv, stand_in_executor, tmp_path, capsys):
    assert run(argv + ["--threads", "3", "-o", str(tmp_path / "out")], capsys)[0] == 0
    assert stand_in_executor == []


def test_a_point_of_one_batch_opens_no_pool(stand_in_executor, capsys):
    # 10^4 trials are one batch of `equivocation.MC_BATCH`, which runs on the
    # calling thread whatever --threads is.
    args = ["gap", "--family", "hamming", "--r", "5", "--method", "mc", "--trials", "10000"]
    assert run(args + ["--threads", "3"], capsys) == run(args, capsys)
    assert stand_in_executor == []


def test_traced_layers_run_on_the_calling_thread(tmp_path, capsys, monkeypatch):
    # perfbench's tracer keeps one span stack and counts calls without a lock,
    # so no function it wraps may run on a pool's worker; the workers only draw
    # and score the batches of `mc_equivocation`.
    spec = importlib.util.spec_from_file_location("tracing", REPO / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    threads = {}

    def recording(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            threads.setdefault(name, set()).add(threading.get_ident())
            return fn(*args, **kwargs)
        return wrapper

    for name in [*tracing.LAYERS, "equivocation._batch_sums"]:
        module = importlib.import_module(f"bewc.{name.split('.')[0]}")
        attr = name.split(".")[1]
        monkeypatch.setattr(module, attr, recording(name, getattr(module, attr)))
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    # Two batches a point, so that the workers run.
    mc = ["--method", "mc", "--trials", str(2 * equivocation.MC_BATCH)]
    for argv in (["sweep", "--family", "hamming", "--rs", "5", *mc],
                 ["gap", "--family", "simplex", "--r", "5", *mc],
                 # min(k, dim) = 20: each pattern is eliminated on its own.
                 ["gap", "--random", "--n", "40", "--dim", "20", "--alpha", "0.5", *mc],
                 ["curve", "--family", "hamming", "--r", "5", "--eps", "0.2", "0.6", *mc],
                 ["ensemble", "--n", "31", "--dim", "26", "--alpha", "0.5", "--codes", "2",
                  "--reference-family", "hamming", "--reference-r", "5", "--eps", "0.3",
                  "--trials", str(2 * equivocation.MC_BATCH)]):
        assert run(argv + ["--threads", "3", "-o", str(tmp_path / "out")], capsys)[0] == 0
    assert threading.get_ident() not in threads.pop("equivocation._batch_sums")  # workers only
    assert {"cli.main", "experiments.family_sweep", "experiments.ensemble_study",
            "equivocation.mc_equivocation", "equivocation.curve"} <= set(threads)
    assert all(ids == {threading.get_ident()} for ids in threads.values()), threads


def test_output_dir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
    rc, _, _ = run(["gap", "--family", "hamming", "--r", "3", "--method", "exact",
                    "-o", "sub/gap.json", "--format", "json"], capsys)
    assert rc == 0
    assert (tmp_path / "sub" / "gap.json").exists()


# ---------------------------------------------------------------- other commands

def test_sweep_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc, stdout, _ = run(["sweep", "--family", "simplex", "--rs", "3", "4",
                         "--method", "exact", "-o", str(out)], capsys)
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "blocklength,R,Ag,method"
    assert lines[1].startswith("7,")
    assert lines[2].startswith("15,")


def test_search_small(tmp_path, capsys):
    out = tmp_path / "search.csv"
    rc, stdout, _ = run(["search", "--n", "4", "--dim", "2", "--eps", "0.3", "0.5",
                         "-o", str(out)], capsys)
    assert rc == 0
    assert "examined 35" in stdout
    assert out.read_text().startswith("rank,Ag,generator")


def test_ensemble_smoke(tmp_path, capsys):
    out = tmp_path / "ens.csv"
    rc, stdout, _ = run(["ensemble", "--n", "7", "--dim", "4", "--alpha", "0.5",
                         "--codes", "2", "--reference-family", "hamming",
                         "--reference-r", "3", "--eps", "0.4", "--trials", "1000",
                         "-o", str(out)], capsys)
    assert rc == 0
    header = out.read_text().split("\n")[0]
    assert header == "epsilon,mean_rate,best_rate,worst_rate,ci95_halfwidth,reference_rate"


def test_simulate_smoke(capsys):
    rc, stdout, _ = run(["simulate", "--family", "hamming", "--r", "3",
                         "--eps", "0.3", "--trials", "500"], capsys)
    assert rc == 0
    assert "bob_success=1.0000" in stdout


@pytest.mark.parametrize("flags, message", [
    (["--eps", "1.5", "--trials", "10"], "error: eps must be in [0, 1], got 1.5\n"),
    (["--eps", "0.3", "--trials", "1"], "error: need at least 2 trials, got 1\n"),
])
def test_simulate_rejects_bad_eps_and_trials(flags, message, capsys):
    rc, stdout, stderr = run(["simulate", "--family", "hamming", "--r", "3", *flags], capsys)
    assert rc == 1
    assert stdout == ""
    assert stderr == message


@pytest.mark.parametrize("argv, message", [
    (["code", "validate"], "error: code validate requires a code FILE\n"),
    (["ensemble", "--n", "7", "--dim", "4", "--alpha", "0.5", "--reference-family", "hamming"],
     "error: --reference-family requires --reference-r\n"),
    (["search", "--n", "4", "--dim", "2", "--eps", "1.5"],
     "error: grid values must lie in [0, 1]\n"),
    (["search", "--n", "4", "--dim", "2", "--eps", "0.5", "0.2"],
     "error: grid must be strictly increasing\n"),
    (["ensemble", "--n", "7", "--dim", "4", "--alpha", "0.5", "--reference-family", "hamming",
      "--reference-r", "3", "--reference-file", "/nonexistent"],
     "error: specify exactly one reference source: "
     "--reference-family/--reference-r or --reference-file\n"),
    (["gap", "--family", "hamming"], "error: --family requires --r\n"),
    (["gap", "--random", "--n", "7", "--dim", "4"],
     "error: --random requires --n, --dim, and --alpha\n"),
    (["ensemble", "--n", "7", "--dim", "4", "--alpha", "0.5", "--codes", "0",
      "--reference-family", "hamming", "--reference-r", "3"],
     "error: num_codes must be positive\n"),
    (["gap", "--family", "hamming", "--r", "3", "--threads", "0"],
     "error: --threads must be at least 1, got 0\n"),
    (["search", "--n", "4", "--dim", "2", "--threads", "-2"],
     "error: --threads must be at least 1, got -2\n"),
])
def test_bad_arguments_give_one_line(argv, message, capsys):
    rc, stdout, stderr = run(argv, capsys)
    assert rc == 1
    assert stdout == ""
    assert stderr == message


@pytest.mark.parametrize("flags, message", [
    (["--eps", "0.5", "0.2"], "error: grid must be strictly increasing\n"),
    (["--eps", "0.5", "1.5"], "error: grid values must lie in [0, 1]\n"),
    (["--trials", "1"], "error: need at least 2 trials, got 1\n"),
])
def test_ensemble_refuses_grid_and_trials_before_a_draw(flags, message, monkeypatch, capsys):
    # A (2000, 1000) member took 0.6 s to draw before these were checked.
    def no_draw(params):
        raise AssertionError("a member was drawn before the arguments were checked")
    monkeypatch.setattr(codes, "random_base", no_draw)
    rc, stdout, stderr = run(["ensemble", "--n", "2000", "--dim", "1000", "--alpha", "0.5",
                              "--reference-family", "hamming", "--reference-r", "3", *flags],
                             capsys)
    assert (rc, stdout, stderr) == (1, "", message)


@pytest.mark.parametrize("n, dim", [(-1, 1), (3, 5), (4, 0), (4, 4)])
def test_search_rejects_shape_without_code(n, dim, capsys):
    rc, stdout, stderr = run(["search", "--n", str(n), "--dim", str(dim)], capsys)
    assert rc == 1
    assert stdout == ""
    assert stderr == f"error: need 1 <= dim < n, got dim={dim}, n={n}\n"
    with pytest.raises(codes.CodeError):
        bewc.exhaustive_search(n, dim, [0.5])


@pytest.mark.parametrize("argv", [
    ["gap", "--code", "{dir}"],
    ["ensemble", "--n", "7", "--dim", "4", "--alpha", "0.5", "--reference-file", "{dir}"],
    ["code", "validate", "{dir}"],
    ["gap", "--family", "hamming", "--r", "3", "--method", "exact", "-o", "{dir}"],
])
def test_directory_as_file_gives_one_line(argv, tmp_path, capsys):
    rc, _, stderr = run([a.format(dir=tmp_path) for a in argv], capsys)
    assert rc == 1
    assert stderr.startswith("error: ") and stderr.count("\n") == 1
    assert str(tmp_path) in stderr


def test_csv_text_cells():
    rows = [[np.float64(0.1), None, 3, "exact"], [0.25, np.float32(0.5), np.int64(7), ""]]
    assert cli.csv_text(["a", "b", "c", "d"], rows) == "a,b,c,d\n0.1,,3,exact\n0.25,0.5,7,\n"


# ---------------------------------------------------------------- out of memory

def test_random_shape_rejected_before_any_draw(capsys, monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("random generator drawn before the shape check")
    monkeypatch.setattr(codes, "make_rng", no_draw)
    rc, stdout, stderr = run(["gap", "--random", "--n", "3", "--dim", "5", "--alpha", "0.5"],
                             capsys)
    assert (rc, stdout) == (1, "")
    assert stderr == "error: need 1 <= dim < n, got dim=5, n=3\n"


@pytest.mark.parametrize("alpha", ["0.0001", "0.002"])
def test_random_shape_that_never_draws_full_rank_is_refused_within_budget(alpha, capsys):
    # Each attempt at (1000, 2000) draws and ranks 2·10^6 entries, so the draw
    # budget allows fifty; 1,000 attempts took over 20 s.
    start = time.perf_counter()
    rc, stdout, stderr = run(["gap", "--random", "--n", "2000", "--dim", "1000", "--alpha", alpha,
                              "--method", "mc", "--trials", "2"], capsys)
    assert time.perf_counter() - start < 10.0
    assert (rc, stdout) == (1, "")
    assert stderr == (f"error: no full-rank Bernoulli({alpha}) generator of shape (1000, 2000) "
                      "in 50 attempts\n")


@pytest.mark.parametrize("error, message", [
    (MemoryError(), "guard violation: out of memory\n"),
    # The text numpy's allocation failure carries, raised here without the allocation.
    (MemoryError("Unable to allocate 72.8 TiB for an array with shape (1000000, 10000000) "
                 "and data type float64"),
     "guard violation: out of memory: Unable to allocate 72.8 TiB for an array with shape "
     "(1000000, 10000000) and data type float64\n"),
])
def test_out_of_memory_is_a_guard_violation(error, message, capsys, monkeypatch):
    def exhausted(params):
        raise error
    monkeypatch.setattr(codes, "random_base", exhausted)
    rc, stdout, stderr = run(["gap", "--random", "--n", "10", "--dim", "5", "--alpha", "0.5"],
                             capsys)
    assert (rc, stdout) == (2, "")
    assert stderr == message


# ---------------------------------------------------------------- fuzz

_FAMILIES = st.sampled_from(["hamming", "simplex"])
_BAD_R = ["-1", "0", "1", "9", "zzz"]
_BAD_FLOATS = ["nan", "inf", "-0.5", "1.5", "zzz", ""]
_JUNK = ["--bogus", "zzz", "", "nan", "-1", "1e999", "--", "0x1f"]
# Never left out: their defaults are 10^6 trials, 99 points and --rs 3 4 5 6.
# Nor is a grid command's --eps given in place of --grid.
_KEPT = ("--trials", "--grid", "--rs")
_COMMANDS = ["code", "curve", "gap", "sweep", "search", "ensemble", "simulate"]


def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


def _floats(lo=0.0, hi=1.0):
    return st.floats(lo, hi).map(repr)


def _opts(draw, files, command):
    """The code sources and a subcommand's other flags, each as (flag, valid
    values or None for a switch, bad values, whether given unless faulted).
    --trials, --r, --n and --grid stay small, so each example takes milliseconds."""
    family = [("--family", _FAMILIES, ["golay"], True), ("--r", _ints(2, 4), _BAD_R, True)]
    eps = ("--eps", st.lists(st.floats(0, 1), min_size=1, max_size=3, unique=True)
           .map(lambda e: " ".join(map(repr, sorted(e)))), _BAD_FLOATS)
    # --grid, perhaps with the --eps it excludes, or --eps alone.
    grid = draw(st.sampled_from([[("--grid", _ints(1, 5), ["0", "-2", "nan", "2.5"], True),
                                  (*eps, False)], [(*eps, True)]]))
    method = [("--method", st.sampled_from(["exact", "mc", "auto"]), ["fast"], False)]
    trials = [("--trials", _ints(2, 200), ["0", "1", "-5", "nan", "1e3"], True)]
    common = [("--seed", st.integers(-2**70, 2**70).map(str), ["zzz", "nan"], False),
              ("--threads", _ints(1, 4), ["zzz", "0", "-2"], False),
              ("-o", st.sampled_from(["out.csv", "sub/out.json"]), ["", "."], False),
              ("--format", st.sampled_from(["csv", "json"]), ["xml"], False)]
    n = draw(st.integers(2, 10))
    n, dim = (("--n", st.just(str(n)), ["-2", "0", "1", "zzz"], True),
              ("--dim", _ints(1, n - 1), [str(n), str(n + 2), "0", "-1"], True))
    alpha = ("--alpha", _floats(0.05, 0.95), ["0", "1", "nan", "inf", "-0.1"], True)
    reference = [("--reference-family", _FAMILIES, ["golay"], True),
                 ("--reference-r", _ints(2, 4), _BAD_R, True)]
    reference_file = [("--reference-file", st.just(files[0]), files[1:], True)]
    source = {"family": family,
              "code": [("--code", st.just(files[0]), files[1:], True)],
              "random": [("--random", None, [], True), n, dim, alpha]}
    per_command = {
        "code": [],
        "curve": method + grid + trials,
        "gap": method + trials,
        "sweep": [family[0], ("--rs", st.lists(_ints(2, 4), min_size=1, max_size=3).map(" ".join),
                              _BAD_R, True)] + method + trials,
        "search": [("--n", _ints(2, 6), ["-1", "0", "zzz"], True),
                   ("--dim", _ints(1, 5), ["0", "-1", "7"], True)] + grid,
        "ensemble": [n, dim, alpha, ("--codes", _ints(1, 3), ["0", "-1", "zzz"], False),
                     *(reference if draw(st.booleans()) else reference_file)] + grid + trials,
        "simulate": [("--eps", _floats(), _BAD_FLOATS, True)] + trials,
    }[command] + common
    return source, per_command


@st.composite
def _argv(draw, files):
    """argv for one subcommand: valid in about a third of the draws, else with
    one or two faulted flags (dropped, or given a bad value), a second code
    source, junk tokens or -h."""
    command = draw(st.sampled_from(_COMMANDS))
    source, opts = _opts(draw, files, command)
    argv = [command]
    if command == "code":
        argv.append(draw(st.sampled_from(["make", "show", "validate"] * 3 + ["burn"])))
        if argv[1] != "make" and draw(st.integers(0, 3)):
            argv.append(files[0] if draw(st.booleans()) else draw(st.sampled_from(files)))
    if command in ("code", "curve", "gap", "simulate") and len(argv) < 3:
        names = draw(st.lists(st.sampled_from(sorted(source)), min_size=1, unique=True,
                              max_size=draw(st.sampled_from([1, 1, 1, 1, 1, 2]))))
        opts = [o for name in names for o in source[name]] + opts
    faults = set(draw(st.lists(st.sampled_from([o[0] for o in opts]),
                               max_size=draw(st.sampled_from([0, 0, 0, 1, 1, 2])))))
    groups = []
    for flag, good, bad, given in opts:
        kept = flag in _KEPT or flag == "--eps" and command != "simulate"
        if flag in faults and (not bad or given and not kept and draw(st.booleans())):
            continue  # a required flag left out
        if flag not in faults and not given and draw(st.booleans()):
            continue
        if good is None:
            groups.append([flag])
        else:
            value = draw(st.sampled_from(bad) if flag in faults else good)
            groups.append([flag] + (value.split(" ") if flag in ("--eps", "--rs") else [value]))
    for tokens in draw(st.permutations(groups)):
        argv += tokens
    if draw(st.integers(0, 5)) == 0:
        for _ in range(draw(st.integers(1, 2))):
            argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(_JUNK + ["-h"])))
    return argv


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_cli_fuzz_exits_0_1_or_2(data, tmp_path_factory):
    # Every argv built from a subcommand's own flags, valid values mixed with
    # bad ones, ends in exit 0, 1 or 2, and a refusal writes exactly one line
    # to stderr; only --help may leave through SystemExit, and then with status 0.
    root = tmp_path_factory.getbasetemp() / "fuzz"
    (root / "out").mkdir(parents=True, exist_ok=True)
    files = {"good": root / "h3.json", "garbage": root / "garbage.json",
             "missing": root / "missing.json", "dir": root / "out"}
    files["good"].write_text(codes.serialize(codes.hamming_base(3)))
    files["garbage"].write_text('{"name": "x", "n": 3, "dim": 1, "generator_rows": ["0000"]}')
    argv = data.draw(_argv([str(p) for p in files.values()]))
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {cli.OUTPUT_DIR_ENV: str(root / "out")}), \
            redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as e:
            assert e.code == 0 and "-h" in argv, argv
            return
    assert rc in (0, 1, 2), argv
    if rc:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1, (argv, lines)
        assert lines[0].startswith(("error: ", "guard violation: ", "invalid: ")), (argv, lines)


# ---------------------------------------------------------------- parser per command

_GAP = ["gap", "--family", "hamming", "--r", "3", "--method", "exact"]
_ALL_PARSERS = ["bewc"] + [f"bewc {c}" for c in _COMMANDS]


class _Built(Exception):
    pass


def _parser_main_builds(argv):
    """The parser that `cli.main(argv)` builds, taken before it parses."""
    real, built = cli.build_parser, []

    def spy(*args, **kwargs):
        built.append(real(*args, **kwargs))
        raise _Built

    with mock.patch.object(cli, "build_parser", spy), pytest.raises(_Built):
        cli.main(argv)
    return built[0]


def _outcome(parser, argv):
    """What parsing `argv` gives: the Namespace's repr (so that a NaN equals
    itself), the UsageError's message, or the SystemExit's code with what was printed."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            return repr(parser.parse_args(argv))
        except cli.UsageError as e:
            return str(e)
        except SystemExit as e:
            return e.code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None)
@given(argv=_argv(["h3.json", "garbage.json", "missing.json", "out"]))
@example(argv=[])
@example(argv=["-h"])
@example(argv=["frobnicate"])
@example(argv=["-h", "curve"])
def test_main_parser_parses_as_the_full_parser(argv):
    assert _outcome(_parser_main_builds(argv), argv) == _outcome(cli.build_parser(), argv)


@pytest.mark.parametrize("command", _COMMANDS)
def test_subcommand_help_is_the_full_parsers(command):
    own, full = _parser_main_builds([command]), cli.build_parser()
    printed = _outcome(own, [command, "-h"])
    assert printed[0] == 0 and printed[1].startswith(f"usage: bewc {command} ")
    assert printed == _outcome(full, [command, "-h"])


@pytest.fixture
def parsers_built(monkeypatch):
    """The prog of every `_Parser` constructed while the test runs, in order."""
    real, built = cli._Parser.__init__, []

    def counting(self, *args, **kwargs):
        built.append(kwargs["prog"])
        real(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting)
    return built


def test_a_command_builds_only_its_own_parser_on_every_call(parsers_built, capsys):
    assert run(_GAP, capsys) == (0, "Ag = 0.0803\n", "")
    assert parsers_built == ["bewc", "bewc gap"]
    # Nothing is kept from the first call: the second builds its own pair.
    assert run(_GAP, capsys) == (0, "Ag = 0.0803\n", "")
    assert parsers_built == ["bewc", "bewc gap"] * 2


def test_the_entry_point_reads_its_command_from_sys_argv(parsers_built, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["bewc", *_GAP])
    assert cli.main() == 0
    assert capsys.readouterr().out == "Ag = 0.0803\n"
    assert parsers_built == ["bewc", "bewc gap"]


def test_help_builds_every_parser(parsers_built, capsys):
    with pytest.raises(SystemExit) as e:
        cli.main(["--help"])
    assert e.value.code == 0
    out = capsys.readouterr().out
    assert all(f"\n    {c} " in out for c in _COMMANDS)
    assert parsers_built == _ALL_PARSERS


def test_an_unknown_command_builds_every_parser(parsers_built, capsys):
    rc, _, stderr = run(["frobnicate"], capsys)
    assert rc == 1
    assert stderr.startswith("error: argument command: invalid choice: 'frobnicate'")
    assert stderr.count("\n") == 1
    assert parsers_built == _ALL_PARSERS
