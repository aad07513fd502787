import json

import numpy as np
import pytest

import bewc
from bewc import cli, codes


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


def test_code_show_prints_codebook(tmp_path, capsys, ex1):
    f = tmp_path / "ex1.json"
    f.write_text(codes.serialize(ex1))
    rc, stdout, _ = run(["code", "show", str(f)], capsys)
    assert rc == 0
    assert "0000 0110 1001 1111" in stdout  # Table-style codebook row


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


def test_code_validate_accepts_good_file(tmp_path, capsys, ex1):
    f = tmp_path / "ok.json"
    f.write_text(codes.serialize(ex1))
    rc, stdout, _ = run(["code", "validate", str(f)], capsys)
    assert rc == 0 and "valid" in stdout


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


def test_curve_explicit_eps_endpoints(tmp_path, capsys):
    out = tmp_path / "c.csv"
    rc, _, _ = run(["curve", "--family", "hamming", "--r", "3",
                    "--method", "exact", "--eps", "0", "1", "-o", str(out)], capsys)
    assert rc == 0
    rows = out.read_text().strip().split("\n")[1:]
    rates = [float(r.split(",")[2]) for r in rows]
    assert rates[0] == pytest.approx(0.0)
    assert rates[1] == pytest.approx(3 / 7)


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
    rc, _, stderr = run(["curve", "--family", "hamming", "--r", "5",
                         "--method", "exact", "--eps", "0.5"], capsys)
    assert rc == 2
    assert "guard" in stderr.lower()


# ---------------------------------------------------------------- determinism / env

def test_mc_outputs_byte_identical(tmp_path, capsys):
    args = ["gap", "--family", "hamming", "--r", "5", "--method", "mc",
            "--trials", "20000", "--seed", "77", "--format", "json"]
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run(args + ["-o", str(a), "--threads", "1"], capsys)[0] == 0
    assert run(args + ["-o", str(b), "--threads", "8"], capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()


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
])
def test_bad_arguments_give_one_line(argv, message, capsys):
    rc, stdout, stderr = run(argv, capsys)
    assert rc == 1
    assert stdout == ""
    assert stderr == message


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
