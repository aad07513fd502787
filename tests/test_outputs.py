"""Result files of the CLI and the experiment scripts.

The pins hold the SHA-256 of every file the CLI writes, in both formats, at
small sizes; the digests were recorded before the CSV and JSON writers were
merged into `cli.csv_text` and `cli._json`, so any byte that changes fails.
The `search` pins were re-recorded when the search moved from a matrix
product to `equivocation.equivocation_bits`, the evaluator `curve` and `gap`
use, which moved some values by at most 2.2e-16.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bewc import cli

REPO = Path(__file__).resolve().parents[1]

PIN_COMMANDS = {
    "curve-exact": ["curve", "--family", "hamming", "--r", "3", "--method", "exact", "--grid", "9"],
    "curve-mc": ["curve", "--family", "simplex", "--r", "3", "--method", "mc", "--grid", "3",
                 "--trials", "2000"],
    "gap-exact": ["gap", "--family", "hamming", "--r", "4", "--method", "exact"],
    "gap-mc": ["gap", "--family", "simplex", "--r", "3", "--method", "mc", "--trials", "2000"],
    "sweep": ["sweep", "--family", "hamming", "--rs", "3", "5", "--trials", "2000"],
    "search": ["search", "--n", "5", "--dim", "2"],
    "ensemble": ["ensemble", "--n", "7", "--dim", "4", "--alpha", "0.5", "--codes", "2",
                 "--reference-family", "hamming", "--reference-r", "3", "--grid", "3",
                 "--trials", "1000"],
    "simulate": ["simulate", "--family", "hamming", "--r", "3", "--eps", "0.3", "--trials", "500"],
    "code-make": ["code", "make", "--family", "hamming", "--r", "3"],
}

OUTPUT_PINS = {
    ("curve-exact", "csv"): "be353b778785a362bb572f3d11406014f5c0ad77f82311d4550348bb0e1d279d",
    ("curve-exact", "json"): "01948378990bbbf15ec74d5999d48f30afda8ccc9bf99d2f39f4b3ef16d78361",
    ("curve-mc", "csv"): "1bca61c5bf92867cedc2a61aba529678ba0ee865c7910c9529edb26026644efe",
    ("curve-mc", "json"): "c2774c9abe4d5e8927c0f1e4465d0d11df7f7822b01bfbcff93e810169680a14",
    ("gap-exact", "csv"): "f21c6e2ab6aef86f29630a500d350d6be5eae550ea3f1555ff9f361cf916c049",
    ("gap-exact", "json"): "5fa6db20570271d66c2e80c56d89756c2dac3595937739180c96edc5c5b7ea69",
    ("gap-mc", "csv"): "e8739f627516f8f97ea70ed277099a59fc8b1523f2aab7e1562105d986fe0bbe",
    ("gap-mc", "json"): "aea8d9366543e1271cbbf2ad0a24ee68f1030d17722a6571d722aa2e30603e64",
    ("sweep", "csv"): "05beae4806eec0cf5e567185fbfb9bd03e21b038d8be96c560c51001ebea524e",
    ("sweep", "json"): "2a050b735e88f9c37116f715eb98f83574fda014f48fd87c08a52837dc716ab0",
    ("search", "csv"): "bfc3999c3f2ff2f4aa5c62a9ea69ce803b309891a35d00538a0397364d049b74",
    ("search", "json"): "4c15d99ae89e2aa6eeee81c4113117b585078722d02a43096661d4ad435452e9",
    ("ensemble", "csv"): "d6212a0bd258f8b166d2dda2e1e00062ed61173670b63dcbc6803360755b5c10",
    ("ensemble", "json"): "d52ede7887bf0db37b85f0d2a48e4086df656e8fc3f3cca3edd75636af293548",
    ("simulate", "csv"): "4386c56978212ccad9ad601daf24903b677487d160148b8a068c07efcc7b01ce",
    ("simulate", "json"): "5a53d020b6fe99188fcfae186494397e62d2316a36bc7f4fda8f1d3b8505b3aa",
    ("code-make", "csv"): "72a127d2340717d9a91c2ba8ef2392a84681e30348648ba742349f9f3117155f",
    ("code-make", "json"): "72a127d2340717d9a91c2ba8ef2392a84681e30348648ba742349f9f3117155f",
}


@pytest.mark.parametrize("name, fmt", sorted(OUTPUT_PINS))
def test_cli_outputs_pinned(name, fmt, tmp_path):
    out = tmp_path / f"{name}.{fmt}"
    assert cli.main(PIN_COMMANDS[name] + ["--format", fmt, "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == OUTPUT_PINS[name, fmt]


def _run_script(name, *args, cwd, env):
    subprocess.run([sys.executable, str(REPO / "scripts" / name), *args],
                   cwd=cwd, env=env, check=True, capture_output=True)


def _is_data_cell(cell):
    if cell in ("exact", "mc"):
        return True
    try:
        float(cell)
    except ValueError:
        return False
    return True


def test_scripts_write_cli_tables(tmp_path):
    elsewhere = tmp_path / "elsewhere"
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, cli.OUTPUT_DIR_ENV: str(elsewhere)}
    _run_script("make_family_tables.py", "--trials", "2000", "--outdir", "tables",
                cwd=tmp_path, env=env)
    _run_script("run_ensemble_comparison.py", "--trials", "300", "--grid-points", "3",
                "--outdir", "tables", cwd=tmp_path, env=env)
    # Relative --outdir is taken from the working directory, not $BEWC_OUTPUT_DIR.
    assert not elsewhere.exists()
    tables = sorted(p.name for p in (tmp_path / "tables").iterdir())
    assert tables == ["ensemble_31_26.csv", "ensemble_31_5.csv",
                      "gaps_hamming.csv", "gaps_simplex.csv"]
    for name in tables:
        for line in (tmp_path / "tables" / name).read_text().splitlines()[1:]:
            bad = [cell for cell in line.split(",") if not _is_data_cell(cell)]
            assert bad == [], (name, line)
    for family in ("hamming", "simplex"):
        out = tmp_path / f"sweep_{family}.csv"
        assert cli.main(["sweep", "--family", family, "--rs", "3", "4", "5", "6",
                         "--trials", "2000", "-o", str(out)]) == 0
        assert out.read_bytes() == (tmp_path / "tables" / f"gaps_{family}.csv").read_bytes()
