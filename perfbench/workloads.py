"""The four benchmark workloads.

Each workload is built from the benchmark seed in its constructor (the
set-up that ``setup_s`` times).  One job is the workload's fixed list of
tasks, ``tasks(outdir)``, run in order; each task returns part of the job's
outputs.  One client runs the job again and again in a closed loop, and
``check(c, out)`` checks each job's outputs.  CLI commands run
in-process through ``bewc.cli.main`` and write their result files to
``outdir``; ``--threads 2`` matches the two cores of the reference machine.

Every call goes through a module attribute (``eq.rank_profile``, not a name
imported from the module), so the traced run's wrappers see it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import struct
from pathlib import Path

from bewc import cli, codes, equivocation as eq, experiments

import checks

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"
REFERENCE_SEED = 0
THREADS = "2"
GRID = [round(0.01 * i, 2) for i in range(1, 100)]


def sub_seed(seed: int, *path: str) -> int:
    """A 63-bit seed for one input of one workload, derived from the run's seed."""
    h = hashlib.blake2b(struct.pack("<q", seed), digest_size=8)
    for part in path:
        h.update(b"/" + part.encode())
    return int.from_bytes(h.digest(), "little") >> 1


def load_reference(name: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{name}.json").read_text())


def run_cli(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.main(argv)
    if status != 0:
        raise RuntimeError(f"bewc {' '.join(argv)} exited with {status}")


class Workload:
    name = ""

    def __init__(self, seed: int, ref: dict | None) -> None:
        self.seed = seed
        self.ref = ref
        self.at_ref = ref is not None and seed == ref["seed"]

    def cli_seed(self, *path: str) -> str:
        return str(sub_seed(self.seed, self.name, *path))

    def run(self, outdir: Path) -> dict:
        out = {}
        for _, task in self.tasks(outdir):
            merge(out, task())
        return out

    def reference_view(self, out: dict) -> dict:
        """What ``record.py`` stores for one job's outputs at the reference seed."""
        return {"files": out["files"]}


def merge(out: dict, part: dict) -> None:
    """Add one task's outputs: tasks return disjoint keys, except that every
    CLI task adds its file under "files"."""
    for key, value in part.items():
        out.setdefault(key, {}).update(value)


def cli_task(argv: list[str], path: Path):
    """A task that runs one CLI command and returns the file it wrote."""
    def task():
        run_cli(argv + ["-o", str(path)])
        return {"files": {path.name: path.read_text()}}
    return task


class GapTable(Workload):
    """The paper's gap table (`sweep`) for both families plus a small ensemble."""

    name = "gap-table"
    RS = ["3", "4", "5", "6"]
    SWEEP_TRIALS = 50_000
    ENSEMBLE = {"n": 31, "dim": 26, "codes": 4, "reference_r": 5, "trials": 10_000,
                "eps": ["0.1", "0.3", "0.5", "0.7", "0.9"]}

    def __init__(self, seed, ref):
        super().__init__(seed, ref)
        self.params = {"rs": self.RS, "sweep_trials": self.SWEEP_TRIALS,
                       "ensemble_n": self.ENSEMBLE["n"], "ensemble_dim": self.ENSEMBLE["dim"],
                       "ensemble_codes": self.ENSEMBLE["codes"],
                       "ensemble_trials": self.ENSEMBLE["trials"], "ensemble_eps": self.ENSEMBLE["eps"]}

    def tasks(self, outdir: Path):
        common = ["--threads", THREADS, "--format", "json"]
        cmds = {
            f"sweep-{fam}.json": ["sweep", "--family", fam, "--rs", *self.RS,
                                  "--trials", str(self.SWEEP_TRIALS),
                                  "--seed", self.cli_seed("sweep", fam)]
            for fam in ("hamming", "simplex")
        }
        e = self.ENSEMBLE
        cmds["ensemble.json"] = [
            "ensemble", "--n", str(e["n"]), "--dim", str(e["dim"]), "--alpha", "0.5",
            "--codes", str(e["codes"]), "--reference-family", "hamming",
            "--reference-r", str(e["reference_r"]), "--eps", *e["eps"],
            "--trials", str(e["trials"]), "--seed", self.cli_seed("ensemble"),
        ]
        return [(f, cli_task(argv + common, outdir / f)) for f, argv in cmds.items()]

    def check(self, c: checks.Checker, out: dict) -> None:
        checks.check_gap_table(c, out["files"], self.params, self.ref, self.at_ref)

    def reference_view(self, out: dict) -> dict:
        # Standard deviation of the per-pattern entropy for each MC row, so
        # the Hamming/simplex check can scale its tolerance at any seed.
        stddev = {}
        for fam in ("hamming", "simplex"):
            reports = experiments.family_sweep(
                fam, [int(r) for r in self.RS], trials=self.SWEEP_TRIALS,
                seed=int(self.cli_seed("sweep", fam)))
            stddev[fam] = {str((1 << int(r)) - 1): rep.estimate.stddev
                           for r, rep in zip(self.RS, reports) if rep.estimate is not None}
        return {"files": out["files"], "mc_stddev": stddev}


class Exact(Workload):
    """Exact 99-point curves and gaps: random codes, their duals, and two CLI curves."""

    name = "exact"
    N, DIM, CODES = 16, 8, 3

    def __init__(self, seed, ref):
        super().__init__(seed, ref)
        self.codes = {}
        for i in range(self.CODES):
            code = codes.random_base(codes.RandomCodeParams(
                n=self.N, dim=self.DIM, alpha=0.5, seed=sub_seed(seed, self.name, "code", str(i))))
            self.codes[f"code-{i}"] = code
            self.codes[f"dual-{i}"] = codes.from_generator(code.H, name=f"dual-{i}")
        self.params = {"n": self.N, "dim": self.DIM, "codes": self.CODES, "grid": GRID}

    @staticmethod
    def exact_task(label: str, code):
        def task():
            prof = eq.rank_profile(code)
            cv = eq.curve(code, GRID, method="exact", profile=prof)
            rep = eq.achievability_gap(code, method="exact", profile=prof)
            return {label: {"n": code.n, "k": code.k, "bits": [p.bits for p in cv.points],
                            "gap": rep.gap}}
        return task

    def tasks(self, outdir: Path):
        tasks = [(label, self.exact_task(label, code)) for label, code in self.codes.items()]
        for fam in ("hamming", "simplex"):
            fname = f"curve-{fam}-4.json"
            argv = ["curve", "--family", fam, "--r", "4", "--method", "exact",
                    "--seed", self.cli_seed("curve", fam), "--threads", THREADS,
                    "--format", "json"]
            tasks.append((fname, cli_task(argv, outdir / fname)))
        return tasks

    def check(self, c, out):
        checks.check_exact(c, out, self.params, self.ref, self.at_ref)

    def reference_view(self, out):
        return {"outputs": {k: out[k] for k in self.codes}, "files": out["files"]}


class Search(Workload):
    """Exhaustive search over every (7,4) and (7,3) base code; no randomness."""

    name = "search"
    SHAPES = ((7, 4), (7, 3))

    def __init__(self, seed, ref):
        super().__init__(seed, ref)
        self.params = {"shapes": [list(s) for s in self.SHAPES], "grid": GRID}

    @staticmethod
    def search_task(n: int, dim: int):
        def task():
            res = experiments.exhaustive_search(n, dim, GRID)
            return {f"{n},{dim}": {"count": res.count, "gaps": res.gaps}}
        return task

    def tasks(self, outdir: Path):
        return [(f"{n},{dim}", self.search_task(n, dim)) for n, dim in self.SHAPES]

    def check(self, c, out):
        checks.check_search(c, out, self.params, self.ref, self.at_ref)

    def reference_view(self, out):
        return {"gap_classes": {key: checks.gap_classes(res["gaps"]) for key, res in out.items()}}


class Session(Workload):
    """`simulate` through the CLI: encode, decode and score every trial."""

    name = "session"
    TRIALS = 25_000
    RUNS = (("hamming", 3, 0.3), ("hamming", 4, 4 / 15), ("simplex", 4, 11 / 15))

    def __init__(self, seed, ref):
        super().__init__(seed, ref)
        self.params = {"trials": self.TRIALS, "runs": [list(r) for r in self.RUNS]}
        # Exact equivocation at each run's ε, to check the session means against.
        self.exact_bits = {}
        for fam, r, eps in self.RUNS:
            code = experiments.FAMILY_BUILDERS[fam](r)
            self.exact_bits[self.fname(fam, r)] = eq.exact_equivocation(eq.rank_profile(code), eps)

    @staticmethod
    def fname(fam: str, r: int) -> str:
        return f"simulate-{fam}-{r}.json"

    def tasks(self, outdir: Path):
        tasks = []
        for fam, r, eps in self.RUNS:
            fname = self.fname(fam, r)
            argv = ["simulate", "--family", fam, "--r", str(r), "--eps", repr(eps),
                    "--trials", str(self.TRIALS), "--seed", self.cli_seed("simulate", fname),
                    "--threads", THREADS, "--format", "json"]
            tasks.append((fname, cli_task(argv, outdir / fname)))
        return tasks

    def check(self, c, out):
        checks.check_session(c, out["files"], self.params, self.exact_bits, self.ref, self.at_ref)


WORKLOADS = {w.name: w for w in (GapTable, Exact, Search, Session)}
