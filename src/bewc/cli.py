"""Command-line surface.

Subcommands map one-to-one onto the library studies: `code` builds and
inspects base codes, `curve`/`gap` evaluate a single code, `sweep` walks a
family, `search` runs the exhaustive subspace comparison, `ensemble` pits
random codes against a reference, and `simulate` replays the full channel.

Exit codes: 0 success, 1 usage error, 2 guard violation (running out of
memory included).  All randomness flows from --seed (default 0x5EC0DE), so
identical invocations produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Any, Iterable, Optional, Sequence

import numpy as np

from . import codes, coset, equivocation as eq, experiments, gf2
from .codes import CodeError, CodeSpec, GuardError, RandomCodeParams

DEFAULT_SEED = 0x5EC0DE
OUTPUT_DIR_ENV = "BEWC_OUTPUT_DIR"
# What a command may hold across its eps grid (tracemalloc peaks of `main`, 4,000
# points): a curve point and its CSV row 0.4–0.7 KB, as JSON 1.4–1.6 KB.  A search
# point adds 8 B per code, a bound on its class rows (classes ≤ codes): (8,4) at
# 99 points is priced at 159 MB, and 667 points are the most it admits.
GRID_BYTES_BUDGET = 1 << 30
POINT_BYTES = 2 << 10

CURVE_CSV_HEADER = "epsilon,equivocation_bits,equivocation_rate,stderr,ci95_lo,ci95_hi,method"


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse prints its usage and exits 2
        raise UsageError(message)


def _add_code_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", choices=sorted(experiments.FAMILY_BUILDERS))
    p.add_argument("--r", type=int, help="family size parameter (n = 2^r - 1)")
    p.add_argument("--code", metavar="FILE", help="JSON code file")
    p.add_argument("--random", action="store_true", help="Bernoulli random code")
    p.add_argument("--n", type=int)
    p.add_argument("--dim", type=int)
    p.add_argument("--alpha", type=float)


def _resolve_code(args) -> CodeSpec:
    # A file source: --code, or the FILE of `code show` and `code validate`.
    files = [f for f in (args.code, getattr(args, "file", None)) if f is not None]
    if len(files) + (args.family is not None) + args.random != 1:
        raise UsageError("specify exactly one code source: --family/--r, --code, or --random")
    chosen = "--family" if args.family is not None else "--random" if args.random else "--code"
    for source, flags in (("--family", ["r"]), ("--random", ["n", "dim", "alpha"])):
        stray = [f"--{f}" for f in flags if getattr(args, f) is not None]
        if stray and source != chosen:
            raise UsageError(f"{' '.join(stray)} given without {source}")
    if args.family is not None:
        if args.r is None:
            raise UsageError("--family requires --r")
        return experiments.FAMILY_BUILDERS[args.family](args.r)
    if files:
        return codes.parse(Path(files[0]).read_text())
    if args.n is None or args.dim is None or args.alpha is None:
        raise UsageError("--random requires --n, --dim, and --alpha")
    return codes.random_base(
        RandomCodeParams(n=args.n, dim=args.dim, alpha=args.alpha, seed=args.seed)
    )


def _uniform_grid(npts: int) -> list[float]:
    return [round(i / (npts + 1), 12) for i in range(1, npts + 1)]


def _grid(args, point_bytes: int) -> list[float]:
    """--eps, --grid uniform points, or else eq.DEFAULT_GRID, refused before the
    list is built when `point_bytes` per point would exceed GRID_BYTES_BUDGET."""
    points = args.eps or (eq.DEFAULT_GRID if args.grid is None else None)
    npts = len(points) if points else args.grid
    if npts < 1:
        raise UsageError(f"--grid must be a positive number of points, got {npts}")
    if npts * point_bytes > GRID_BYTES_BUDGET:
        raise GuardError(f"{npts} eps points would hold {npts * point_bytes >> 20} MB of "
                         f"results, over the {GRID_BYTES_BUDGET >> 20} MB grid budget")
    return list(points) if points else _uniform_grid(npts)


def _config_echo(args) -> dict:
    # threads and output location cannot affect results, so they stay out of
    # the echo; that keeps output files byte-identical across thread counts.
    skip = {"func", "threads", "pool", "output"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _write(args, text: str, default: Optional[Path] = None) -> None:
    # Joining keeps an absolute -o as it is; a relative one, or the default
    # name, lands in $BEWC_OUTPUT_DIR.
    name = default if args.output is None else args.output
    if name is None:
        return
    path = Path(os.environ.get(OUTPUT_DIR_ENV, ".")) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    print(f"wrote {path}")


def _cell(x: Any) -> str:
    if x is None:
        return ""
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def csv_text(header: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    """A CSV table: floats as `repr(float(x))`, None as an empty cell."""
    return "".join(",".join(map(_cell, row)) + "\n" for row in [header, *rows])


def _json(args, **fields) -> None:
    """Write the JSON result document: the config echo, then `fields`."""
    doc = {"config": _config_echo(args), **fields}
    _write(args, json.dumps(doc, indent=2) + "\n")


def _emit(args, key: str, records: list[dict], **head) -> None:
    """Write `records` as CSV columns named by their keys, or as JSON list `key`."""
    if args.format == "json":
        _json(args, **head, **{key: records})
    else:
        _write(args, csv_text(list(records[0]), [r.values() for r in records]))


# ---------------------------------------------------------------- commands


def cmd_code(args) -> int:
    if args.action == "make":
        if args.file is not None:
            raise UsageError("code make takes no FILE; pass it as --code FILE")
        code = _resolve_code(args)
        if args.output is None and (code.name in ("", "..") or Path(code.name).name != code.name):
            raise UsageError(f"code name {code.name!r} is not a plain file name; "
                             "name the output with -o")
        _write(args, codes.serialize(code), Path(f"{code.name}.json"))
        print(f"{code.name}: n={code.n} dim={code.dim} k={code.k} R={code.rate:.6f}")
        return 0
    if args.action == "show":
        code = _resolve_code(args)
        print(f"{code.name}: n={code.n} dim={code.dim} k={code.k} R={code.rate:.6f}")
        print("G =")
        for row in code.G.row_strings():
            print(f"  {row}")
        if code.n <= 16:
            print(coset.codebook(code).format_table())
        return 0
    if args.file is None:
        raise UsageError("code validate requires a code FILE")
    try:
        code = _resolve_code(args)
    except CodeError as e:
        print(f"invalid: {e}", file=sys.stderr)
        return 1
    print(f"valid: {code.name} n={code.n} dim={code.dim} k={code.k}")
    return 0


def cmd_curve(args) -> int:
    code = _resolve_code(args)
    cv = eq.curve(code, _grid(args, POINT_BYTES), args.method, args.trials, args.seed, pool=args.pool)
    if args.format == "json":
        _json(args, code=cv.code_name, method=cv.method, points=[vars(p) for p in cv.points])
    else:
        rows = [(p.eps, p.bits, p.rate, p.stderr, p.ci95_lo, p.ci95_hi, cv.method)
                for p in cv.points]
        _write(args, csv_text(CURVE_CSV_HEADER.split(","), rows))
    gap_pt = min(cv.points, key=lambda p: abs(p.eps - code.rate))
    print(
        f"{code.name} ({cv.method}): {len(cv.points)} points, "
        f"rate@eps={gap_pt.eps:g} = {gap_pt.rate:.6f}"
    )
    return 0


def cmd_gap(args) -> int:
    code = _resolve_code(args)
    rep = eq.achievability_gap(code, args.method, args.trials, args.seed, pool=args.pool)
    estimate = {} if rep.estimate is None else {"estimate": vars(rep.estimate)}
    _json(args, code=rep.code_name, R=rep.rate, equivocation_rate_at_R=rep.equivocation_rate_at_r,
          Ag=rep.gap, method=rep.method, **estimate)
    print(f"Ag = {rep.gap:.4f}")
    return 0


def cmd_sweep(args) -> int:
    reports = experiments.family_sweep(args.family, args.rs, args.method, args.trials,
                                       args.seed, pool=args.pool)
    rows = [{"blocklength": (1 << r) - 1, "R": rep.rate, "Ag": rep.gap, "method": rep.method}
            for r, rep in zip(args.rs, reports)]
    for row in rows:
        print(f"{args.family} n={row['blocklength']}: R={row['R']:.4f} Ag={row['Ag']:.4f} "
              f"({row['method']})")
    _emit(args, "rows", rows)
    return 0


def cmd_search(args) -> int:
    rates = 8 * experiments.search_count(args.n, args.dim)  # 8 B per code bounds a row per class
    res = experiments.exhaustive_search(args.n, args.dim, _grid(args, POINT_BYTES + rates))
    best = res.ranking[0]
    gen = res.generator(best)
    print(f"examined {res.count} ({args.n},{args.dim}) codes")
    print(f"min Ag = {res.gaps[best]:.4f} at generator {' '.join(gen.row_strings())}")
    if args.format == "json":
        top10 = [{"generator": res.generator(i).row_strings(), "Ag": float(res.gaps[i])}
                 for i in res.ranking[:10]]
        _json(args, count=res.count, min_Ag=float(res.gaps[best]),
              best_generator=gen.row_strings(), ranking_top10=top10)
    else:
        order = list(res.ranking)
        gens = gf2.to01_rows(res.generators[order], res.n)
        _write(args, csv_text(["rank", "Ag", "generator"], zip(range(res.count), res.gaps[order], gens)))
    return 0


def cmd_ensemble(args) -> int:
    if (args.reference_family is None) == (args.reference_file is None):
        raise UsageError("specify exactly one reference source: "
                         "--reference-family/--reference-r or --reference-file")
    if args.reference_file is not None:
        if args.reference_r is not None:
            raise UsageError("--reference-r given without --reference-family")
        reference = codes.parse(Path(args.reference_file).read_text())
    elif args.reference_r is None:
        raise UsageError("--reference-family requires --reference-r")
    else:
        reference = experiments.FAMILY_BUILDERS[args.reference_family](args.reference_r)
    rep = experiments.ensemble_study(
        n=args.n,
        dim=args.dim,
        alpha=args.alpha,
        num_codes=args.codes,
        grid=_grid(args, (args.codes + 1) * POINT_BYTES),  # a curve per code and reference
        trials=args.trials,
        seed=args.seed,
        reference=reference,
        pool=args.pool,
    )
    ref_rates = rep.reference_curve.rates()
    points = [
        {
            "epsilon": epsv,
            "mean_rate": float(rep.mean_rates[j]),
            "best_rate": float(rep.best_rates[j]),
            "worst_rate": float(rep.worst_rates[j]),
            "ci95_halfwidth": float(rep.ci95_halfwidth[j]),
            "reference_rate": float(ref_rates[j]),
        }
        for j, epsv in enumerate(rep.grid)
    ]
    _emit(args, "points", points, reference=reference.name)
    mid = len(rep.grid) // 2
    print(
        f"ensemble of {args.codes} random ({args.n},{args.dim}) codes vs {reference.name}: "
        f"mean rate @eps={rep.grid[mid]:g} = {rep.mean_rates[mid]:.4f}, "
        f"reference = {ref_rates[mid]:.4f}"
    )
    return 0


def cmd_simulate(args) -> int:
    code = _resolve_code(args)
    rep = experiments.simulate_session(code, args.eps, args.trials, args.seed)
    _json(args, **vars(rep))
    print(
        f"{code.name} @eps={args.eps:g}: bob_success={rep.bob_success_rate:.4f} "
        f"mean_equivocation={rep.mean_equivocation:.4f} bits (stderr {rep.stderr:.4f})"
    )
    return 0


# ---------------------------------------------------------------- parser


def build_parser(command: Optional[str] = None) -> _Parser:
    """Every subcommand's parser, or `command`'s alone when it names one: argparse
    builds a help formatter per argument, so `main` builds only what it runs."""
    p = _Parser(prog="bewc", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, grid=False, mc=True):
        sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
        sp.add_argument("--threads", type=int, default=1,
                        help=f"threads that run a Monte Carlo point's batches of {eq.MC_BATCH:,} "
                        "trials, at most the CPU count; results do not depend on it (exact "
                        "methods, search and simulate run on one thread)")
        sp.add_argument("-o", "--output", help="output file (relative paths land in "
                        f"${OUTPUT_DIR_ENV} when set)")
        sp.add_argument("--format", choices=["csv", "json"], default="csv",
                        help="table format; gap, simulate and code always write JSON")
        if grid:
            points = sp.add_mutually_exclusive_group()
            points.add_argument("--grid", type=int, help="uniform eps points (default 99)")
            points.add_argument("--eps", type=float, nargs="+", help="explicit eps values")
        if mc:
            sp.add_argument("--trials", type=int, default=eq.DEFAULT_MC_TRIALS)

    def code(sp):
        sp.add_argument("action", choices=["make", "show", "validate"])
        sp.add_argument("file", nargs="?", help="code file for show/validate")
        _add_code_source(sp)
        common(sp, grid=False, mc=False)

    def curve(sp):
        _add_code_source(sp)
        sp.add_argument("--method", choices=["exact", "mc", "auto"], default="auto")
        common(sp, grid=True)

    def gap(sp):
        _add_code_source(sp)
        sp.add_argument("--method", choices=["exact", "mc", "auto"], default="auto")
        common(sp)

    def sweep(sp):
        sp.add_argument("--family", choices=sorted(experiments.FAMILY_BUILDERS), required=True)
        sp.add_argument("--rs", type=int, nargs="+", default=[3, 4, 5, 6])
        sp.add_argument("--method", choices=["exact", "mc", "auto"], default="auto")
        common(sp)

    def search(sp):
        sp.add_argument("--n", type=int, required=True)
        sp.add_argument("--dim", type=int, required=True)
        common(sp, grid=True, mc=False)

    def ensemble(sp):
        sp.add_argument("--n", type=int, required=True)
        sp.add_argument("--dim", type=int, required=True)
        sp.add_argument("--alpha", type=float, required=True)
        sp.add_argument("--codes", type=int, default=10)
        sp.add_argument("--reference-family", choices=sorted(experiments.FAMILY_BUILDERS))
        sp.add_argument("--reference-r", type=int)
        sp.add_argument("--reference-file")
        common(sp, grid=True)

    def simulate(sp):
        _add_code_source(sp)
        sp.add_argument("--eps", type=float, required=True)
        common(sp)

    commands = {  # name: its help line, what adds its arguments, what runs it
        "code": ("make / show / validate base codes", code, cmd_code),
        "curve": ("equivocation rate curve for one code", curve, cmd_curve),
        "gap": ("achievability gap at eps = R", gap, cmd_gap),
        "sweep": ("gap table across a code family", sweep, cmd_sweep),
        "search": ("exhaustive comparison of all (n,dim) codes", search, cmd_search),
        "ensemble": ("random codes vs a reference code", ensemble, cmd_ensemble),
        "simulate": ("end-to-end channel session", simulate, cmd_simulate),
    }
    for name in [command] if command in commands else commands:
        help_line, add_arguments, func = commands[name]
        sp = sub.add_parser(name, help=help_line)
        add_arguments(sp)
        sp.set_defaults(func=func)
    return p


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
        if args.threads < 1:
            raise UsageError(f"--threads must be at least 1, got {args.threads}")
        with eq.ThreadPool(args.threads) as args.pool:
            return args.func(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except GuardError as e:
        print(f"guard violation: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:  # numpy's message names the size it could not allocate
        print(f"guard violation: out of memory{f': {e}' if str(e) else ''}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
