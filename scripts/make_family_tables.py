#!/usr/bin/env python3
"""Achievability-gap tables for the Hamming and simplex families.

Every row is exact: the rank profile up to n = 15, the support profile at
n = 31 and 63.  --trials and --seed are passed on, but only a Monte Carlo
row would use them.  Writes gaps_<family>.csv, the CSV of `bewc sweep`.
"""

import argparse
import sys
from pathlib import Path

from bewc import cli


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=10**6)
    ap.add_argument("--seed", type=int, default=cli.DEFAULT_SEED)
    ap.add_argument("--outdir", type=Path, default=Path("results"))
    args = ap.parse_args()
    for family in ("hamming", "simplex"):
        argv = ["sweep", "--family", family, "--rs", "3", "4", "5", "6",
                "--trials", str(args.trials), "--seed", str(args.seed),
                "-o", str(args.outdir.resolve() / f"gaps_{family}.csv")]
        if status := cli.main(argv):
            return status
    return 0


if __name__ == "__main__":
    sys.exit(main())
