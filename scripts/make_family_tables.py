#!/usr/bin/env python3
"""Achievability-gap tables for the Hamming and simplex families.

Every row is exact: the rank profile up to n = 15, the support profile at
n = 31 and 63.  Writes gaps_<family>.csv, the CSV of `bewc sweep`.
"""

import argparse
import sys
from pathlib import Path

from bewc import cli


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", type=Path, default=Path("results"))
    args = ap.parse_args()
    for family in ("hamming", "simplex"):
        argv = ["sweep", "--family", family, "--rs", "3", "4", "5", "6",
                "-o", str(args.outdir.resolve() / f"gaps_{family}.csv")]
        if status := cli.main(argv):
            return status
    return 0


if __name__ == "__main__":
    sys.exit(main())
