#!/usr/bin/env python3
"""Random-code ensembles versus algebraic references at blocklength 31.

Ten Bernoulli(0.5) random codes per configuration, Monte Carlo curves with
95% confidence half-widths on the ensemble mean, compared against the
(31,26) Hamming and (31,5) simplex base codes.  Pass --n63 to run the
(63,57) variant instead of (31,26).  Writes ensemble_<n>_<dim>.csv, the CSV
of `bewc ensemble`.
"""

import argparse
import sys
from pathlib import Path

from bewc import cli


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=10**5)
    ap.add_argument("--seed", type=int, default=cli.DEFAULT_SEED)
    ap.add_argument("--grid-points", type=int, default=19)
    ap.add_argument("--n63", action="store_true", help="use (63,57) instead of (31,26)")
    ap.add_argument("--outdir", type=Path, default=Path("results"))
    args = ap.parse_args()
    hamming = (63, 57, 6) if args.n63 else (31, 26, 5)
    for family, (n, dim, r) in (("hamming", hamming), ("simplex", (31, 5, 5))):
        argv = ["ensemble", "--n", str(n), "--dim", str(dim), "--alpha", "0.5", "--codes", "10",
                "--reference-family", family, "--reference-r", str(r),
                "--grid", str(args.grid_points), "--trials", str(args.trials),
                "--seed", str(args.seed),
                "-o", str(args.outdir.resolve() / f"ensemble_{n}_{dim}.csv")]
        if status := cli.main(argv):
            return status
    return 0


if __name__ == "__main__":
    sys.exit(main())
