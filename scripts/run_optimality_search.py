#!/usr/bin/env python3
"""Exhaustive equivocation comparison of every (7,4) and (7,3) base code.

Reports whether the Hamming (resp. simplex) row space tops the equivocation
curve at every grid point and minimizes the achievability gap, and writes
the full per-code curve matrix for plotting.
"""

import argparse
from pathlib import Path

import bewc
from bewc import cli, codes, equivocation as eq


def run(n: int, dim: int, family_code, outdir: Path) -> None:
    res = bewc.exhaustive_search(n, dim, eq.DEFAULT_GRID)
    canon = codes.canonical_generator(family_code.G)
    idx = next(i for i in range(res.count) if res.generator(i) == canon)
    everywhere = all(res.classes[idx] in s for s in res.argmax_classes)
    print(f"({n},{dim}): {res.count} codes; {family_code.name} argmax at every eps: "
          f"{everywhere}; its Ag {res.gaps[idx]:.5f} vs min {res.gaps.min():.5f}")
    out = outdir / f"search_{n}_{dim}_rates.csv"
    rows = [[";".join(res.generator(i).row_strings()), *res.class_rates[res.classes[i]]]
            for i in range(res.count)]
    out.write_text(cli.csv_text(["generator", *eq.DEFAULT_GRID], rows))
    print(f"wrote {out}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", type=Path, default=Path("results"))
    args = ap.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)
    run(7, 4, bewc.hamming_base(3), args.outdir)
    run(7, 3, bewc.simplex_base(3), args.outdir)


if __name__ == "__main__":
    main()
