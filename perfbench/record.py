"""Record the reference outputs that the benchmark compares against.

    python3 perfbench/record.py [workload ...]

Runs one job of each named workload (all by default) at the reference seed
and writes ``reference/<workload>.json``.  Re-record only in a change that
redefines the benchmark; a change to the program must match the recorded
outputs instead.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from run import ROOT, import_bewc


def main(names: list[str]) -> int:
    import_bewc()
    import workloads

    for name in names or list(workloads.WORKLOADS):
        wl = workloads.WORKLOADS[name](workloads.REFERENCE_SEED, None)
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
            out = wl.run(Path(tmp))
        doc = {"seed": workloads.REFERENCE_SEED, "params": wl.params, **wl.reference_view(out)}
        path = workloads.REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
