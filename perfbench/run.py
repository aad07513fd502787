"""Benchmark for bewc: one workload per run, closed loop, outputs checked.

    python3 perfbench/run.py --workload gap-table --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory, never from an installed copy.  One client runs the
workload's job back to back for ``--seconds`` (it starts another job
while, going by the last one's duration, that job would end less than half
its length past the deadline, and runs at least ``MIN_JOBS``), checking
every job's outputs.

``--trace 0`` prints the end-to-end metrics: one job's wall and CPU time
(the sum of its tasks' medians), the median of ``SETUP_PROBES``
fresh-interpreter set-ups, and peak RSS.  ``--trace 1`` alternates
untraced and traced jobs and prints the per-layer metrics from the traced
ones (see ``tracing.py``), plus the tracing overhead.  Every time is
reported in reference seconds, scaled by the host speed measured in the
same run (see ``hostspeed.py``).  The last line of stdout is the JSON
result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_JOBS = 3
SETUP_PROBES = 5


def import_bewc() -> None:
    """Import bewc from the checkout's src/, or exit without a result."""
    if not (SRC / "bewc" / "__init__.py").is_file():
        sys.exit(f"error: no bewc sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import bewc

    if not Path(bewc.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"error: imported bewc from {bewc.__file__}, not from {SRC}")


def make_workload(name: str, seed: int):
    import workloads

    return workloads.WORKLOADS[name](seed, workloads.load_reference(name))


def cpu_now() -> float:
    """User plus system CPU seconds of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def setup_seconds(workload: str, seed: int, speed) -> float:
    """Median wall time of fresh interpreters that only set the workload up."""
    times = []
    for _ in range(SETUP_PROBES):
        speed.sample()
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def timed_job(wl, outdir: Path, c, speed, tracer=None) -> list[tuple[float, float]]:
    """Run one job task by task and check its outputs.

    Returns each task's (wall, CPU) seconds.
    """
    import workloads

    out, times = {}, []
    with tracer if tracer is not None else contextlib.nullcontext():
        for _, task in wl.tasks(outdir):
            speed.sample()
            w0, c0 = time.perf_counter(), cpu_now()
            part = task()
            times.append((time.perf_counter() - w0, cpu_now() - c0))
            workloads.merge(out, part)
    wl.check(c, out)
    return times


def job_time(jobs: list[list[tuple[float, float]]], field: int) -> float:
    """A job's time as the sum over its tasks of each task's median.

    Timing each task, not the whole job, gives more samples per run, so the
    median is steadier against the seconds-long slow phases of a shared host.
    """
    return sum(statistics.median(job[i][field] for job in jobs) for i in range(len(jobs[0])))


def end_to_end(wl, args, outdir: Path, c, speed) -> dict:
    setup_s = setup_seconds(args.workload, args.seed, speed)
    jobs, last_job_s = [], 0.0
    deadline = time.perf_counter() + args.seconds
    while len(jobs) < MIN_JOBS or time.perf_counter() + last_job_s / 2 < deadline:
        t0 = time.perf_counter()
        jobs.append(timed_job(wl, outdir, c, speed))
        last_job_s = time.perf_counter() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{len(jobs)} jobs; wall per job "
          + " ".join(f"{sum(w for w, _ in job):.3f}" for job in jobs))
    return {
        "wall_s": (job_time(jobs, 0), "s"),
        "cpu_s": (job_time(jobs, 1), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(wl, args, outdir: Path, c, speed) -> dict:
    import tracing

    plain, traced, tracers, last_pair_s = [], [], [], 0.0
    deadline = time.perf_counter() + args.seconds
    while len(traced) < MIN_JOBS or time.perf_counter() + last_pair_s / 2 < deadline:
        t0 = time.perf_counter()
        plain.append(timed_job(wl, outdir, c, speed))
        tracers.append(tracing.Tracer())
        traced.append(timed_job(wl, outdir, c, speed, tracers[-1]))
        last_pair_s = time.perf_counter() - t0
    counts = tracers[0].counts()
    if any(t.counts() != counts for t in tracers):
        sys.exit("error: traced call counts differ between identical jobs")
    missing = tracers[0].missing(args.workload)
    if missing:
        sys.exit(f"error: traced layers saw no call on {args.workload}: {', '.join(missing)}")

    metrics = {}
    for name, value in counts.items():
        metrics[name] = (value, "count")
    for name in tracing.LAYERS:
        for field in ("s", "self_s"):
            value = statistics.median(getattr(t.stats[name], field) for t in tracers)
            metrics[f"{name}.{field}"] = (value, "s")
    for name, work, per in (("equivocation.mc_equivocation", "trials", "ns_per_trial"),
                            ("equivocation.rank_profile", "patterns", "ns_per_pattern")):
        n = counts[f"{name}.{work}"]
        metrics[f"{name}.{per}"] = (metrics[f"{name}.s"][0] * 1e9 / n if n else 0.0, "ns")
    metrics["trace.overhead_s"] = (job_time(traced, 0) - job_time(plain, 0), "s")
    print(f"{len(traced)} traced and {len(plain)} untraced jobs")
    return metrics


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["gap-table", "exact", "search", "session"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args()

    # OpenBLAS's worker threads spin for a while after each call; on two
    # vCPUs that slows the main thread by a varying amount (search's one
    # matrix product per call is far too small to gain from them).
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    import_bewc()
    wl = make_workload(args.workload, args.seed)
    if args.setup_only:
        return 0

    import checks
    import hostspeed

    c = checks.Checker()
    speed = hostspeed.HostSpeed()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        measure = per_layer if args.trace else end_to_end
        metrics = measure(wl, args, Path(tmp), c, speed)
    scale = speed.scale()
    metrics = {name: (value * scale if unit in ("s", "ns") else value, unit)
               for name, (value, unit) in metrics.items()}

    for msg in c.messages:
        print(f"check failed: {msg}", file=sys.stderr)
    print(f"reference loop: median {statistics.median(speed.loop_s) * 1e3:.3f} ms "
          f"over {len(speed.loop_s)} samples; times below scaled by {scale:.4f}")
    print(f"outputs checked: {c.attempted}, failed: {c.failed} "
          f"(failed_frac {c.failed / max(c.attempted, 1):g})")
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:>16.6f} {unit}")
    print(json.dumps({
        "correct": c.failed == 0 and c.attempted > 0,
        "attempted": c.attempted,
        "failed": c.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
