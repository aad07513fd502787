"""Host speed, from a fixed reference loop timed between the tasks of a run.

On the shared 2-vCPU host the benchmark was written on, the speed of the
CPU drifts by up to ~1.5x over seconds to minutes, and every time the
benchmark measures moves with it: ten 25 s runs of one workload spread by
10-20% between their quartiles.  The benchmark therefore times this loop
before every task and reports each time scaled to one fixed host speed,

    scaled = measured * REFERENCE_LOOP_S / (median loop time of the run),

that is, in seconds of a host on which the loop takes REFERENCE_LOOP_S.
The loop is pure-Python integer work of the kind that dominates bewc (GF(2)
elimination, bit counting) and allocates no object the garbage collector
tracks, so it neither reads nor shifts the program's collector state.
"""

from __future__ import annotations

import statistics
import time

REFERENCE_LOOP_S = 0.010
SAMPLES_PER_CALL = 3


def _reference_loop() -> int:
    pivots = [0] * 64  # by lowest set bit; 0 = no pivot yet
    used = [0] * 24
    x = 0x9E3779B97F4A7C15
    total = 0
    for _ in range(300):
        rank = 0
        for _ in range(24):
            x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
            row = x >> 40
            while row:
                low = (row & -row).bit_length() - 1
                p = pivots[low]
                if not p:
                    pivots[low] = row
                    used[rank] = low
                    rank += 1
                    total += row.bit_count()
                    break
                row ^= p
        for i in range(rank):
            pivots[used[i]] = 0
    return total


class HostSpeed:
    """Reference-loop times collected over one run."""

    def __init__(self) -> None:
        self.loop_s: list[float] = []

    def sample(self) -> None:
        for _ in range(SAMPLES_PER_CALL):
            t0 = time.perf_counter()
            _reference_loop()
            self.loop_s.append(time.perf_counter() - t0)

    def scale(self) -> float:
        """Factor that turns this run's measured seconds into reference seconds."""
        return REFERENCE_LOOP_S / statistics.median(self.loop_s)
