"""Machine speed, measured around every timing so timings can be scaled to it.

On the shared 2-core VM this benchmark was built on, the same code runs up
to 40% slower for seconds to minutes at a time; CPU time slows with wall
time, so the cause is contention below the guest, not lost CPU. Medians over
one run cannot absorb a slow phase that outlasts the run. Every timed call
is therefore bracketed by a fixed chaidkit-like job that uses no chaidkit
code, and the call's seconds are scaled by ``REFERENCE_S`` over the mean
seconds of the two jobs around it: the time the call would take on a
machine where the job takes exactly ``REFERENCE_S``.
"""

from __future__ import annotations

import gc
import random
import time

#: Seconds the reference job is scaled to; about its time on the VM above.
REFERENCE_S = 0.1


def reference_loop_s() -> float:
    """Seconds of a fixed, chaidkit-like job: build records, count pairs, sum a statistic.

    Records are built in small batches, so the job adds almost nothing to
    the peak memory of the process it runs in.
    """
    gc.collect()
    started = time.perf_counter()
    rng = random.Random(0)
    counts: dict[tuple[str, str, str], int] = {}
    for _ in range(6):
        records = [
            {"a": str(rng.randrange(16)), "b": str(rng.randrange(5)), "y": str(rng.randrange(4))}
            for _ in range(5_000)
        ]
        for rec in records:
            for column in ("a", "b"):
                key = (column, rec[column], rec["y"])
                counts[key] = counts.get(key, 0) + 1
    expected = sum(counts.values()) / len(counts)
    sum((observed - expected) ** 2 / expected for observed in counts.values())
    return time.perf_counter() - started


def scaled(seconds: float, loop_s: float) -> float:
    """``seconds`` at the speed where the reference job takes ``REFERENCE_S``."""
    return seconds * REFERENCE_S / loop_s
