"""The host the benchmark runs on: what it is, and how much CPU other
tenants took from it.

A virtual machine's CPUs lose time to other tenants (steal), which the
kernel counts in ``/proc/stat``.  Wall-clock figures here are measured
in short sub-windows, and :meth:`Windows.least_stolen` keeps only the
half of the sub-windows with the least steal, so a burst of steal moves
the figure only when it covers most of a run.
"""

from __future__ import annotations

import bisect
import os
import platform
import statistics
import time
from typing import Callable, List, Sequence, Tuple

_TICKS = os.sysconf("SC_CLK_TCK")


def info() -> dict:
    """Core count, CPU model, Python and numpy versions."""
    import numpy

    model = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def steal_s() -> float:
    """CPU seconds stolen from all of the host's CPUs since boot."""
    with open("/proc/stat") as f:
        fields = f.readline().split()  # "cpu user nice system idle iowait irq softirq steal ..."
    return int(fields[8]) / _TICKS


class Windows:
    """Consecutive sub-windows of a measurement, each with its steal.

    Call :meth:`mark` at the start and at the end of every sub-window.
    """

    def __init__(self) -> None:
        self.marks: List[Tuple[float, float]] = []  # (perf_counter, steal_s)

    def mark(self) -> None:
        self.marks.append((time.perf_counter(), steal_s()))

    def least_stolen(
        self,
        events: Sequence[Tuple[float, float]],
        stat: Callable[[List[float], float], float],
    ) -> float:
        """Median, over the least-stolen half of the sub-windows, of
        ``stat(values, seconds)``: ``values`` are those of the ``(time,
        value)`` events (sorted by time) that fall in a sub-window."""
        times = [t for t, _ in events]
        per = []
        for (t0, s0), (t1, s1) in zip(self.marks, self.marks[1:]):
            lo, hi = bisect.bisect_left(times, t0), bisect.bisect_left(times, t1)
            if hi > lo:
                per.append((s1 - s0, stat([v for _, v in events[lo:hi]], t1 - t0)))
        if not per:
            raise RuntimeError("no sub-window holds an event")
        cut = statistics.median(s for s, _ in per)
        return statistics.median(v for s, v in per if s <= cut)

    def steal_share(self) -> float:
        """Stolen share of the host's CPU time over all sub-windows."""
        (t0, s0), (t1, s1) = self.marks[0], self.marks[-1]
        return (s1 - s0) / ((t1 - t0) * (os.cpu_count() or 1))
