"""Loop CPU per stretch of simulated time, and its fastest repeat.

An untraced loop's :class:`probe.CpuSampler` trajectory is a list of
``(loop CPU, simulated clock)`` samples.  The run cuts each loop's
simulated time into equal *slices* and asks how much loop CPU each slice
took.  All passes of a run simulate the same thing, so slice ``k`` of
every pass does the same work; what differs is how much load other
tenants of the host put on the shared core while it ran.  That load only
ever adds CPU time, and it comes and goes over seconds, so the fastest of
a slice's repeats is the closest to the program's own cost.
"""

from __future__ import annotations

import bisect
from typing import List, Sequence, Tuple

Sample = Tuple[float, float]


def cpu_at(points: Sequence[Sample], sim_t: float) -> float:
    """Loop CPU when the simulated clock reached ``sim_t``.

    Between two samples the CPU clock is interpolated linearly.
    """
    i = bisect.bisect_left([t for _, t in points], sim_t)
    if i == 0:
        return points[0][0]
    if i == len(points):
        return points[-1][0]
    (c0, t0), (c1, t1) = points[i - 1], points[i]
    return c0 + (c1 - c0) * (sim_t - t0) / (t1 - t0)


def slice_cpu(points: Sequence[Sample], slices: int) -> List[float]:
    """Loop CPU of each of ``slices`` equal slices of one loop's simulated time."""
    start, end = points[0][1], points[-1][1]
    cpu = [cpu_at(points, start + (end - start) * k / slices) for k in range(slices + 1)]
    return [b - a for a, b in zip(cpu, cpu[1:])]


def fastest_loop_cpu_s(passes: Sequence[Sequence[Sequence[Sample]]], slices: int) -> float:
    """A run's loop CPU with every slice taken from its fastest pass.

    ``passes`` holds each pass's loop trajectories; every pass must have
    run the same loops.
    """
    columns = zip(
        *(
            [c for points in trajectories for c in slice_cpu(points, slices)]
            for trajectories in passes
        ),
        strict=True,
    )
    return sum(min(column) for column in columns)
