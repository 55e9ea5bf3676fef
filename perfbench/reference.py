"""A fixed reference kernel that tells how fast the host runs right now.

The benchmark shares its machine with other tenants.  Their load slows
every instruction this process runs, by up to 1.7x and for up to a minute
at a time, and the slowdown shows up as extra CPU time.  The kernel does
a fixed amount of work shaped like the simulator's: heap pushes and pops
of tuples, and attribute and dict reads over a pool of small objects a
few MB large.  Bursts of it, timed before every simulation loop, measure
the host's slowdown over the run, and the run divides it out of its CPU
figures (see ``run.end_to_end_metrics``).  The kernel does not depend on
the program, so a change to the program moves the benchmark's figures and
never the kernel's.
"""

from __future__ import annotations

import heapq
import statistics
import time
from typing import Callable, List, Sequence

#: CPU of one burst on a quiet host: a 2.1 GHz Intel Xeon vCPU running
#: Python 3.11.  Dividing by the slowdown measured against it turns the
#: run's CPU figures into CPU seconds on that quiet host.
QUIET_BURST_CPU_S = 0.0022

#: Objects in the kernel's pool.
POOL_SIZE = 16_384
#: Heap operations per burst.
BURST_OPS = 2_500
#: Bursts timed before each loop (``Simulator.run``), outside its timing.
BURSTS_PER_LOOP = 8


class _Item:
    __slots__ = ("when", "key", "attrs")

    def __init__(self, when: float, key: int) -> None:
        self.when = when
        self.key = key
        self.attrs = {"key": key, "channel": key % 11}


_POOL: List[_Item] = []
#: Where the next burst starts in the pool, so bursts sweep all of it.
_cursor = 0


def run_kernel() -> int:
    """One burst of the reference work; returns a checksum."""
    global _cursor
    if not _POOL:
        _POOL.extend(_Item(i * 0.25, i) for i in range(POOL_SIZE))
    pool = _POOL
    size = len(pool)
    heap: list = []
    push, pop = heapq.heappush, heapq.heappop
    total = 0
    start = _cursor
    _cursor = (start + BURST_OPS) % size
    for i in range(start, start + BURST_OPS):
        item = pool[(i * 7919) % size]
        push(heap, (item.when + i % 97, i, item))
        if len(heap) > 256:
            total += pop(heap)[2].attrs["channel"]
    return total


def timed_bursts(count: int, clock: Callable[[], float] = time.process_time) -> List[float]:
    """CPU of each of ``count`` bursts."""
    out = []
    for _ in range(count):
        start = clock()
        run_kernel()
        out.append(clock() - start)
    return out


def slowdown(bursts: Sequence[float]) -> float:
    """How many times slower than a quiet host the run's quiet moments were.

    The run's CPU figures come from its fastest stretches, so the kernel's
    are taken from its fast end too: the lowest decile of its bursts.
    """
    return statistics.quantiles(bursts, n=10)[0] / QUIET_BURST_CPU_S
