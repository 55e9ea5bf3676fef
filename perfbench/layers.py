"""Layer map and self-time accounting for the traced benchmark run.

A *layer* is a group of ``repro`` modules.  The traced run opens a span
around every engine-dispatched callback (charged to the layer that owns
the callback's module) and around a fixed set of cross-layer entry points
(see :mod:`perfbench.probe`).  A layer's self time is the time its spans
cover minus the time covered by the spans nested directly inside them.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

#: Layer name -> the ``repro`` modules (or packages) it owns.  Every module
#: under ``repro.sim`` and ``repro.core`` must resolve to a layer; the traced
#: run fails on a dispatched callback whose module resolves to none.
LAYER_MODULES: Dict[str, tuple] = {
    "engine": ("repro.sim.engine",),
    "medium": ("repro.sim.radio", "repro.sim.medium_vec", "repro.sim.frames"),
    "contention": ("repro.sim.contention", "repro.sim.contention_vec"),
    "mac": ("repro.sim.mac", "repro.sim.nic", "repro.sim.ap"),
    "dhcp": ("repro.sim.dhcp",),
    "tcp": ("repro.sim.tcp", "repro.sim.cc", "repro.sim.world"),
    # Observers of the data plane: ping probes, throughput recorders and
    # the delivery-hook frame trace.
    "traffic": ("repro.sim.traffic", "repro.sim.metrics", "repro.sim.tracing"),
    "lmm": ("repro.core", "repro.sim.stock_client"),
    "mobility": ("repro.sim.mobility",),
    # No benchmark workload injects faults; the layer exists so that a
    # fault callback is attributed rather than failing the run.
    "faults": ("repro.sim.faults",),
    "setup": ("repro.workloads",),
    "runner": ("repro.runner", "repro.experiments"),
}

_MODULE_LAYER = {
    module: layer for layer, modules in LAYER_MODULES.items() for module in modules
}


def layer_of_module(module: Optional[str]) -> Optional[str]:
    """The layer owning ``module`` (longest matching prefix), or ``None``."""
    name = module or ""
    while name:
        layer = _MODULE_LAYER.get(name)
        if layer is not None:
            return layer
        name = name.rpartition(".")[0]
    return None


class SelfTimer:
    """Self time per layer from properly nested spans.

    :meth:`wrap` returns a callable that runs ``fn`` inside a span of
    ``layer``.  Open spans form a stack; when a span closes, its duration
    minus the durations of the spans that closed directly inside it is
    added to its layer, and its full duration is charged to the enclosing
    span as child time.  ``calls``/``inclusive_s`` accumulate per ``key``
    (span count and full span time), for counts and set-up totals.
    """

    def __init__(self, clock: Callable[[], float] = time.process_time):
        self.clock = clock
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.inclusive_s: Dict[str, float] = defaultdict(float)
        self._stack: List[List[float]] = []

    def wrap(self, layer: str, fn: Callable, key: str) -> Callable:
        """``fn`` wrapped in a ``layer`` span counted under ``key``."""
        clock = self.clock
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        inclusive_s = self.inclusive_s

        def span(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[layer] += elapsed - children[0]
                if stack:
                    stack[-1][0] += elapsed
                calls[key] += 1
                inclusive_s[key] += elapsed

        return span
