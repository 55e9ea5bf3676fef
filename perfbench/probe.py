"""Wrappers the benchmark installs around the program's layers.

:class:`Probe` patches classes and module functions of ``repro`` for the
duration of one workload call and restores them afterwards.  Untraced, it
only times ``Simulator.run`` (the loop CPU the end-to-end rate divides by),
samples the loop's CPU and simulated clocks, times reference bursts before
each loop, and collects the media built, so the run can report which
delivery and contention paths engaged.
Traced, it also opens a span around every engine-dispatched callback and
around each cross-layer entry point, and counts calls at those boundaries.

Wrappers are installed before the workload builds its worlds: several
call sites bind methods at construction time (handler tables, the
contention state's ``interfered`` shortcut), and those bindings must pick
up the wrapped methods.
"""

from __future__ import annotations

import contextlib
import functools
import math
import signal
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Set, Tuple

from repro.core import link_manager
from repro.core.spider import SpiderClient
from repro.sim import contention, contention_vec, mobility
from repro.sim.ap import AccessPoint
from repro.sim.dhcp import DhcpClient, DhcpServer
from repro.sim.engine import PeriodicProcess, Simulator
from repro.sim.mac import Associator
from repro.sim.medium_vec import VectorIndex
from repro.sim.metrics import JoinLog
from repro.sim.nic import WifiNic
from repro.sim.radio import Medium
from repro.sim.stock_client import StockClient
from repro.sim.tcp import TcpReceiver, TcpSender
from repro.sim.traffic import ClientFlow, PingService
from repro.workloads import town

from layers import SelfTimer, layer_of_module
from reference import BURSTS_PER_LOOP, timed_bursts
from timing import Sample

#: Cross-layer entry points that get their own span: (class, method, layer).
#: Only methods a class defines itself are patched, so an override and the
#: method it overrides are wrapped separately.
SPAN_METHODS: Tuple[Tuple[type, str, str], ...] = (
    (Medium, "transmit", "medium"),
    (contention.ContentionState, "acquire", "contention"),
    (contention.ContentionState, "_interfered", "contention"),
    (contention.ContentionState, "interfered_rows", "contention"),
    (contention_vec.ContentionVecState, "_interfered", "contention"),
    (contention_vec.ContentionVecState, "interfered_rows", "contention"),
    (WifiNic, "on_frame", "mac"),
    (AccessPoint, "on_frame", "mac"),
    (DhcpServer, "handle", "dhcp"),
    (DhcpClient, "_on_frame", "dhcp"),
    (TcpSender, "on_ack", "tcp"),
    (TcpReceiver, "on_segment", "tcp"),
    (PingService, "_on_reply", "traffic"),
    (ClientFlow, "_on_data", "traffic"),
    (link_manager._JoinPipeline, "_on_associated", "lmm"),
    (link_manager._JoinPipeline, "_on_assoc_failed", "lmm"),
    (link_manager._JoinPipeline, "_on_leased", "lmm"),
    (link_manager._JoinPipeline, "_on_dhcp_failed", "lmm"),
    (link_manager._JoinPipeline, "_on_nak", "lmm"),
    (link_manager._JoinPipeline, "_on_verify_result", "lmm"),
    (StockClient, "_on_associated", "lmm"),
    (StockClient, "_on_leased", "lmm"),
    (StockClient, "_on_dhcp_failed", "lmm"),
    (StockClient, "_on_join_failed", "lmm"),
    (StockClient, "_on_nak", "lmm"),
    # Vehicle construction happens before the loop: charged to set-up.
    (SpiderClient, "__init__", "setup"),
    (SpiderClient, "start", "setup"),
    (StockClient, "__init__", "setup"),
    (StockClient, "start", "setup"),
) + tuple(
    (cls, name, "mobility")
    for cls in vars(mobility).values()
    if isinstance(cls, type) and issubclass(cls, mobility.MobilityModel)
    for name in ("position_at", "positions_at")
)

#: Methods only counted (their layer is already the caller's).
COUNT_METHODS: Tuple[Tuple[type, str], ...] = (
    (TcpSender, "_fast_retransmit"),
    (PingService, "send"),
    (VectorIndex, "survivors"),
    (Associator, "start"),
    (DhcpClient, "start"),
)

#: Span keys of client construction, the set-up spans besides ``build_town``.
CLIENT_KEYS = tuple(
    f"{cls.__name__}.{name}" for cls, name, layer in SPAN_METHODS if layer == "setup"
)

#: Process CPU between two samples of an untraced loop's clocks.
SAMPLE_INTERVAL_S = 0.005


class CpuSampler:
    """Samples ``(CPU clock, simulated clock)`` while a loop runs.

    A ``SIGPROF`` interval timer, which counts this process's CPU time,
    interrupts the loop every ``interval_s``; the handler only reads the
    two clocks, so the program does exactly what it does unsampled.  The
    samples say how much CPU each stretch of simulated time took, which
    lets the run compare the same stretch across passes (:mod:`timing`).
    """

    def __init__(self, sim: Simulator, clock: Callable[[], float], interval_s: float):
        self.sim = sim
        self.clock = clock
        self.interval_s = interval_s
        self.points: List[Sample] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        self.points.append((self.clock(), self.sim.now))

    def __enter__(self) -> "CpuSampler":
        self.points.append((self.clock(), self.sim.now))
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)
        self.points.append((self.clock(), self.sim.now))


class Patches:
    """Attribute replacements that can all be undone."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def set(self, owner: object, name: str, value: object) -> None:
        """Replace ``owner.name`` (a class's own attribute or a module global)."""
        self._saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def restore(self) -> None:
        """Put every replaced attribute back, newest first."""
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


class Probe:
    """Loop timing, media collection and (optionally) layer tracing."""

    def __init__(self, traced: bool, clock: Callable[[], float] = time.process_time):
        self.traced = traced
        self.clock = clock
        #: One :class:`CpuSampler` trajectory per untraced ``Simulator.run``.
        self.trajectories: List[List[Sample]] = []
        #: CPU of the reference bursts timed before each untraced ``run``.
        self.bursts: List[float] = []
        self.timer = SelfTimer(clock)
        self.patches = Patches()
        #: CPU seconds inside ``Simulator.run`` and simulated seconds it advanced.
        self.loop_cpu_s = 0.0
        self.sim_s = 0.0
        self.events = 0
        self.compactions = 0
        #: ``(until, clock after run)`` of every finite ``run`` call.
        self.runs: List[Tuple[float, float]] = []
        self.media: List[Medium] = []
        self.join_logs: List[JoinLog] = []
        #: Self CPU per layer accumulated inside ``Simulator.run`` only.
        self.loop_self_s: Dict[str, float] = defaultdict(float)
        #: Dispatch key -> layer, for every callback scheduled while traced.
        self.key_layer: Dict[str, str] = {}
        self.unattributed: Set[str] = set()
        self.heap_high_water = 0
        #: Receiver checks for hidden-terminal interference, and how many hit.
        self.collision_scans = 0
        self.interference_hits = 0
        self._rows_open = 0

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Patch the program; pair with :meth:`uninstall`."""
        patches = self.patches
        patches.set(Simulator, "run", self._run_wrapper(Simulator.run))
        patches.set(Medium, "__init__", self._collector(Medium.__init__, self.media))
        if not self.traced:
            return
        patches.set(JoinLog, "__init__", self._collector(JoinLog.__init__, self.join_logs))
        patches.set(Simulator, "schedule_at", self._scheduler(Simulator.schedule_at))
        patches.set(Simulator, "schedule_fire", self._scheduler(Simulator.schedule_fire))
        timer = self.timer
        for cls, name, layer in SPAN_METHODS:
            if name in vars(cls):
                method = vars(cls)[name]
                if name == "_interfered":
                    method = self._scan_counter(method)
                elif name == "interfered_rows":
                    method = self._rows_counter(method)
                span = timer.wrap(layer, method, f"{cls.__name__}.{name}")
                patches.set(cls, name, functools.wraps(method)(span))
        for cls, name in COUNT_METHODS:
            patches.set(cls, name, self._counter(vars(cls)[name], f"{cls.__name__}.{name}"))
        # ``build_town`` is imported by name into the modules that call it.
        build_town = town.build_town
        wrapped = timer.wrap("setup", build_town, "build_town")
        for name, module in list(sys.modules.items()):
            if name.startswith("repro.") and vars(module).get("build_town") is build_town:
                patches.set(module, "build_town", wrapped)

    def uninstall(self) -> None:
        """Undo :meth:`install`."""
        self.patches.restore()

    # ------------------------------------------------------------------
    def _run_wrapper(self, run: Callable) -> Callable:
        inner = self.timer.wrap("engine", run, "Simulator.run") if self.traced else run
        clock = self.clock

        @functools.wraps(run)
        def timed_run(sim: Simulator, until: float = math.inf, max_events=None):
            now, events, compactions = sim.now, sim.events_processed, sim.compactions
            before = dict(self.timer.self_s)
            sampler = None
            if not self.traced:
                self.bursts += timed_bursts(BURSTS_PER_LOOP, clock)
                sampler = CpuSampler(sim, clock, SAMPLE_INTERVAL_S)
            start = clock()
            try:
                with sampler or contextlib.nullcontext():
                    return inner(sim, until, max_events)
            finally:
                self.loop_cpu_s += clock() - start
                if sampler is not None:
                    self.trajectories.append(sampler.points)
                self.sim_s += sim.now - now
                self.events += sim.events_processed - events
                self.compactions += sim.compactions - compactions
                if until != math.inf:
                    self.runs.append((until, sim.now))
                for layer, spent in self.timer.self_s.items():
                    self.loop_self_s[layer] += spent - before.get(layer, 0.0)

        return timed_run

    @staticmethod
    def _collector(init: Callable, into: list) -> Callable:
        @functools.wraps(init)
        def collecting_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            into.append(obj)

        return collecting_init

    def _counter(self, fn: Callable, key: str) -> Callable:
        calls = self.timer.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _scan_counter(self, fn: Callable) -> Callable:
        """Count single-receiver interference checks and their hits.

        Checks made from inside ``interfered_rows`` are already counted
        there, one per row.
        """

        @functools.wraps(fn)
        def scanned(*args):
            hit = fn(*args)
            if not self._rows_open:
                self.collision_scans += 1
                self.interference_hits += bool(hit)
            return hit

        return scanned

    def _rows_counter(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def scanned_rows(state, sender_id, channel, rows, start, done):
            self._rows_open += 1
            try:
                flags = fn(state, sender_id, channel, rows, start, done)
            finally:
                self._rows_open -= 1
            self.collision_scans += len(rows)
            self.interference_hits += sum(map(bool, flags))
            return flags

        return scanned_rows

    def _scheduler(self, schedule: Callable) -> Callable:
        """Wrap each scheduled callback in a span of its owning layer."""
        wrap = self.timer.wrap
        resolved: Dict[object, Tuple[str, str]] = {}

        @functools.wraps(schedule)
        def traced_schedule(sim: Simulator, when: float, fn: Callable, *args):
            target = getattr(fn, "__func__", fn)
            if target is PeriodicProcess._tick:
                # A periodic tick belongs to the function it ticks.
                target = getattr(fn.__self__.fn, "__func__", fn.__self__.fn)
                prefix = "tick:"
            else:
                prefix = "dispatch:"
            if isinstance(target, functools.partial):
                target = target.func
            # Closures are new function objects per call; their code is shared.
            cache_key = (prefix, getattr(target, "__code__", None) or type(target))
            found = resolved.get(cache_key)
            if found is None:
                found = resolved[cache_key] = self._resolve(prefix, target)
            layer, key = found
            result = schedule(sim, when, wrap(layer, fn, key), *args)
            # Heap length, cancelled entries included: the definition of the
            # engine's own ``engine.heap_depth`` gauge.  (``pending_events``
            # is not updated until ``run`` returns.)
            depth = len(sim._queue)
            if depth > self.heap_high_water:
                self.heap_high_water = depth
            return result

        return traced_schedule

    def _resolve(self, prefix: str, target: object) -> Tuple[str, str]:
        module = getattr(target, "__module__", None)
        name = getattr(target, "__qualname__", type(target).__qualname__)
        key = f"{prefix}{name}"
        layer = layer_of_module(module)
        if layer is None:
            self.unattributed.add(f"{module}:{name}")
            layer = "unattributed"
        self.key_layer[key] = layer
        return layer, key

    # ------------------------------------------------------------------
    @property
    def dispatched(self) -> int:
        """Callbacks the engine dispatched while traced."""
        return sum(self.timer.calls[key] for key in self.key_layer)

    @property
    def attributed_s(self) -> float:
        """Loop CPU charged to named layers."""
        return sum(s for layer, s in self.loop_self_s.items() if layer != "unattributed")

    @property
    def position_queries(self) -> int:
        """Calls to the mobility models' ``position_at``."""
        return sum(n for key, n in self.timer.calls.items() if key.endswith(".position_at"))

    def ticks(self, layer: str) -> int:
        """Periodic ticks dispatched for functions of ``layer``."""
        return sum(
            n
            for key, n in self.timer.calls.items()
            if key.startswith("tick:") and self.key_layer.get(key) == layer
        )

