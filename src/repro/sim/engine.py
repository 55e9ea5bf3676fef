"""Deterministic discrete-event simulation engine.

The engine is the foundation of the :mod:`repro.sim` substrate.  It provides

* a time-ordered event queue with stable FIFO ordering for simultaneous
  events (insertion order breaks ties, which keeps runs reproducible),
* cancellable timers,
* named, independently seeded random streams so that changing how one
  subsystem consumes randomness does not perturb another subsystem, and
* a tiny periodic-process helper used by beaconing, ping probers, and the
  link-management tick.

The design is intentionally callback-based rather than coroutine-based:
protocol logic in this package is written as explicit state machines, and
explicit machines are easier to unit-test and to reason about than implicit
generator state.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..obs.telemetry import NULL_TELEMETRY

__all__ = ["EventHandle", "Simulator", "PeriodicProcess"]

# The heap stores plain ``(time, seq, handle)`` tuples.  Tuple comparison is
# implemented in C and ``seq`` is unique, so ordering never falls through to
# the handle — measurably cheaper than a dataclass with ``order=True`` on
# the schedule/pop hot path.  Fire-and-forget events (schedule_fire) ride
# the same heap as ``(time, seq, None, fn, args)``: the unique ``seq``
# still breaks every tie, so mixed arities never compare past it.
_QueueEntry = Tuple[Any, ...]

#: Heaps smaller than this are never compacted (not worth the churn).
_COMPACT_MIN_QUEUE = 64


class EventHandle:
    """A cancellable reference to a scheduled event.

    Instances are returned by :meth:`Simulator.schedule` and
    :meth:`Simulator.schedule_at`.  Calling :meth:`cancel` before the event
    fires prevents the callback from running; cancelling after it fired is a
    harmless no-op.
    """

    __slots__ = ("fn", "args", "cancelled", "fired", "time", "_sim")

    def __init__(
        self,
        time: float,
        fn: Callable[..., None],
        args: tuple,
        sim: "Optional[Simulator]" = None,
    ):
        self.time = time
        self.fn: Optional[Callable[..., None]] = fn
        self.args = args
        self.cancelled = False
        self.fired = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing (idempotent)."""
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        # Drop references eagerly so cancelled timers do not pin objects.
        self.fn = None
        self.args = ()
        if self._sim is not None:
            self._sim._note_cancelled()

    @property
    def pending(self) -> bool:
        """True if the event has neither fired nor been cancelled."""
        return not (self.cancelled or self.fired)


class Simulator:
    """A discrete-event simulator with deterministic execution.

    Parameters
    ----------
    seed:
        Base seed for all random streams.  Two simulators constructed with
        the same seed and driven by the same code execute identically.
    telemetry:
        An optional :class:`repro.obs.Telemetry` registry.  ``None`` (the
        default) binds the shared null registry, which keeps the hot loop
        untouched: ``run()`` checks ``telemetry.enabled`` once per call and
        only the profiled loop pays per-event instrumentation.  Telemetry
        never schedules events or consumes RNG, so enabling it does not
        perturb simulation results.
    """

    def __init__(self, seed: int = 0, telemetry=None):
        self.seed = seed
        self.telemetry = NULL_TELEMETRY if telemetry is None else telemetry
        self.telemetry.bind_clock(self)
        self.now: float = 0.0
        self._queue: List[_QueueEntry] = []
        self._seq = itertools.count()
        self._streams: Dict[str, random.Random] = {}
        self._running = False
        self.events_processed = 0
        # Live = scheduled, neither fired nor cancelled.  Tracking the two
        # counts makes pending_events() O(1) and tells us when the heap is
        # mostly dead weight and worth compacting.
        self._live = 0
        self._cancelled_in_queue = 0
        self.compactions = 0

    # ------------------------------------------------------------------
    # Random streams
    # ------------------------------------------------------------------
    def rng(self, name: str) -> random.Random:
        """Return the named random stream, creating it on first use.

        Each stream is seeded from ``(base seed, stream name)`` so streams
        are mutually independent and stable across runs.
        """
        stream = self._streams.get(name)
        if stream is None:
            stream = random.Random(f"{self.seed}/{name}")
            self._streams[name] = stream
        return stream

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay!r}")
        return self.schedule_at(self.now + delay, fn, *args)

    def schedule_at(self, time: float, fn: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` to run at absolute simulation ``time``."""
        if time != time:  # inline NaN check; math.isnan costs a call here
            raise ValueError("event time is NaN")
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < {self.now}")
        handle = EventHandle(time, fn, args, self)
        heapq.heappush(self._queue, (time, next(self._seq), handle))
        self._live += 1
        return handle

    def schedule_fire(self, time: float, fn: Callable[..., None], *args: Any) -> None:
        """Schedule ``fn(*args)`` at ``time`` with no cancellation handle.

        The fire-and-forget twin of :meth:`schedule_at`, for hot callers
        whose events are never cancelled: the radio's frame deliveries and
        contended retries (invalidated by generation tokens, not
        cancellation), the AP backhaul links and management replies, and
        the world's wired legs.  It skips the :class:`EventHandle`
        allocation and the handle bookkeeping in the dispatch loop, which
        is measurable at a few hundred thousand schedules per trial.
        Dispatch order is identical to :meth:`schedule_at` — the heap
        orders on ``(time, seq)`` alone, so swapping one for the other
        never reorders events.
        """
        if time != time:  # inline NaN check; math.isnan costs a call here
            raise ValueError("event time is NaN")
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < {self.now}")
        heapq.heappush(self._queue, (time, next(self._seq), None, fn, args))
        self._live += 1

    # ------------------------------------------------------------------
    # Cancelled-event accounting (called by EventHandle.cancel)
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        self._live -= 1
        self._cancelled_in_queue += 1
        # Long drives cancel far more timers (link-layer retries, DHCP
        # budgets) than ever fire; compact once most of the heap is dead so
        # cancelled entries stop pinning memory and inflating pops.
        if (
            self._cancelled_in_queue * 2 > len(self._queue)
            and len(self._queue) >= _COMPACT_MIN_QUEUE
        ):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without cancelled entries (heapify is O(n)).

        Compaction mutates the list in place rather than rebinding
        ``self._queue`` so that ``run()``'s local alias to the queue stays
        valid when a callback's cancel triggers a compaction mid-run.
        """
        self._queue[:] = [e for e in self._queue if e[2] is None or not e[2].cancelled]
        heapq.heapify(self._queue)
        self._cancelled_in_queue = 0
        self.compactions += 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: float = math.inf, max_events: Optional[int] = None) -> None:
        """Run events in order until the queue drains or ``until`` is reached.

        The clock is advanced to ``until`` at the end of the run (when
        ``until`` is finite), so periodic processes observe a full window.
        A NaN ``until`` is rejected: no event time compares past it, so
        only the event budget could end the run.
        """
        if until != until:
            raise ValueError("run until NaN")
        if self._running:
            raise RuntimeError("simulator is already running (re-entrant run())")
        self._running = True
        budget = math.inf if max_events is None else max_events
        # Local aliases shave attribute lookups off the per-event cost;
        # _compact() mutates the queue list in place, so the alias survives
        # mid-run compactions.
        queue = self._queue
        heappop = heapq.heappop
        # Dispatch counters accumulate locally and flush in the finally
        # block: nothing reads events_processed or pending_events() from
        # inside a callback, and two read-modify-write attribute
        # round-trips per event are measurable at city scale.
        dispatched = 0
        try:
            if self.telemetry.enabled:
                # Profiled twin of the loop below; selected once per run()
                # so the disabled path stays byte-identical to pre-telemetry.
                self._run_profiled(until, budget)
                if until != math.inf and until > self.now:
                    self.now = until
                return
            while queue:
                entry = queue[0]
                time = entry[0]
                if time > until:
                    break
                heappop(queue)
                handle = entry[2]
                if handle is None:
                    # Fire-and-forget entry (schedule_fire): no handle to
                    # bookkeep, so dispatch straight from the tuple.
                    if budget <= 0:
                        raise RuntimeError(
                            "event budget exhausted; possible event storm"
                        )
                    budget -= 1
                    self.now = time
                    dispatched += 1
                    entry[3](*entry[4])
                    continue
                if handle.cancelled:
                    self._cancelled_in_queue -= 1
                    continue
                if budget <= 0:
                    raise RuntimeError("event budget exhausted; possible event storm")
                budget -= 1
                self.now = time
                handle.fired = True
                fn, args = handle.fn, handle.args
                handle.fn, handle.args = None, ()
                dispatched += 1
                fn(*args)  # type: ignore[misc]
            if until != math.inf and until > self.now:
                self.now = until
        finally:
            self._live -= dispatched
            self.events_processed += dispatched
            self._running = False

    def _run_profiled(self, until: float, budget: float) -> None:
        """The telemetry-enabled twin of ``run()``'s hot loop.

        Profiling accumulates into local dicts (one perf_counter pair and
        two dict updates per event) and folds into the registry when the
        loop exits, so the instrumented loop stays within a small constant
        factor of the plain one.  Event/heap figures are deterministic;
        wall-clock figures are registered ``deterministic=False`` so they
        stay out of bit-equality comparisons (see
        :meth:`repro.obs.TelemetrySnapshot.deterministic`).
        """
        queue = self._queue
        heappop = heapq.heappop
        dispatch_counts: Dict[str, int] = {}
        dispatch_wall: Dict[str, float] = {}
        heap_high_water = len(queue)
        events_run = 0
        wall_start = perf_counter()
        try:
            while queue:
                entry = queue[0]
                time = entry[0]
                if time > until:
                    break
                heappop(queue)
                handle = entry[2]
                if handle is None:
                    fn = entry[3]
                    args = entry[4]
                else:
                    if handle.cancelled:
                        self._cancelled_in_queue -= 1
                        continue
                    handle.fired = True
                if budget <= 0:
                    raise RuntimeError("event budget exhausted; possible event storm")
                budget -= 1
                self.now = time
                if handle is not None:
                    fn, args = handle.fn, handle.args
                    handle.fn, handle.args = None, ()
                events_run += 1
                depth = len(queue)
                if depth > heap_high_water:
                    heap_high_water = depth
                kind = getattr(fn, "__qualname__", None) or type(fn).__name__
                tick = perf_counter()
                fn(*args)  # type: ignore[misc]
                elapsed = perf_counter() - tick
                dispatch_counts[kind] = dispatch_counts.get(kind, 0) + 1
                dispatch_wall[kind] = dispatch_wall.get(kind, 0.0) + elapsed
        finally:
            wall_s = perf_counter() - wall_start
            self._live -= events_run
            self.events_processed += events_run
            tele = self.telemetry
            # Every event is one dispatch, so "engine.events" and
            # "engine.dispatched" are equal and both reconcile exactly with
            # Simulator.events_processed.
            tele.counter("engine.events").inc(events_run)
            tele.counter("engine.dispatched").inc(events_run)
            tele.gauge("engine.heap_depth").set_max(heap_high_water)
            for kind, count in dispatch_counts.items():
                tele.counter(f"engine.dispatch.{kind}").inc(count)
            for kind, spent in dispatch_wall.items():
                tele.counter(
                    f"engine.wall.dispatch.{kind}", deterministic=False
                ).inc(spent)
            tele.counter("engine.wall.run_s", deterministic=False).inc(wall_s)
            if wall_s > 0:
                tele.gauge("engine.wall.events_per_sec", deterministic=False).set(
                    events_run / wall_s
                )

    def pending_events(self) -> int:
        """Number of not-yet-cancelled events still queued (O(1))."""
        return self._live


class PeriodicProcess:
    """Invoke a callback at a fixed period until stopped.

    The callback runs first after ``phase`` seconds (default: one full
    period), then every ``period`` seconds.  Used for beacons, ping probers,
    link-manager ticks, and metric sampling.
    """

    def __init__(
        self,
        sim: Simulator,
        period: float,
        fn: Callable[[], None],
        phase: Optional[float] = None,
    ):
        # ``isfinite`` first: NaN slips through ``<= 0`` and would fail
        # only at the first reschedule, and an infinite period parks the
        # next tick at ``t = inf``, where an unbounded run() spins forever.
        if not math.isfinite(period) or period <= 0:
            raise ValueError(f"period must be positive and finite: {period!r}")
        self.sim = sim
        self.period = period
        self.fn = fn
        self._stopped = False
        self._handle: Optional[EventHandle] = None
        first = period if phase is None else phase
        self._handle = sim.schedule(first, self._tick)

    def _tick(self) -> None:
        if self._stopped:
            return
        self.fn()
        if not self._stopped:
            sim = self.sim
            self._handle = sim.schedule_at(sim.now + self.period, self._tick)

    def stop(self) -> None:
        """Stop the process; pending tick (if any) is cancelled."""
        self._stopped = True
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    @property
    def running(self) -> bool:
        """Whether the process is still scheduled."""
        return not self._stopped
