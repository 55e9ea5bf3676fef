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
        default) binds the shared null registry.  An enabled registry
        wraps the one dispatch loop rather than replacing it:
        ``schedule_at``, ``schedule_fire`` and ``schedule_reserved`` are
        rebound on the instance to schedule :meth:`_Profiler.call` in
        place of each callback, and
        ``run()`` folds the profile into the registry when it returns.
        Telemetry never schedules events of its own or consumes RNG, so
        enabling it does not perturb simulation results.
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
        self._profiler: Optional[_Profiler] = None
        if self.telemetry.enabled:
            self._profiler = profiler = _Profiler(self._queue, self.telemetry)
            self.schedule_at = profiler.wrap(self.schedule_at)  # type: ignore[method-assign]
            self.schedule_fire = profiler.wrap(self.schedule_fire)  # type: ignore[method-assign]
            self.schedule_reserved = profiler.wrap(self.schedule_reserved)  # type: ignore[method-assign]

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

    def reserve(self, time: float) -> Tuple[float, int]:
        """Take the place at ``time`` an event scheduled now would get.

        Nothing is scheduled.  :meth:`schedule_reserved` may fill the
        place later, and the event then runs exactly where it would have
        run had :meth:`schedule_fire` scheduled it now: ties at ``time``
        break on the place, not on when it was filled.  A place never
        filled costs nothing.  The radio reserves one for each beacon
        nobody can hear, and fills it only if a frame queues behind that
        beacon (see :meth:`repro.sim.radio.Medium.transmit`).
        """
        return (time, next(self._seq))

    def schedule_reserved(
        self, place: Tuple[float, int], fn: Callable[..., None], *args: Any
    ) -> None:
        """Schedule ``fn(*args)`` in a place taken by :meth:`reserve`.

        Fire-and-forget, like :meth:`schedule_fire`; each place is filled
        at most once.
        """
        time, seq = place
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < {self.now}")
        heapq.heappush(self._queue, (time, seq, None, fn, args))
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
        profiler = self._profiler
        if profiler is not None:
            profiler.start()
        try:
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
            if profiler is not None:
                profiler.fold(dispatched)

    def pending_events(self) -> int:
        """Number of not-yet-cancelled events still queued (O(1))."""
        return self._live


class _Profiler:
    """Per-callback counts and wall time for a telemetry-enabled simulator.

    :meth:`wrap` turns a scheduling method into one that schedules
    ``call(fn, args)`` in place of ``fn(*args)``, so every dispatch of
    ``run()``'s one loop passes through :meth:`call`.  Figures accumulate
    in local dicts and fold into the registry once per ``run()``.  Event
    and heap figures are deterministic; wall-clock figures are registered
    ``deterministic=False`` so they stay out of bit-equality comparisons
    (see :meth:`repro.obs.TelemetrySnapshot.deterministic`).
    """

    __slots__ = ("_queue", "_tele", "_counts", "_wall", "_high_water", "_run_start")

    def __init__(self, queue: List[_QueueEntry], telemetry) -> None:
        # The simulator's own heap list: compaction mutates it in place.
        self._queue = queue
        self._tele = telemetry
        self._counts: Dict[str, int] = {}
        self._wall: Dict[str, float] = {}
        self._high_water = 0
        self._run_start = 0.0

    def wrap(self, schedule: Callable[..., Any]) -> Callable[..., Any]:
        call = self.call

        def profiled(when: Any, fn: Callable[..., None], *args: Any) -> Any:
            return schedule(when, call, fn, args)

        return profiled

    def call(self, fn: Callable[..., None], args: tuple) -> None:
        # Called right after run() popped this event: the heap length now
        # is what engine.heap_depth's high-water mark is defined over.
        depth = len(self._queue)
        if depth > self._high_water:
            self._high_water = depth
        kind = getattr(fn, "__qualname__", None) or type(fn).__name__
        tick = perf_counter()
        fn(*args)
        elapsed = perf_counter() - tick
        self._counts[kind] = self._counts.get(kind, 0) + 1
        self._wall[kind] = self._wall.get(kind, 0.0) + elapsed

    def start(self) -> None:
        """Open a ``run()``: the heap at entry counts toward the high-water."""
        if len(self._queue) > self._high_water:
            self._high_water = len(self._queue)
        self._run_start = perf_counter()

    def fold(self, events: int) -> None:
        """Close a ``run()`` that dispatched ``events`` callbacks."""
        wall_s = perf_counter() - self._run_start
        tele = self._tele
        # Every event is one dispatch: "engine.events" reconciles exactly
        # with Simulator.events_processed and with the sum of the
        # "engine.dispatch.*" counts.
        tele.counter("engine.events").inc(events)
        tele.gauge("engine.heap_depth").set_max(self._high_water)
        for kind, count in self._counts.items():
            tele.counter(f"engine.dispatch.{kind}").inc(count)
        for kind, spent in self._wall.items():
            tele.counter(f"engine.wall.dispatch.{kind}", deterministic=False).inc(spent)
        self._counts.clear()
        self._wall.clear()
        tele.counter("engine.wall.run_s", deterministic=False).inc(wall_s)
        if wall_s > 0:
            tele.gauge("engine.wall.events_per_sec", deterministic=False).set(
                events / wall_s
            )


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
