"""Deterministic discrete-event simulation engine.

The engine is the foundation of the :mod:`repro.sim` substrate.  It provides

* a time-ordered event queue with stable FIFO ordering for simultaneous
  events (insertion order breaks ties, which keeps runs reproducible),
* cancellable timers,
* named, independently seeded random streams so that changing how one
  subsystem consumes randomness does not perturb another subsystem, and
* a tiny periodic-process helper used by beaconing, ping probers, and the
  link-management tick.

An event is one mutable list, ``[time, seq, fn, args]``: the heap entry
itself, and what :meth:`Simulator.schedule_at` returns, as the stdlib
:mod:`sched` module's ``enterabs`` returns its event.
:meth:`Simulator.cancel` cancels it, :meth:`Simulator.pending` tells a
holder whether it is still to run, and :meth:`Simulator.time_of` reads
its time.  Only this module indexes the list.

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
from typing import Any, Callable, Dict, List, Optional

from ..obs.telemetry import NULL_TELEMETRY

__all__ = ["Event", "Simulator", "PeriodicProcess"]

#: ``[time, seq, fn, args]``.  List comparison runs in C and ``seq`` is
#: unique, so heap ordering never falls through to ``fn``.  A 4-item list
#: costs what a tuple does to schedule and pop, and being mutable it is
#: its own cancellation handle.
Event = List[Any]

#: Heaps smaller than this are never compacted (not worth the churn).
_COMPACT_MIN_QUEUE = 64


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
        ``schedule_at`` and ``schedule_reserved`` are rebound on the
        instance to schedule :meth:`_Profiler.call` in place of each
        callback, and ``run()`` folds the profile into the registry when
        it returns.  Telemetry never schedules events of its own or
        consumes RNG, so enabling it does not perturb simulation results.
    """

    def __init__(self, seed: int = 0, telemetry=None):
        self.seed = seed
        self.telemetry = NULL_TELEMETRY if telemetry is None else telemetry
        self.telemetry.bind_clock(self)
        self.now: float = 0.0
        self._queue: List[Event] = []
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
    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay!r}")
        return self.schedule_at(self.now + delay, fn, *args)

    def schedule_at(self, time: float, fn: Callable[..., None], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run at absolute simulation ``time``.

        Returns the event, which :meth:`cancel` accepts.
        """
        if time != time:  # inline NaN check; math.isnan costs a call here
            raise ValueError("event time is NaN")
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < {self.now}")
        event = [time, next(self._seq), fn, args]
        heapq.heappush(self._queue, event)
        self._live += 1
        return event

    #: The old name of :meth:`schedule_at`.  Nothing in the package calls
    #: it; it stays while the traced benchmark probe
    #: (``perfbench/probe.py``) patches the name.
    schedule_fire = schedule_at

    def reserve(self, time: float) -> Event:
        """Take the place at ``time`` an event scheduled now would get.

        Returns an unscheduled event: nothing enters the heap.
        :meth:`schedule_reserved` may fill it later, and it then runs
        exactly where it would have run had :meth:`schedule_at` scheduled
        it now: ties at ``time`` break on the place, not on when it was
        filled.  A place never filled is never pending, never runs and is
        never counted.  The radio reserves one for each beacon nobody can
        hear, and fills it only if a frame queues behind that beacon (see
        :meth:`repro.sim.radio.Medium.transmit`).
        """
        return [time, next(self._seq), None, ()]

    def schedule_reserved(
        self, event: Event, fn: Callable[..., None], *args: Any
    ) -> None:
        """Schedule ``fn(*args)`` in a place taken by :meth:`reserve`.

        Each place is filled at most once.
        """
        time = event[0]
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < {self.now}")
        event[2] = fn
        event[3] = args
        heapq.heappush(self._queue, event)
        self._live += 1

    def cancel(self, event: Event) -> None:
        """Prevent ``event`` from firing.

        Idempotent, and a no-op for an event that already fired (``run()``
        clears ``fn`` before the call, so a callback cancelling its own
        event changes nothing) and for a place never filled.
        """
        if event[2] is None:
            return
        # Drop references eagerly so cancelled timers do not pin objects.
        event[2] = None
        event[3] = ()
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

    @staticmethod
    def pending(event: Event) -> bool:
        """Whether ``event`` is scheduled and has neither run nor been cancelled."""
        return event[2] is not None

    @staticmethod
    def time_of(event: Event) -> float:
        """The simulation time ``event`` runs (or ran, or would run) at."""
        return event[0]

    def _compact(self) -> None:
        """Rebuild the heap without cancelled entries (heapify is O(n)).

        Compaction mutates the list in place rather than rebinding
        ``self._queue`` so that ``run()``'s local alias to the queue stays
        valid when a callback's cancel triggers a compaction mid-run.
        """
        self._queue[:] = [e for e in self._queue if e[2] is not None]
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
                event = queue[0]
                time = event[0]
                if time > until:
                    break
                heappop(queue)
                fn = event[2]
                if fn is None:
                    # Cancelled: a place never filled is never in the heap.
                    self._cancelled_in_queue -= 1
                    continue
                if budget <= 0:
                    raise RuntimeError("event budget exhausted; possible event storm")
                budget -= 1
                self.now = time
                event[2] = None
                dispatched += 1
                fn(*event[3])
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

    def __init__(self, queue: List[Event], telemetry) -> None:
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
        first = period if phase is None else phase
        self._event: Optional[Event] = sim.schedule(first, self._tick)

    def _tick(self) -> None:
        if self._stopped:
            return
        self.fn()
        if not self._stopped:
            sim = self.sim
            self._event = sim.schedule_at(sim.now + self.period, self._tick)

    def stop(self) -> None:
        """Stop the process; pending tick (if any) is cancelled."""
        self._stopped = True
        if self._event is not None:
            self.sim.cancel(self._event)
            self._event = None

    @property
    def running(self) -> bool:
        """Whether the process is still scheduled."""
        return not self._stopped
