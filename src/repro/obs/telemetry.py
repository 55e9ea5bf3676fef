"""Unified telemetry: counters, gauges, histograms, spans, and events.

This module is the core of the :mod:`repro.obs` subsystem.  It provides a
:class:`Telemetry` registry that simulation components write into and an
immutable :class:`TelemetrySnapshot` that travels inside the existing
:class:`~repro.runner.TrialResult` envelopes, so per-trial observations
survive the process-pool and fleet-shard fan-out and can be merged back
deterministically (same bit-for-bit discipline as the metric merges).

Design constraints, in order of importance:

1. **The disabled path is free, and there is only one.**  ``Simulator``
   defaults to the shared :data:`NULL_TELEMETRY` singleton; components
   cache their instruments at construction time, so a disabled run pays
   one no-op method call on rare paths and *nothing* on the engine hot
   loop.  An enabled registry wraps the code it measures instead of
   selecting a second copy of it: the simulator rebinds ``schedule_at``
   and ``schedule_reserved`` on the instance so each callback runs
   through a profiler in the same dispatch loop, and the contention state
   wraps its ``acquire`` and its one hidden-terminal scan the same way.  The
   ``telemetry_overhead`` micro-benchmark in ``benchmarks/`` pins the
   disabled path.
2. **Determinism.**  Instruments and span/event timestamps use *simulated*
   time and never consume RNG or schedule events, so enabling telemetry
   cannot perturb a run.  Wall-clock measurements (engine profiling) are
   flagged ``deterministic=False`` and kept in a separate snapshot field so
   bit-equality tests can compare :meth:`TelemetrySnapshot.deterministic`
   projections across process layouts.
3. **Mergeability.**  Snapshots are frozen, picklable, and merge by simple
   algebra: counters and histograms sum, gauges take the high-water max,
   spans/events concatenate in merge order.  Replica snapshots (fleet
   shards re-simulating the same coupled world) deduplicate by ``key``.

See :mod:`repro.obs.export` for JSON / Chrome ``trace_event`` output.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "SpanHandle",
    "SpanRecord",
    "EventRecord",
    "Telemetry",
    "Scope",
    "NullTelemetry",
    "NULL_TELEMETRY",
    "TelemetrySnapshot",
    "merge_snapshots",
    "DEFAULT_TIME_BUCKETS_S",
]

#: Fixed bucket upper bounds (seconds) for latency-style histograms.  Fixed
#: buckets — not adaptive ones — are what make histograms mergeable across
#: workers without resampling.
DEFAULT_TIME_BUCKETS_S: Tuple[float, ...] = (
    0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 5.0, 10.0, 30.0,
)

#: Keep at most this many closed spans / events per registry; overflow is
#: counted, not silently dropped.  A 300 s town trial produces a few hundred
#: spans, so the cap only matters for runaway instrumentation.
DEFAULT_MAX_SPANS = 50_000
DEFAULT_MAX_EVENTS = 50_000

Attrs = Tuple[Tuple[str, Any], ...]


def _freeze_attrs(attrs: Dict[str, Any]) -> Attrs:
    """Sort and freeze span/event attributes into a hashable tuple."""
    return tuple(sorted(attrs.items()))


# ---------------------------------------------------------------------------
# Instruments
# ---------------------------------------------------------------------------
class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value", "deterministic")

    def __init__(self, name: str, deterministic: bool = True):
        self.name = name
        self.value = 0.0
        self.deterministic = deterministic

    def inc(self, n: float = 1.0) -> None:
        self.value += n


class Gauge:
    """A point-in-time value that also tracks its high-water mark."""

    __slots__ = ("name", "value", "high_water", "deterministic")

    def __init__(self, name: str, deterministic: bool = True):
        self.name = name
        self.value = 0.0
        self.high_water = 0.0
        self.deterministic = deterministic

    def set(self, value: float) -> None:
        self.value = value
        if value > self.high_water:
            self.high_water = value

    def set_max(self, value: float) -> None:
        """Raise the high-water mark without touching the last value."""
        if value > self.high_water:
            self.high_water = value


class Histogram:
    """A fixed-bucket histogram (bucket i counts values <= bounds[i]).

    ``counts`` has ``len(bounds) + 1`` entries; the last is the overflow
    bucket.  ``sum``/``count`` allow mean reconstruction after merging.
    """

    __slots__ = ("name", "bounds", "counts", "sum", "count", "deterministic")

    def __init__(
        self,
        name: str,
        bounds: Sequence[float] = DEFAULT_TIME_BUCKETS_S,
        deterministic: bool = True,
    ):
        self.name = name
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0
        self.deterministic = deterministic

    def observe(self, value: float) -> None:
        # bisect_left gives Prometheus "le" semantics: a value exactly on a
        # bound lands in that bound's bucket, not the next one.
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1


class _NullInstrument:
    """No-op stand-in for every instrument kind on the disabled path."""

    __slots__ = ()

    def inc(self, n: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def set_max(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


NULL_INSTRUMENT = _NullInstrument()


# ---------------------------------------------------------------------------
# Spans and events
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SpanRecord:
    """An immutable, picklable record of one (possibly still open) span."""

    name: str
    start_s: float
    end_s: Optional[float]
    status: str
    attrs: Attrs = ()

    @property
    def duration_s(self) -> float:
        """Span duration; 0.0 for spans still open at snapshot time."""
        return 0.0 if self.end_s is None else self.end_s - self.start_s

    def attr(self, key: str, default: Any = None) -> Any:
        for k, v in self.attrs:
            if k == key:
                return v
        return default


@dataclass(frozen=True)
class EventRecord:
    """An instantaneous, sim-time-stamped structured event."""

    name: str
    time_s: float
    attrs: Attrs = ()

    def attr(self, key: str, default: Any = None) -> Any:
        for k, v in self.attrs:
            if k == key:
                return v
        return default


class SpanHandle:
    """A live span: created by ``begin_span``/``span``, closed by ``end``.

    The handle doubles as a context manager — ``with tele.span("join")``
    ends with status ``"ok"`` (or ``"error"`` if the block raises).  The
    join pipeline is callback-based, so most instrumentation holds the
    handle and calls :meth:`end` explicitly; ``end`` is idempotent.
    """

    __slots__ = ("_tele", "_seq", "name", "start_s", "_attrs", "_ended")

    def __init__(self, tele: "Telemetry", seq: int, name: str, start_s: float, attrs: Dict[str, Any]):
        self._tele = tele
        self._seq = seq
        self.name = name
        self.start_s = start_s
        self._attrs = attrs
        self._ended = False

    @property
    def ended(self) -> bool:
        return self._ended

    def end(self, status: str = "ok", **attrs: Any) -> None:
        """Close the span (idempotent); late ``attrs`` merge over early ones."""
        if self._ended:
            return
        self._ended = True
        if attrs:
            self._attrs.update(attrs)
        self._tele._finish_span(self, status)

    def __enter__(self) -> "SpanHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.end("error" if exc_type is not None else "ok")


class _NullSpan:
    """No-op span handle returned by the disabled path."""

    __slots__ = ()
    ended = False

    def end(self, status: str = "ok", **attrs: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


NULL_SPAN = _NullSpan()


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------
class Telemetry:
    """The root registry: instruments by name, plus span/event streams.

    ``clock`` is any object with a ``now`` attribute (the
    :class:`~repro.sim.engine.Simulator`); until one is bound via
    :meth:`bind_clock`, timestamps read 0.0.  ``key`` identifies the capture
    (e.g. ``("town", label, seed)``) and drives replica-deduplication when
    snapshots from shards that re-simulated the same world are merged.
    """

    def __init__(self, enabled: bool = True, key: Tuple = ()):
        self.enabled = enabled
        self.key = tuple(key)
        self._clock: Optional[Any] = None
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._spans: List[Tuple[int, SpanRecord]] = []
        self._open_spans: List[SpanHandle] = []
        self._events: List[EventRecord] = []
        self._span_seq = 0
        self.spans_dropped = 0
        self.events_dropped = 0
        self.max_spans = DEFAULT_MAX_SPANS
        self.max_events = DEFAULT_MAX_EVENTS

    # -- clock ---------------------------------------------------------
    def bind_clock(self, clock: Any) -> None:
        """Bind a sim-time source (anything with a float ``now``)."""
        self._clock = clock

    def now(self) -> float:
        clock = self._clock
        return 0.0 if clock is None else clock.now

    # -- instruments ---------------------------------------------------
    def counter(self, name: str, deterministic: bool = True):
        """Get or create the named counter (null when disabled)."""
        if not self.enabled:
            return NULL_INSTRUMENT
        inst = self._counters.get(name)
        if inst is None:
            inst = self._counters[name] = Counter(name, deterministic)
        return inst

    def gauge(self, name: str, deterministic: bool = True):
        """Get or create the named gauge (null when disabled)."""
        if not self.enabled:
            return NULL_INSTRUMENT
        inst = self._gauges.get(name)
        if inst is None:
            inst = self._gauges[name] = Gauge(name, deterministic)
        return inst

    def histogram(
        self,
        name: str,
        bounds: Sequence[float] = DEFAULT_TIME_BUCKETS_S,
        deterministic: bool = True,
    ):
        """Get or create the named fixed-bucket histogram (null when disabled)."""
        if not self.enabled:
            return NULL_INSTRUMENT
        inst = self._histograms.get(name)
        if inst is None:
            inst = self._histograms[name] = Histogram(name, bounds, deterministic)
        return inst

    # -- spans / events ------------------------------------------------
    def begin_span(self, name: str, **attrs: Any):
        """Open a span at the current sim time; close it via ``handle.end()``."""
        if not self.enabled:
            return NULL_SPAN
        seq = self._span_seq
        self._span_seq = seq + 1
        handle = SpanHandle(self, seq, name, self.now(), attrs)
        self._open_spans.append(handle)
        return handle

    #: ``span`` is ``begin_span`` under a context-manager-friendly name.
    span = begin_span

    def _finish_span(self, handle: SpanHandle, status: str) -> None:
        self._open_spans.remove(handle)
        if len(self._spans) >= self.max_spans:
            self.spans_dropped += 1
            return
        self._spans.append(
            (
                handle._seq,
                SpanRecord(
                    name=handle.name,
                    start_s=handle.start_s,
                    end_s=self.now(),
                    status=status,
                    attrs=_freeze_attrs(handle._attrs),
                ),
            )
        )

    def event(self, name: str, **attrs: Any) -> None:
        """Record an instantaneous sim-time-stamped event."""
        if not self.enabled:
            return
        if len(self._events) >= self.max_events:
            self.events_dropped += 1
            return
        self._events.append(EventRecord(name, self.now(), _freeze_attrs(attrs)))

    # -- scoping -------------------------------------------------------
    def scope(self, prefix: str) -> "Scope":
        """A view that prefixes every instrument/span/event name."""
        return Scope(self, prefix + ".")

    # -- capture -------------------------------------------------------
    def snapshot(self, key: Optional[Tuple] = None) -> "TelemetrySnapshot":
        """Freeze the current state into an immutable, picklable snapshot.

        Spans still open (joins in flight at the end of a trial) appear
        with ``status="open"`` and ``end_s=None`` so pipeline-phase counts
        reconcile with :class:`~repro.sim.metrics.JoinLog` totals, whose
        ``incomplete`` bucket counts exactly those attempts.
        """
        spans = list(self._spans)
        for handle in self._open_spans:
            spans.append(
                (
                    handle._seq,
                    SpanRecord(
                        name=handle.name,
                        start_s=handle.start_s,
                        end_s=None,
                        status="open",
                        attrs=_freeze_attrs(handle._attrs),
                    ),
                )
            )
        spans.sort(key=lambda pair: pair[0])
        return TelemetrySnapshot(
            key=tuple(key) if key is not None else self.key,
            counters=tuple(
                sorted(
                    (c.name, c.value)
                    for c in self._counters.values()
                    if c.deterministic
                )
            ),
            nondet_counters=tuple(
                sorted(
                    (c.name, c.value)
                    for c in self._counters.values()
                    if not c.deterministic
                )
            ),
            gauges=tuple(
                sorted(
                    (g.name, g.value, g.high_water)
                    for g in self._gauges.values()
                    if g.deterministic
                )
            ),
            nondet_gauges=tuple(
                sorted(
                    (g.name, g.value, g.high_water)
                    for g in self._gauges.values()
                    if not g.deterministic
                )
            ),
            histograms=tuple(
                sorted(
                    (h.name, h.bounds, tuple(h.counts), h.sum, h.count)
                    for h in self._histograms.values()
                )
            ),
            spans=tuple(record for _, record in spans),
            events=tuple(self._events),
            spans_dropped=self.spans_dropped,
            events_dropped=self.events_dropped,
        )


class Scope:
    """A prefixing view onto a :class:`Telemetry` registry.

    Scopes are cheap and stateless; nesting concatenates prefixes
    (``tele.scope("veh0").scope("dhcp")`` writes ``veh0.dhcp.*``).  The
    per-vehicle fleet capture relies on this: every shard re-simulates the
    same coupled world, and a vehicle's telemetry is exactly the
    ``"veh{i}."``-prefixed slice of the global registry (see
    :meth:`TelemetrySnapshot.scoped`).
    """

    __slots__ = ("_tele", "_prefix")

    def __init__(self, tele: Telemetry, prefix: str):
        self._tele = tele
        self._prefix = prefix

    @property
    def enabled(self) -> bool:
        return self._tele.enabled

    def now(self) -> float:
        return self._tele.now()

    def counter(self, name: str, deterministic: bool = True):
        return self._tele.counter(self._prefix + name, deterministic)

    def gauge(self, name: str, deterministic: bool = True):
        return self._tele.gauge(self._prefix + name, deterministic)

    def histogram(
        self,
        name: str,
        bounds: Sequence[float] = DEFAULT_TIME_BUCKETS_S,
        deterministic: bool = True,
    ):
        return self._tele.histogram(self._prefix + name, bounds, deterministic)

    def begin_span(self, name: str, **attrs: Any):
        return self._tele.begin_span(self._prefix + name, **attrs)

    span = begin_span

    def event(self, name: str, **attrs: Any) -> None:
        self._tele.event(self._prefix + name, **attrs)

    def scope(self, prefix: str) -> "Scope":
        return Scope(self._tele, self._prefix + prefix + ".")


class NullTelemetry:
    """The shared disabled registry: every operation is a no-op.

    ``scope()`` returns ``self`` and the instrument getters return the
    shared null instrument, so components written against the real API pay
    a single no-op attribute lookup at construction and nothing after.
    """

    __slots__ = ()
    enabled = False
    key: Tuple = ()

    def bind_clock(self, clock: Any) -> None:
        pass

    def now(self) -> float:
        return 0.0

    def counter(self, name: str, deterministic: bool = True):
        return NULL_INSTRUMENT

    def gauge(self, name: str, deterministic: bool = True):
        return NULL_INSTRUMENT

    def histogram(self, name: str, bounds: Sequence[float] = (), deterministic: bool = True):
        return NULL_INSTRUMENT

    def begin_span(self, name: str, **attrs: Any):
        return NULL_SPAN

    span = begin_span

    def event(self, name: str, **attrs: Any) -> None:
        pass

    def scope(self, prefix: str) -> "NullTelemetry":
        return self

    def snapshot(self, key: Optional[Tuple] = None) -> None:
        return None


NULL_TELEMETRY = NullTelemetry()


# ---------------------------------------------------------------------------
# Snapshots
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class TelemetrySnapshot:
    """Frozen, picklable capture of a registry — the transport unit.

    Deterministic instruments (sim-time based) are separated from
    nondeterministic ones (wall-clock profiling) so equality tests can
    compare the :meth:`deterministic` projection across process layouts
    while still shipping profiling data in the same envelope.
    """

    key: Tuple = ()
    counters: Tuple[Tuple[str, float], ...] = ()
    nondet_counters: Tuple[Tuple[str, float], ...] = ()
    gauges: Tuple[Tuple[str, float, float], ...] = ()
    nondet_gauges: Tuple[Tuple[str, float, float], ...] = ()
    histograms: Tuple[Tuple[str, Tuple[float, ...], Tuple[int, ...], float, int], ...] = ()
    spans: Tuple[SpanRecord, ...] = ()
    events: Tuple[EventRecord, ...] = ()
    spans_dropped: int = 0
    events_dropped: int = 0

    # -- lookups -------------------------------------------------------
    def counter_value(self, name: str, default: float = 0.0) -> float:
        for key, value in self.counters:
            if key == name:
                return value
        for key, value in self.nondet_counters:
            if key == name:
                return value
        return default

    def gauge_value(self, name: str) -> Optional[Tuple[float, float]]:
        """``(value, high_water)`` for the named gauge, or ``None``."""
        for key, value, high in self.gauges + self.nondet_gauges:
            if key == name:
                return (value, high)
        return None

    def spans_named(self, name: str) -> Tuple[SpanRecord, ...]:
        return tuple(s for s in self.spans if s.name == name)

    # -- projections ---------------------------------------------------
    def deterministic(self) -> "TelemetrySnapshot":
        """Drop wall-clock instruments; what bit-equality tests compare."""
        return replace(self, nondet_counters=(), nondet_gauges=())

    def scoped(self, prefix: str) -> "TelemetrySnapshot":
        """The slice whose names start with ``prefix`` (names kept intact).

        The prefix should include the trailing dot (``"veh1."``), otherwise
        ``"veh1"`` would also capture ``"veh10.*"``.
        """
        return TelemetrySnapshot(
            key=self.key + (prefix,),
            counters=tuple(c for c in self.counters if c[0].startswith(prefix)),
            nondet_counters=tuple(
                c for c in self.nondet_counters if c[0].startswith(prefix)
            ),
            gauges=tuple(g for g in self.gauges if g[0].startswith(prefix)),
            nondet_gauges=tuple(
                g for g in self.nondet_gauges if g[0].startswith(prefix)
            ),
            histograms=tuple(
                h for h in self.histograms if h[0].startswith(prefix)
            ),
            spans=tuple(s for s in self.spans if s.name.startswith(prefix)),
            events=tuple(e for e in self.events if e.name.startswith(prefix)),
            spans_dropped=self.spans_dropped,
            events_dropped=self.events_dropped,
        )


def merge_snapshots(
    snapshots: Iterable[Optional[TelemetrySnapshot]],
    key: Tuple = ("merged",),
) -> TelemetrySnapshot:
    """Deterministically merge snapshots into one.

    The merge algebra mirrors the runner's result discipline: inputs are
    taken in submission order (``None`` entries — disabled captures — are
    skipped), counters and histogram buckets sum, gauges keep the maximum,
    and spans/events concatenate in input order.  Snapshots sharing a
    non-empty ``key`` are *replicas* (fleet shards re-simulate the same
    coupled world); only the first replica contributes, which is what makes
    the sharded merge bit-identical to the single-process capture.
    """
    counters: Dict[str, float] = {}
    nondet_counters: Dict[str, float] = {}
    gauges: Dict[str, Tuple[float, float]] = {}
    nondet_gauges: Dict[str, Tuple[float, float]] = {}
    histograms: Dict[str, Tuple[Tuple[float, ...], List[int], float, int]] = {}
    spans: List[SpanRecord] = []
    events: List[EventRecord] = []
    spans_dropped = 0
    events_dropped = 0
    seen_keys = set()
    for snap in snapshots:
        if snap is None:
            continue
        if snap.key:
            if snap.key in seen_keys:
                continue
            seen_keys.add(snap.key)
        for name, value in snap.counters:
            counters[name] = counters.get(name, 0.0) + value
        for name, value in snap.nondet_counters:
            nondet_counters[name] = nondet_counters.get(name, 0.0) + value
        for name, value, high in snap.gauges:
            old = gauges.get(name)
            gauges[name] = (
                (value, high)
                if old is None
                else (max(old[0], value), max(old[1], high))
            )
        for name, value, high in snap.nondet_gauges:
            old = nondet_gauges.get(name)
            nondet_gauges[name] = (
                (value, high)
                if old is None
                else (max(old[0], value), max(old[1], high))
            )
        for name, bounds, counts, total, count in snap.histograms:
            old = histograms.get(name)
            if old is None:
                histograms[name] = (bounds, list(counts), total, count)
            else:
                if old[0] != bounds:
                    raise ValueError(
                        f"histogram {name!r} has mismatched bucket bounds"
                    )
                merged = [a + b for a, b in zip(old[1], counts)]
                histograms[name] = (bounds, merged, old[2] + total, old[3] + count)
        spans.extend(snap.spans)
        events.extend(snap.events)
        spans_dropped += snap.spans_dropped
        events_dropped += snap.events_dropped
    return TelemetrySnapshot(
        key=tuple(key),
        counters=tuple(sorted(counters.items())),
        nondet_counters=tuple(sorted(nondet_counters.items())),
        gauges=tuple(sorted((n, v, h) for n, (v, h) in gauges.items())),
        nondet_gauges=tuple(
            sorted((n, v, h) for n, (v, h) in nondet_gauges.items())
        ),
        histograms=tuple(
            sorted(
                (n, bounds, tuple(counts), total, count)
                for n, (bounds, counts, total, count) in histograms.items()
            )
        ),
        spans=tuple(spans),
        events=tuple(events),
        spans_dropped=spans_dropped,
        events_dropped=events_dropped,
    )
