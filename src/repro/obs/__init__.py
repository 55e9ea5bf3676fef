"""repro.obs — unified telemetry: counters, spans, profiling, export.

The observability layer for the whole reproduction.  Components write
into a :class:`~repro.obs.telemetry.Telemetry` registry (or its no-op
null twin when disabled); per-trial :class:`TelemetrySnapshot` captures
travel inside :class:`~repro.runner.TrialResult` envelopes, merge
deterministically across pool workers, and export to
JSON / Chrome ``trace_event`` files via :mod:`repro.obs.export`.

Quick start::

    from repro.obs import Telemetry

    tele = Telemetry(enabled=True, key=("demo",))
    sim = Simulator(seed=0, telemetry=tele)
    ... run ...
    snap = tele.snapshot()

``python -m repro <experiment> --telemetry trace.json`` wires this up
end-to-end; ``python -m repro.obs validate trace.json`` schema-checks a
capture and ``python -m repro.obs summary trace.json`` prints the ASCII
summary.
"""

from .telemetry import (
    DEFAULT_TIME_BUCKETS_S,
    NULL_TELEMETRY,
    Counter,
    EventRecord,
    Gauge,
    Histogram,
    NullTelemetry,
    Scope,
    SpanHandle,
    SpanRecord,
    Telemetry,
    TelemetrySnapshot,
    merge_snapshots,
)
from .export import (
    SCHEMA,
    build_payload,
    chrome_trace_events,
    collect_snapshots,
    load_payload,
    snapshot_from_jsonable,
    snapshot_to_jsonable,
    validate_payload,
    write_payload,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Scope",
    "SpanHandle",
    "SpanRecord",
    "EventRecord",
    "Telemetry",
    "NullTelemetry",
    "NULL_TELEMETRY",
    "TelemetrySnapshot",
    "merge_snapshots",
    "DEFAULT_TIME_BUCKETS_S",
    "SCHEMA",
    "build_payload",
    "chrome_trace_events",
    "collect_snapshots",
    "load_payload",
    "snapshot_from_jsonable",
    "snapshot_to_jsonable",
    "validate_payload",
    "write_payload",
]
