"""Serialize, validate, and collect :class:`TelemetrySnapshot` captures.

One ``--telemetry PATH`` file serves three readers at once:

* machines parse the ``"merged"``/``"snapshots"`` sections (schema id
  ``repro.obs/v1``, checked by :func:`validate_payload` and by the
  ``python -m repro.obs validate`` CLI used in CI),
* ``chrome://tracing`` / Perfetto load the same file directly — the
  top-level ``"traceEvents"`` key is the Chrome trace-event format, and
  Chrome ignores the extra keys,
* humans run ``python -m repro.obs summary PATH`` for the ASCII view
  rendered by :func:`repro.analysis.reporting.telemetry_summary`.

Sim-time seconds map to trace microseconds, so one simulated second reads
as one millisecond-scale block on the trace timeline.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, Iterable, List, Optional

from .telemetry import EventRecord, SpanRecord, TelemetrySnapshot, merge_snapshots

__all__ = [
    "SCHEMA",
    "snapshot_to_jsonable",
    "snapshot_from_jsonable",
    "chrome_trace_events",
    "build_payload",
    "write_payload",
    "load_payload",
    "validate_payload",
    "collect_snapshots",
]

#: Schema identifier stamped into every exported payload.
SCHEMA = "repro.obs/v1"

#: Microseconds per simulated second in the Chrome trace timeline.
_TRACE_US_PER_SIM_S = 1_000_000.0


def _attrs_to_dict(attrs) -> Dict[str, Any]:
    return {k: v for k, v in attrs}


def snapshot_to_jsonable(snap: TelemetrySnapshot) -> Dict[str, Any]:
    """A JSON-ready dict mirroring the snapshot's structure."""
    return {
        "key": list(snap.key),
        "counters": {name: value for name, value in snap.counters},
        "nondet_counters": {name: value for name, value in snap.nondet_counters},
        "gauges": {
            name: {"value": value, "high_water": high}
            for name, value, high in snap.gauges
        },
        "nondet_gauges": {
            name: {"value": value, "high_water": high}
            for name, value, high in snap.nondet_gauges
        },
        "histograms": {
            name: {
                "bounds": list(bounds),
                "counts": list(counts),
                "sum": total,
                "count": count,
            }
            for name, bounds, counts, total, count in snap.histograms
        },
        "spans": [
            {
                "name": s.name,
                "start_s": s.start_s,
                "end_s": s.end_s,
                "status": s.status,
                "attrs": _attrs_to_dict(s.attrs),
            }
            for s in snap.spans
        ],
        "events": [
            {"name": e.name, "time_s": e.time_s, "attrs": _attrs_to_dict(e.attrs)}
            for e in snap.events
        ],
        "spans_dropped": snap.spans_dropped,
        "events_dropped": snap.events_dropped,
    }


def snapshot_from_jsonable(data: Dict[str, Any]) -> TelemetrySnapshot:
    """Rebuild a snapshot from :func:`snapshot_to_jsonable` output.

    JSON turns tuple keys into lists; the round-tripped ``key`` is a tuple
    of the JSON-preserved elements, without tuple-vs-list identity with the
    original — compare snapshots before export, not across a JSON round
    trip.
    """
    return TelemetrySnapshot(
        key=tuple(data.get("key", ())),
        counters=tuple(sorted(data.get("counters", {}).items())),
        nondet_counters=tuple(sorted(data.get("nondet_counters", {}).items())),
        gauges=tuple(
            sorted(
                (name, g["value"], g["high_water"])
                for name, g in data.get("gauges", {}).items()
            )
        ),
        nondet_gauges=tuple(
            sorted(
                (name, g["value"], g["high_water"])
                for name, g in data.get("nondet_gauges", {}).items()
            )
        ),
        histograms=tuple(
            sorted(
                (
                    name,
                    tuple(h["bounds"]),
                    tuple(h["counts"]),
                    h["sum"],
                    h["count"],
                )
                for name, h in data.get("histograms", {}).items()
            )
        ),
        spans=tuple(
            SpanRecord(
                name=s["name"],
                start_s=s["start_s"],
                end_s=s["end_s"],
                status=s["status"],
                attrs=tuple(sorted(s.get("attrs", {}).items())),
            )
            for s in data.get("spans", ())
        ),
        events=tuple(
            EventRecord(
                name=e["name"],
                time_s=e["time_s"],
                attrs=tuple(sorted(e.get("attrs", {}).items())),
            )
            for e in data.get("events", ())
        ),
        spans_dropped=data.get("spans_dropped", 0),
        events_dropped=data.get("events_dropped", 0),
    )


def chrome_trace_events(snap: TelemetrySnapshot) -> List[Dict[str, Any]]:
    """Chrome ``trace_event`` list: spans as complete ("X") slices, events
    as instants ("i").  Span names double as the track (tid) so each
    instrumented component gets its own row in the viewer.
    """
    trace: List[Dict[str, Any]] = []
    for span in snap.spans:
        end_s = span.end_s if span.end_s is not None else span.start_s
        trace.append(
            {
                "name": span.name,
                "ph": "X",
                "ts": span.start_s * _TRACE_US_PER_SIM_S,
                "dur": (end_s - span.start_s) * _TRACE_US_PER_SIM_S,
                "pid": 1,
                "tid": span.name.rsplit(".", 1)[0],
                "args": dict(span.attrs, status=span.status),
            }
        )
    for event in snap.events:
        trace.append(
            {
                "name": event.name,
                "ph": "i",
                "ts": event.time_s * _TRACE_US_PER_SIM_S,
                "pid": 1,
                "tid": event.name.rsplit(".", 1)[0],
                "s": "g",
                "args": dict(event.attrs),
            }
        )
    trace.sort(key=lambda entry: entry["ts"])
    return trace


def build_payload(
    snapshots: Iterable[Optional[TelemetrySnapshot]],
    deterministic: bool = False,
) -> Dict[str, Any]:
    """The full export payload: schema id, per-capture snapshots, the
    deterministic merge, and the Chrome trace of the merge.

    ``deterministic=True`` projects every snapshot through
    :meth:`TelemetrySnapshot.deterministic` first, dropping wall-clock
    profiling instruments — the projection byte-equality gates compare
    across process layouts, worker counts, and sweep fabrics.
    """
    kept = [s for s in snapshots if s is not None]
    if deterministic:
        kept = [s.deterministic() for s in kept]
    merged = merge_snapshots(kept)
    return {
        "schema": SCHEMA,
        "snapshot_count": len(kept),
        "snapshots": [snapshot_to_jsonable(s) for s in kept],
        "merged": snapshot_to_jsonable(merged),
        "traceEvents": chrome_trace_events(merged),
    }


def write_payload(
    path: str,
    snapshots: Iterable[Optional[TelemetrySnapshot]],
    deterministic: bool = False,
) -> Dict[str, Any]:
    """Build the payload and write it to ``path``; returns the payload."""
    payload = build_payload(snapshots, deterministic=deterministic)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return payload


def load_payload(path: str) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _check_snapshot(data: Any, where: str, problems: List[str]) -> None:
    if not isinstance(data, dict):
        problems.append(f"{where}: not an object")
        return
    for section, kind in (
        ("counters", dict),
        ("nondet_counters", dict),
        ("gauges", dict),
        ("histograms", dict),
        ("spans", list),
        ("events", list),
    ):
        if not isinstance(data.get(section), kind):
            problems.append(f"{where}.{section}: missing or not a {kind.__name__}")
    for name, value in (data.get("counters") or {}).items():
        if not isinstance(value, (int, float)):
            problems.append(f"{where}.counters[{name!r}]: not a number")
    for name, hist in (data.get("histograms") or {}).items():
        if not isinstance(hist, dict) or "bounds" not in hist or "counts" not in hist:
            problems.append(f"{where}.histograms[{name!r}]: missing bounds/counts")
            continue
        if len(hist["counts"]) != len(hist["bounds"]) + 1:
            problems.append(
                f"{where}.histograms[{name!r}]: counts must have len(bounds)+1 entries"
            )
        if sum(hist["counts"]) != hist.get("count"):
            problems.append(
                f"{where}.histograms[{name!r}]: bucket counts do not sum to count"
            )
    for i, span in enumerate(data.get("spans") or []):
        if not isinstance(span, dict):
            problems.append(f"{where}.spans[{i}]: not an object")
            continue
        for req in ("name", "start_s", "status"):
            if req not in span:
                problems.append(f"{where}.spans[{i}]: missing {req!r}")
        end = span.get("end_s")
        if end is not None and "start_s" in span and end < span["start_s"]:
            problems.append(f"{where}.spans[{i}]: end_s before start_s")
    for i, event in enumerate(data.get("events") or []):
        if not isinstance(event, dict) or "name" not in event or "time_s" not in event:
            problems.append(f"{where}.events[{i}]: missing name/time_s")


def validate_payload(payload: Any) -> List[str]:
    """Structural schema check; returns a list of problems (empty = valid).

    Hand-rolled rather than jsonschema-based so validation needs nothing
    outside the standard library (the container bakes in no extra deps).
    """
    problems: List[str] = []
    if not isinstance(payload, dict):
        return ["payload: not a JSON object"]
    if payload.get("schema") != SCHEMA:
        problems.append(
            f"schema: expected {SCHEMA!r}, got {payload.get('schema')!r}"
        )
    if not isinstance(payload.get("snapshot_count"), int):
        problems.append("snapshot_count: missing or not an integer")
    snapshots = payload.get("snapshots")
    if not isinstance(snapshots, list):
        problems.append("snapshots: missing or not a list")
    else:
        if isinstance(payload.get("snapshot_count"), int) and len(
            snapshots
        ) != payload["snapshot_count"]:
            problems.append("snapshot_count: does not match len(snapshots)")
        for i, snap in enumerate(snapshots):
            _check_snapshot(snap, f"snapshots[{i}]", problems)
    if "merged" not in payload:
        problems.append("merged: missing")
    else:
        _check_snapshot(payload["merged"], "merged", problems)
    trace = payload.get("traceEvents")
    if not isinstance(trace, list):
        problems.append("traceEvents: missing or not a list")
    else:
        for i, entry in enumerate(trace):
            if not isinstance(entry, dict) or "ph" not in entry or "ts" not in entry:
                problems.append(f"traceEvents[{i}]: missing ph/ts")
                break
    return problems


def collect_snapshots(obj: Any, _depth: int = 0) -> List[TelemetrySnapshot]:
    """Recursively pull every :class:`TelemetrySnapshot` out of a result.

    Experiment results are nested dataclasses/dicts/sequences; walking them
    generically means the ``--telemetry`` flag works for any experiment
    whose result retains its trials, with no per-experiment export code.
    Order is the natural traversal order (field order, then item order),
    which is deterministic because the underlying result merge is.
    """
    found: List[TelemetrySnapshot] = []
    if _depth > 12 or obj is None or isinstance(obj, (str, bytes, int, float, bool)):
        return found
    if isinstance(obj, TelemetrySnapshot):
        return [obj]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            found.extend(collect_snapshots(getattr(obj, f.name), _depth + 1))
        return found
    if isinstance(obj, dict):
        for value in obj.values():
            found.extend(collect_snapshots(value, _depth + 1))
        return found
    if isinstance(obj, (list, tuple)):
        for item in obj:
            found.extend(collect_snapshots(item, _depth + 1))
        return found
    return found
