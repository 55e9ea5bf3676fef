"""Unit and integration tests for the ``repro.obs`` telemetry subsystem.

Covers the instrument/span/event registry, the snapshot merge algebra,
JSON + Chrome ``trace_event`` export with its schema validator, and the
integration invariants the subsystem was built around: telemetry never
perturbs simulation results, the join-span breakdown reconciles with
``JoinLog`` totals, and the ``medium.drops`` counter matches the radio's
own loss count.
"""

from __future__ import annotations

import pickle
from dataclasses import replace

import pytest

from repro.core.schedule import OperationMode
from repro.experiments.common import run_town_trial
from repro.experiments.dense_town import run_dense_trial
from repro.experiments.town_runs import spider_factory
from repro.obs.export import (
    build_payload,
    chrome_trace_events,
    collect_snapshots,
    load_payload,
    snapshot_from_jsonable,
    snapshot_to_jsonable,
    validate_payload,
    write_payload,
)
from repro.obs.telemetry import (
    NULL_TELEMETRY,
    NullTelemetry,
    Telemetry,
    TelemetrySnapshot,
    merge_snapshots,
)
from repro.sim.engine import Simulator


class _Clock:
    def __init__(self, now: float = 0.0):
        self.now = now


# ----------------------------------------------------------------------
# Instruments
# ----------------------------------------------------------------------
class TestInstruments:
    def test_counter_accumulates(self):
        tele = Telemetry()
        c = tele.counter("hits")
        c.inc()
        c.inc(2.5)
        assert tele.snapshot().counter_value("hits") == 3.5

    def test_counter_is_shared_by_name(self):
        tele = Telemetry()
        tele.counter("x").inc()
        tele.counter("x").inc()
        assert tele.snapshot().counter_value("x") == 2.0

    def test_gauge_tracks_high_water(self):
        tele = Telemetry()
        g = tele.gauge("depth")
        g.set(5.0)
        g.set(2.0)
        g.set_max(3.0)  # below high-water: no effect
        assert tele.snapshot().gauge_value("depth") == (2.0, 5.0)

    def test_histogram_buckets_and_overflow(self):
        tele = Telemetry()
        h = tele.histogram("lat", bounds=(1.0, 2.0))
        for v in (0.5, 1.0, 1.5, 99.0):
            h.observe(v)
        (name, bounds, counts, total, count), = tele.snapshot().histograms
        assert name == "lat" and bounds == (1.0, 2.0)
        assert counts == (2, 1, 1)  # <=1, <=2, overflow
        assert count == 4 and total == pytest.approx(102.0)

    def test_disabled_registry_returns_null_instruments(self):
        tele = Telemetry(enabled=False)
        c = tele.counter("hits")
        c.inc()  # must be a no-op, not an error
        assert tele.snapshot().counters == ()

    def test_null_telemetry_is_inert(self):
        assert NULL_TELEMETRY.enabled is False
        assert NULL_TELEMETRY.scope("a") is NULL_TELEMETRY
        NULL_TELEMETRY.counter("x").inc()
        NULL_TELEMETRY.event("e", k=1)
        span = NULL_TELEMETRY.begin_span("s")
        span.end()
        assert NULL_TELEMETRY.snapshot() is None

    def test_simulator_defaults_to_null(self):
        assert isinstance(Simulator(seed=0).telemetry, NullTelemetry)


# ----------------------------------------------------------------------
# Spans and events
# ----------------------------------------------------------------------
class TestSpans:
    def test_span_records_sim_time_and_attrs(self):
        tele = Telemetry()
        clock = _Clock(1.0)
        tele.bind_clock(clock)
        handle = tele.begin_span("join", ap="ap1")
        clock.now = 3.5
        handle.end("ok", cached=True)
        (span,) = tele.snapshot().spans
        assert span.name == "join" and span.status == "ok"
        assert (span.start_s, span.end_s) == (1.0, 3.5)
        assert span.duration_s == pytest.approx(2.5)
        assert span.attr("ap") == "ap1" and span.attr("cached") is True

    def test_end_is_idempotent(self):
        tele = Telemetry()
        handle = tele.begin_span("x")
        handle.end("ok")
        handle.end("failed")  # ignored
        (span,) = tele.snapshot().spans
        assert span.status == "ok"
        assert handle.ended

    def test_context_manager_status(self):
        tele = Telemetry()
        with tele.span("fine"):
            pass
        with pytest.raises(RuntimeError):
            with tele.span("broken"):
                raise RuntimeError("boom")
        statuses = {s.name: s.status for s in tele.snapshot().spans}
        assert statuses == {"fine": "ok", "broken": "error"}

    def test_open_spans_snapshot_as_open(self):
        tele = Telemetry()
        tele.begin_span("in_flight")
        (span,) = tele.snapshot().spans
        assert span.status == "open" and span.end_s is None
        assert span.duration_s == 0.0

    def test_spans_ordered_by_begin_sequence(self):
        tele = Telemetry()
        first = tele.begin_span("first")
        second = tele.begin_span("second")
        second.end()
        first.end()  # ends later but began earlier
        assert [s.name for s in tele.snapshot().spans] == ["first", "second"]

    def test_span_cap_counts_drops(self):
        tele = Telemetry()
        tele.max_spans = 2
        for i in range(4):
            tele.begin_span(f"s{i}").end()
        snap = tele.snapshot()
        assert len(snap.spans) == 2 and snap.spans_dropped == 2

    def test_events_record_time_and_attrs(self):
        tele = Telemetry()
        tele.bind_clock(_Clock(7.0))
        tele.event("fault", action="ap_down", target="ap3")
        (event,) = tele.snapshot().events
        assert event.name == "fault" and event.time_s == 7.0
        assert event.attr("action") == "ap_down"


class TestScopes:
    def test_scope_prefixes_everything(self):
        tele = Telemetry()
        scope = tele.scope("veh0")
        scope.counter("hits").inc()
        scope.begin_span("join").end()
        scope.event("e")
        snap = tele.snapshot()
        assert snap.counter_value("veh0.hits") == 1.0
        assert snap.spans[0].name == "veh0.join"
        assert snap.events[0].name == "veh0.e"

    def test_nested_scopes_concatenate(self):
        tele = Telemetry()
        tele.scope("veh0").scope("dhcp").counter("naks").inc()
        assert tele.snapshot().counter_value("veh0.dhcp.naks") == 1.0

    def test_scoped_slice_requires_trailing_dot(self):
        tele = Telemetry()
        tele.scope("veh1").counter("a").inc()
        tele.scope("veh10").counter("a").inc()
        snap = tele.snapshot()
        assert [c[0] for c in snap.scoped("veh1.").counters] == ["veh1.a"]
        assert [c[0] for c in snap.scoped("veh10.").counters] == ["veh10.a"]


# ----------------------------------------------------------------------
# Snapshots and the merge algebra
# ----------------------------------------------------------------------
def _snap(**kwargs) -> TelemetrySnapshot:
    tele = Telemetry(key=kwargs.pop("key", ()))
    for name, value in kwargs.pop("counters", {}).items():
        tele.counter(name).inc(value)
    for name, value in kwargs.pop("gauges", {}).items():
        tele.gauge(name).set(value)
    for name, values in kwargs.pop("hist", {}).items():
        h = tele.histogram(name, bounds=(1.0, 2.0))
        for v in values:
            h.observe(v)
    assert not kwargs
    return tele.snapshot()


class TestMerge:
    def test_counters_sum_gauges_max(self):
        merged = merge_snapshots(
            [
                _snap(counters={"a": 1.0, "b": 2.0}, gauges={"g": 5.0}),
                _snap(counters={"a": 3.0}, gauges={"g": 4.0}),
            ]
        )
        assert merged.counter_value("a") == 4.0
        assert merged.counter_value("b") == 2.0
        assert merged.gauge_value("g") == (5.0, 5.0)

    def test_histogram_buckets_sum(self):
        merged = merge_snapshots(
            [_snap(hist={"h": [0.5, 1.5]}), _snap(hist={"h": [9.0]})]
        )
        (name, _bounds, counts, total, count), = merged.histograms
        assert name == "h" and counts == (1, 1, 1)
        assert count == 3 and total == pytest.approx(11.0)

    def test_histogram_bound_mismatch_raises(self):
        a = Telemetry()
        a.histogram("h", bounds=(1.0,)).observe(0.5)
        b = Telemetry()
        b.histogram("h", bounds=(2.0,)).observe(0.5)
        with pytest.raises(ValueError, match="mismatched bucket bounds"):
            merge_snapshots([a.snapshot(), b.snapshot()])

    def test_none_entries_skipped(self):
        merged = merge_snapshots([None, _snap(counters={"a": 1.0}), None])
        assert merged.counter_value("a") == 1.0

    def test_replicas_dedupe_by_key(self):
        replica = _snap(key=("fleet", 2, 0), counters={"a": 1.0})
        merged = merge_snapshots([replica, replica, replica])
        assert merged.counter_value("a") == 1.0

    def test_empty_keys_never_dedupe(self):
        merged = merge_snapshots([_snap(counters={"a": 1.0})] * 3)
        assert merged.counter_value("a") == 3.0

    def test_spans_concatenate_in_input_order(self):
        a, b = Telemetry(), Telemetry()
        a.begin_span("from_a").end()
        b.begin_span("from_b").end()
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        assert [s.name for s in merged.spans] == ["from_a", "from_b"]

    def test_deterministic_projection_drops_wall_metrics(self):
        tele = Telemetry()
        tele.counter("sim").inc()
        tele.counter("wall", deterministic=False).inc()
        tele.gauge("wall_g", deterministic=False).set(1.0)
        snap = tele.snapshot()
        assert snap.nondet_counters and snap.nondet_gauges
        det = snap.deterministic()
        assert det.nondet_counters == () and det.nondet_gauges == ()
        assert det.counter_value("sim") == 1.0

    def test_snapshot_is_picklable(self):
        tele = Telemetry(key=("t", 1))
        tele.counter("a").inc()
        tele.begin_span("s", ap="x").end()
        tele.event("e", k=1)
        snap = tele.snapshot()
        assert pickle.loads(pickle.dumps(snap)) == snap


# ----------------------------------------------------------------------
# Export
# ----------------------------------------------------------------------
class TestExport:
    def _rich_snapshot(self) -> TelemetrySnapshot:
        tele = Telemetry(key=("town", "t", 0))
        clock = _Clock(0.5)
        tele.bind_clock(clock)
        tele.counter("medium.drops").inc(3)
        tele.counter("engine.wall.x", deterministic=False).inc()
        tele.gauge("engine.heap_depth").set(9.0)
        tele.histogram("join.t", bounds=(1.0,)).observe(0.4)
        handle = tele.begin_span("veh.join", ap="a")
        clock.now = 1.25
        handle.end("ok")
        tele.event("fault", action="ap_down")
        tele.begin_span("veh.join")  # left open
        return tele.snapshot()

    def test_jsonable_round_trip(self):
        snap = self._rich_snapshot()
        assert snapshot_from_jsonable(snapshot_to_jsonable(snap)) == snap

    def test_chrome_trace_shape(self):
        trace = chrome_trace_events(self._rich_snapshot())
        spans = [t for t in trace if t["ph"] == "X"]
        instants = [t for t in trace if t["ph"] == "i"]
        assert len(spans) == 2 and len(instants) == 1
        closed = next(t for t in spans if t["dur"] > 0)
        assert closed["ts"] == pytest.approx(0.5e6)
        assert closed["dur"] == pytest.approx(0.75e6)
        assert closed["tid"] == "veh"  # component track
        assert [t["ts"] for t in trace] == sorted(t["ts"] for t in trace)

    def test_payload_validates_clean(self):
        payload = build_payload([self._rich_snapshot(), None])
        assert payload["snapshot_count"] == 1
        assert validate_payload(payload) == []

    def test_validator_catches_corruption(self):
        payload = build_payload([self._rich_snapshot()])
        payload["schema"] = "bogus/v9"
        payload["snapshot_count"] = 7
        payload["merged"]["histograms"]["join.t"]["counts"] = [1]
        problems = validate_payload(payload)
        assert any("schema" in p for p in problems)
        assert any("snapshot_count" in p for p in problems)
        assert any("join.t" in p for p in problems)

    def test_write_and_load_round_trip(self, tmp_path):
        path = tmp_path / "tele.json"
        written = write_payload(str(path), [self._rich_snapshot()])
        loaded = load_payload(str(path))
        assert loaded == written
        assert validate_payload(loaded) == []

    def test_collect_snapshots_walks_nested_results(self):
        snap = self._rich_snapshot()
        from dataclasses import dataclass, field
        from typing import List, Optional, Tuple

        @dataclass
        class Inner:
            telemetry: Optional[TelemetrySnapshot]

        @dataclass
        class Outer:
            trials: List[Inner] = field(default_factory=list)
            extra: Tuple = ()
            mapping: dict = field(default_factory=dict)

        outer = Outer(
            trials=[Inner(snap), Inner(None)],
            extra=(snap,),
            mapping={"k": [snap]},
        )
        assert collect_snapshots(outer) == [snap, snap, snap]
        assert collect_snapshots(42) == []


# ----------------------------------------------------------------------
# Integration with the simulator stack
# ----------------------------------------------------------------------
def _spider():
    return spider_factory(OperationMode.single_channel(1), 7)


class TestIntegration:
    @pytest.fixture(scope="class")
    def trial_pair(self):
        base = run_town_trial(_spider(), "obs", seed=3, duration_s=120.0)
        instrumented = run_town_trial(
            _spider(), "obs", seed=3, duration_s=120.0, telemetry=True
        )
        return base, instrumented

    def test_telemetry_never_perturbs_the_run(self, trial_pair):
        base, instrumented = trial_pair
        assert instrumented.events_processed == base.events_processed
        assert instrumented.average_throughput_kBps == base.average_throughput_kBps
        assert instrumented.connectivity_pct == base.connectivity_pct
        assert (
            instrumented.join_log.failure_breakdown()
            == base.join_log.failure_breakdown()
        )

    def test_telemetry_never_perturbs_a_contended_run(self):
        """The contended three-channel fleet of the goldens: wrapping the
        engine's scheduling and the hidden-terminal scan changes nothing
        the row reports."""
        from test_goldens import COMPACT_3CH

        off = run_dense_trial(COMPACT_3CH, seed=0)
        on = run_dense_trial(COMPACT_3CH, seed=0, telemetry=True)
        assert off.telemetry is None
        assert on.telemetry.counter_value("contention.collision_scan") > 0
        assert replace(on, telemetry=None) == off

    def test_join_spans_reconcile_with_join_log(self, trial_pair):
        _, instrumented = trial_pair
        snap = instrumented.telemetry
        breakdown = instrumented.join_log.failure_breakdown()
        joins = [s for s in snap.spans if s.name.endswith(".join")]
        assert len(joins) == breakdown["attempts"]
        by_outcome = {}
        for s in joins:
            outcome = s.status if s.status != "failed" else s.attr("stage")
            by_outcome[outcome] = by_outcome.get(outcome, 0) + 1
        assert by_outcome.get("ok", 0) == breakdown["verified"]
        assert by_outcome.get("assoc", 0) == breakdown["association_failed"]
        assert by_outcome.get("dhcp", 0) == breakdown["dhcp_failed"]
        assert by_outcome.get("verify", 0) == breakdown["verify_failed"]
        assert by_outcome.get("open", 0) + by_outcome.get("cancelled", 0) == (
            breakdown["incomplete"]
        )

    def test_engine_profile_matches_events_processed(self, trial_pair):
        _, instrumented = trial_pair
        snap = instrumented.telemetry
        assert snap.counter_value("engine.events") == instrumented.events_processed
        per_kind = sum(
            v for name, v in snap.counters if name.startswith("engine.dispatch.")
        )
        assert per_kind == snap.counter_value("engine.events")
        assert snap.counter_value("engine.wall.run_s") > 0.0
        assert snap.gauge_value("engine.heap_depth")[1] > 0

    def test_medium_drops_counter_matches_radio(self):
        tele = Telemetry(key=("drops",))
        sim = Simulator(seed=5, telemetry=tele)
        from repro.workloads.town import build_town

        town = build_town(sim, preset="amherst")
        mobility = town.make_vehicle_mobility(10.0)
        client = _spider()(sim, town.world, mobility)
        client.start()
        sim.run(until=60.0)
        snap = tele.snapshot()
        assert snap.counter_value("medium.drops") == town.world.medium.frames_lost
        assert snap.counter_value("medium.drops") > 0

    def test_merged_telemetry_counters_sum_across_trials(self):
        trials = [
            run_town_trial(
                _spider(), "m", seed=s, duration_s=60.0, telemetry=True
            )
            for s in (0, 1)
        ]
        merged = merge_snapshots([t.telemetry for t in trials])
        assert merged.counter_value("engine.events") == sum(
            t.events_processed for t in trials
        )
