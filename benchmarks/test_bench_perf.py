"""Performance harness: events/sec and wall-time per representative run.

Unlike the artifact benchmarks (which check the paper's *claims*), this
module measures the *simulator itself* and persists the numbers to
``BENCH_perf.json`` at the repository root, so the perf trajectory is
visible across PRs (the CI workflow uploads the file as an artifact).

Measured workloads:

* ``engine_micro``     — raw scheduler throughput (schedule/fire/cancel churn)
* ``town_trial``       — one multi-channel Spider drive (the common unit of
                         every experiment), with events/sec
* ``table2_suite``     — the Table 2 configuration suite, serial *and*
                         parallel, recording the wall-clock speedup
* ``timeout_grid``     — two cells of the join-timeout grid
* ``fleet``            — a two-vehicle shared-town drive
* ``fleet_sharded``    — one fleet trial's vehicles sharded across workers,
                         recording the wall-clock speedup and bit-equality
                         (shard count is clamped to the machine's cores, so
                         a 1-core CI box runs in-process at ~1.0x instead of
                         paying pure process overhead)
* ``cache_warm``       — the Table 2 suite cold then warm through the
                         content-addressed result cache, recording the
                         warm-over-cold speedup and byte-identity
* ``dense_town``       — a 250-vehicle fleet on the >1000-AP ``city``
                         preset, the receiver index with and without
                         numpy (``scalar_*``: numpy hidden), recording
                         events/sec for both, the speedup, peak RSS, and
                         row bit-equality
* ``transport_matrix`` — four cells of the transport grid (Reno/CUBIC/
                         BBR-lite end-to-end plus Reno behind the AP
                         split proxy) on one Spider policy, with the
                         aggregate events/sec across the cells
* ``contention_dense_town`` — the full 250-vehicle city with the
                         CSMA/CA model on (row equal to its golden
                         fingerprint, peak RSS < 2x the uncontended
                         dense town), plus the PR 9 acceptance bars
                         (join completion > 0.5, goodput >= 3x the
                         global-FIFO baseline)
* ``channel_assign``   — a reduced strategy x policy grid of the
                         channel-assignment experiment under contention

Scale knobs are the bench-suite ones (``REPRO_BENCH_SEEDS``,
``REPRO_BENCH_DURATION``, ``REPRO_BENCH_WORKERS``); the perf harness
deliberately trims durations so it stays cheap enough for CI.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Dict

from conftest import bench_duration, bench_seeds, bench_workers, merge_perf_results

from repro.core.schedule import OperationMode
from repro.experiments.common import run_town_trial
from repro.experiments.town_runs import spider_factory
from repro.sim.engine import Simulator

_RESULTS_PATH = Path(__file__).parent.parent / "BENCH_perf.json"
_GOLDENS_PATH = Path(__file__).parent.parent / "tests" / "goldens.json"
_PERF: Dict[str, dict] = {}

#: Perf runs are trimmed relative to the artifact benches; fidelity of the
#: *measurement* does not need hour-long drives.
_PERF_DURATION_CAP_S = 300.0


def _duration() -> float:
    return min(bench_duration(), _PERF_DURATION_CAP_S)


def _record(name: str, **fields) -> None:
    _PERF[name] = {k: round(v, 4) if isinstance(v, float) else v
                   for k, v in fields.items()}


def _persist() -> None:
    merge_perf_results(
        _PERF,
        bench_seeds=len(bench_seeds()),
        bench_duration_s=_duration(),
        bench_workers=bench_workers(),
    )


# ----------------------------------------------------------------------
def test_perf_engine_micro(report):
    """Scheduler churn: schedule + fire + a realistic cancel fraction."""
    sim = Simulator(seed=0)
    fired = 0

    def tick():
        nonlocal fired
        fired += 1
        keep = sim.schedule(1.0, tick)
        # Mirror the link-layer pattern: most armed timers are cancelled.
        for _ in range(4):
            sim.schedule(2.0, _noop).cancel()
        if fired >= 200_000:
            keep.cancel()

    for i in range(100):
        sim.schedule(0.001 * i, tick)
    t0 = time.perf_counter()
    sim.run(until=5_000.0)
    wall = time.perf_counter() - t0
    _record(
        "engine_micro",
        wall_s=wall,
        events=sim.events_processed,
        events_per_sec=sim.events_processed / wall,
        compactions=sim.compactions,
    )
    report("perf/engine_micro", json.dumps(_PERF["engine_micro"], indent=2))
    assert sim.events_processed >= 200_000


def _noop():
    pass


def test_perf_town_trial(report):
    """One multi-channel Spider drive — the unit every experiment repeats."""
    factory = spider_factory(OperationMode.equal_split((1, 6, 11), 0.6), 7)
    t0 = time.perf_counter()
    metrics = run_town_trial(factory, "perf", seed=0, duration_s=_duration())
    wall = time.perf_counter() - t0
    _record(
        "town_trial",
        wall_s=wall,
        events=metrics.events_processed,
        events_per_sec=metrics.events_processed / wall,
        sim_seconds_per_wall_second=_duration() / wall,
    )
    report("perf/town_trial", json.dumps(_PERF["town_trial"], indent=2))
    assert metrics.events_processed > 0


def test_perf_table2_suite_serial_vs_parallel(report):
    """The Table 2 suite, serial vs parallel: identical rows, less wall."""
    from repro.experiments.town_runs import run_configuration_suite

    seeds = bench_seeds()
    duration = _duration()
    t0 = time.perf_counter()
    serial = run_configuration_suite(
        seeds=seeds, duration_s=duration, include_cambridge=False, workers=1
    )
    serial_wall = time.perf_counter() - t0
    workers = max(bench_workers(), 2)
    t0 = time.perf_counter()
    parallel = run_configuration_suite(
        seeds=seeds, duration_s=duration, include_cambridge=False, workers=workers
    )
    parallel_wall = time.perf_counter() - t0
    for label in serial.labels():
        for s_trial, p_trial in zip(serial[label].trials, parallel[label].trials):
            assert s_trial.average_throughput_kBps == p_trial.average_throughput_kBps
            assert s_trial.connectivity_pct == p_trial.connectivity_pct
            assert s_trial.events_processed == p_trial.events_processed
    total_events = sum(
        t.events_processed for label in serial.labels() for t in serial[label].trials
    )
    _record(
        "table2_suite",
        serial_wall_s=serial_wall,
        parallel_wall_s=parallel_wall,
        parallel_workers=workers,
        speedup=serial_wall / parallel_wall,
        trials=len(seeds) * len(serial.labels()),
        events=total_events,
        serial_events_per_sec=total_events / serial_wall,
    )
    report("perf/table2_suite", json.dumps(_PERF["table2_suite"], indent=2))


def test_perf_timeout_grid(report):
    """Two representative cells of the join-timeout grid."""
    from repro.experiments.timeout_grid import run_grid

    labels = ["ch1, ll=100ms, dhcp=200ms, 7if", "3ch, ll=100ms, dhcp=200ms, 7if"]
    t0 = time.perf_counter()
    results = run_grid(
        labels=labels,
        seeds=bench_seeds(),
        duration_s=_duration(),
        workers=bench_workers(),
    )
    wall = time.perf_counter() - t0
    events = sum(t.events_processed for agg in results.values() for t in agg.trials)
    _record(
        "timeout_grid",
        wall_s=wall,
        cells=len(labels),
        events=events,
        events_per_sec=events / wall,
    )
    report("perf/timeout_grid", json.dumps(_PERF["timeout_grid"], indent=2))
    assert set(results) == set(labels)


def test_perf_fleet(report):
    """A two-vehicle shared-town drive (multi-client hot path)."""
    from repro.experiments.fleet import FleetSpec, run_spec as run_fleet_spec

    t0 = time.perf_counter()
    result = run_fleet_spec(
        FleetSpec(
            fleet_sizes=(2,),
            seeds=bench_seeds(),
            duration_s=_duration(),
            workers=bench_workers(),
        )
    ).unwrap()
    wall = time.perf_counter() - t0
    _record(
        "fleet",
        wall_s=wall,
        vehicles=2,
        aggregate_kBps=result.rows[0].aggregate_kBps,
    )
    report("perf/fleet", json.dumps(_PERF["fleet"], indent=2))
    assert result.rows[0].vehicles == 2


def _telemetry_micro(telemetry) -> float:
    """Events/sec for the scheduler-churn workload under one telemetry mode."""
    sim = Simulator(seed=0, telemetry=telemetry)
    fired = 0

    def tick():
        nonlocal fired
        fired += 1
        keep = sim.schedule(1.0, tick)
        for _ in range(4):
            sim.schedule(2.0, _noop).cancel()
        if fired >= 60_000:
            keep.cancel()

    for i in range(50):
        sim.schedule(0.001 * i, tick)
    t0 = time.perf_counter()
    sim.run(until=5_000.0)
    wall = time.perf_counter() - t0
    return sim.events_processed / wall


def test_perf_telemetry_overhead(report):
    """The disabled telemetry path must be free (< 2% engine overhead).

    Three modes, interleaved over 7 paired rounds:

    * ``None``              — the default ``NULL_TELEMETRY`` singleton,
    * ``Telemetry(enabled=False)`` — a real registry, disabled (what a
      ``telemetry=False`` spec constructs),
    * ``Telemetry(enabled=True)``  — full capture incl. the profiled loop
      (informational; the enabled path is *allowed* to cost wall time).

    The asserted overhead is the *minimum* of the per-round paired ratios:
    genuine overhead shows up in every round, while container timing noise
    (CI machines swing ±10%+ between adjacent runs) is round-local, so the
    cleanest round is the fairest estimate of the true cost.

    The committed ``telemetry_overhead.events_per_sec`` baseline is what
    ``check_perf_regression.py`` compares against in CI.
    """
    from repro.obs.telemetry import Telemetry

    null_best = disabled_best = enabled_best = 0.0
    paired_overheads = []
    for _ in range(7):
        null_rate = _telemetry_micro(None)
        disabled_rate = _telemetry_micro(Telemetry(enabled=False))
        enabled_rate = _telemetry_micro(Telemetry(enabled=True))
        null_best = max(null_best, null_rate)
        disabled_best = max(disabled_best, disabled_rate)
        enabled_best = max(enabled_best, enabled_rate)
        paired_overheads.append(1.0 - disabled_rate / null_rate)
    overhead = min(paired_overheads)
    _record(
        "telemetry_overhead",
        events_per_sec=disabled_best,
        null_events_per_sec=null_best,
        enabled_events_per_sec=enabled_best,
        disabled_overhead_frac=overhead,
    )
    report(
        "perf/telemetry_overhead",
        json.dumps(_PERF["telemetry_overhead"], indent=2),
    )
    assert overhead < 0.02, (
        f"disabled telemetry costs {100 * overhead:.2f}% "
        f"({null_best:.0f} -> {disabled_best:.0f} events/sec)"
    )


def test_perf_fleet_sharded(report):
    """Per-vehicle fleet sharding: wall-clock vs one process, same bits.

    ``run_sharded`` clamps the shard count to the machine's cores (PR 5):
    on a 1-core box the "sharded" run executes in-process and the honest
    expectation is ~1.0x, not a speedup.  The recorded ``effective_shards``
    says which regime this measurement is from.
    """
    from repro.experiments.fleet import _run_fleet, run_sharded_trial
    from repro.runner.pool import _shard_capacity

    vehicles = 4
    duration = _duration()
    t0 = time.perf_counter()
    unsharded = _run_fleet(vehicles, seed=0, duration_s=duration, town_preset="amherst")
    unsharded_wall = time.perf_counter() - t0
    workers = max(bench_workers(), 2)
    effective = min(workers, vehicles, _shard_capacity())
    t0 = time.perf_counter()
    sharded = run_sharded_trial(vehicles, seed=0, duration_s=duration, workers=workers)
    sharded_wall = time.perf_counter() - t0
    assert sharded == unsharded  # bit-for-bit merge, the PR-3 guarantee
    _record(
        "fleet_sharded",
        vehicles=vehicles,
        unsharded_wall_s=unsharded_wall,
        sharded_wall_s=sharded_wall,
        shard_workers=workers,
        effective_shards=effective,
        speedup=unsharded_wall / sharded_wall,
        sharded_equal=True,
    )
    report("perf/fleet_sharded", json.dumps(_PERF["fleet_sharded"], indent=2))
    if effective <= 1:
        # In-process fallback: sharding must not cost process overhead.
        assert sharded_wall <= unsharded_wall * 1.5


def test_perf_cache_warm(report):
    """The Table 2 suite cold-then-warm through the result cache.

    The warm run must replay byte-identically (results *and* telemetry)
    and beat the cold run by >= 5x wall-clock — the PR-5 acceptance bar.
    """
    import tempfile

    from repro.cache import TrialCache, activate
    from repro.experiments.api import to_jsonable
    from repro.experiments.table2_configs import Table2Spec, run_spec
    from repro.obs import build_payload, collect_snapshots

    spec = Table2Spec(
        seeds=bench_seeds(),
        duration_s=_duration(),
        include_cambridge=False,
        workers=1,
        telemetry=True,
    )

    def run_once(cache):
        with activate(cache):
            t0 = time.perf_counter()
            envelope = run_spec(spec)
            wall = time.perf_counter() - t0
        payload = json.dumps(to_jsonable(envelope), sort_keys=True)
        telemetry = json.dumps(
            build_payload(collect_snapshots(envelope)), sort_keys=True
        )
        return envelope, payload, telemetry, wall

    with tempfile.TemporaryDirectory() as root:
        cache = TrialCache(root)
        _, cold_json, cold_tele, cold_wall = run_once(cache)
        _, warm_json, warm_tele, warm_wall = run_once(cache)
        stats = cache.stats
    assert cold_json == warm_json, "warm results JSON differs from cold"
    assert cold_tele == warm_tele, "warm telemetry export differs from cold"
    speedup = cold_wall / warm_wall
    trials = stats["stores"]
    assert stats["hits"] == trials and trials > 0
    _record(
        "cache_warm",
        cold_wall_s=cold_wall,
        warm_wall_s=warm_wall,
        speedup=speedup,
        trials=trials,
        hits=stats["hits"],
        misses=stats["misses"],
        byte_identical=True,
    )
    report("perf/cache_warm", json.dumps(_PERF["cache_warm"], indent=2))
    assert speedup >= 5.0, (
        f"warm cache run only {speedup:.1f}x faster "
        f"({cold_wall:.2f}s -> {warm_wall:.2f}s)"
    )


def test_perf_dense_town(report, monkeypatch):
    """City-scale dense world: the receiver index with and without numpy.

    The ``city`` preset (>1000 APs) with a 250-vehicle fleet is the
    workload the index's mobile snapshot exists for.  Both sides resolve
    receivers through :mod:`repro.sim.medium_vec` — cached broadcast
    plans and a BSSID index — but the ``scalar`` side hides numpy, which
    is exactly what a host without numpy runs: it tracks each static
    sender's mobiles with per-sender horizons and checks every mobile on
    mobile senders' frames, so its cost grows with the fleet while the
    snapshot's pruned candidate lists stay flat.  The ``scalar_*`` keys
    keep their names so the regression gate keeps matching baselines.
    The run is a fixed 10 simulated seconds — long enough for the plans
    and snapshots to amortize (the committed regime for the >= 3x bar),
    short enough for CI.

    Two paired rounds, asserting on the best ratio: genuine slowdowns
    show up in every round, while container timing noise is round-local
    (the ``telemetry_overhead`` bench uses the same reasoning).
    """
    import resource

    import pytest

    pytest.importorskip("numpy")
    from repro.experiments.dense_town import DenseTownSpec, run_dense_trial
    from repro.sim import medium_vec

    spec = DenseTownSpec()  # city preset, 250 vehicles, 10 sim-seconds
    rounds = []
    for _ in range(2):
        with monkeypatch.context() as scalar:
            scalar.setattr(medium_vec, "_np", None)
            t0 = time.perf_counter()
            scalar_row = run_dense_trial(spec, seed=0)
            scalar_wall = time.perf_counter() - t0
        t0 = time.perf_counter()
        vector_row = run_dense_trial(spec, seed=0)
        vector_wall = time.perf_counter() - t0
        assert vector_row == scalar_row, "numpy snapshot diverged from no-numpy"
        rounds.append((scalar_wall, vector_wall))
    assert vector_row.ap_count >= 1000
    assert vector_row.vehicles >= 50
    events = vector_row.events_processed
    scalar_wall, vector_wall = min(rounds, key=lambda r: r[1] / r[0])
    speedup = scalar_wall / vector_wall
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    _record(
        "dense_town",
        wall_s=vector_wall,
        scalar_wall_s=scalar_wall,
        events=events,
        events_per_sec=events / vector_wall,
        scalar_events_per_sec=events / scalar_wall,
        speedup=speedup,
        ap_count=vector_row.ap_count,
        vehicles=vector_row.vehicles,
        peak_rss_mb=peak_rss_mb,
        rows_equal=True,
    )
    report("perf/dense_town", json.dumps(_PERF["dense_town"], indent=2))
    assert speedup >= 3.0, (
        f"numpy snapshot only {speedup:.2f}x over the no-numpy index "
        f"({scalar_wall:.2f}s -> {vector_wall:.2f}s)"
    )


def test_perf_fabric_overhead(report):
    """Coordinator overhead of the in-process sweep fabric, per job.

    The fabric's state machine (lease, heartbeat, complete, merge) is pure
    dict work, so routing a fan-out through ``InProcessFabric`` instead of
    the plain serial loop must cost millisecond-scale bookkeeping per job
    — and under the seeded chaos preset (kills, stalls, drops, duplicated
    completions) the envelopes must still be byte-identical to serial.

    ``fabric_overhead.events_per_sec`` (jobs dispatched through the fabric
    per second) is the rate ``check_perf_regression.py`` gates in CI; the
    per-job overhead below is asserted directly.  Two paired rounds, best
    ratio, for the same container-noise reasons as ``telemetry_overhead``.
    """
    import pickle

    from repro.fabric import FabricChaosPlan, InProcessFabric, demo_jobs
    from repro.runner import run_jobs

    jobs_n = 200
    rounds = []
    for _ in range(2):
        t0 = time.perf_counter()
        serial = run_jobs(demo_jobs(jobs_n), workers=1)
        serial_wall = time.perf_counter() - t0
        fabric = InProcessFabric(workers=4)
        t0 = time.perf_counter()
        routed = fabric.run(demo_jobs(jobs_n))
        fabric_wall = time.perf_counter() - t0
        assert pickle.dumps(routed) == pickle.dumps(serial)
        rounds.append((serial_wall, fabric_wall))
    serial_wall, fabric_wall = min(rounds, key=lambda r: r[1] - r[0])
    per_job_overhead_ms = max(0.0, fabric_wall - serial_wall) / jobs_n * 1000.0

    chaos_fabric = InProcessFabric(workers=3, plan=FabricChaosPlan.preset(7))
    t0 = time.perf_counter()
    chaos = chaos_fabric.run(demo_jobs(jobs_n))
    chaos_wall = time.perf_counter() - t0
    assert pickle.dumps(chaos) == pickle.dumps(
        run_jobs(demo_jobs(jobs_n), workers=1)
    )
    stats = dict(chaos_fabric.snapshot().counters)
    _record(
        "fabric_overhead",
        serial_wall_s=serial_wall,
        fabric_wall_s=fabric_wall,
        chaos_wall_s=chaos_wall,
        jobs=jobs_n,
        events_per_sec=jobs_n / fabric_wall,
        per_job_overhead_ms=per_job_overhead_ms,
        chaos_leases=int(stats["fabric.leases_issued"]),
        chaos_reassignments=int(stats["fabric.reassignments"]),
        byte_identical=True,
    )
    report("perf/fabric_overhead", json.dumps(_PERF["fabric_overhead"], indent=2))
    assert per_job_overhead_ms < 5.0, (
        f"fabric bookkeeping costs {per_job_overhead_ms:.2f} ms/job "
        f"({serial_wall:.3f}s -> {fabric_wall:.3f}s for {jobs_n} jobs)"
    )


def test_perf_transport_matrix(report):
    """A reduced transport-matrix column: CC strategies + split proxying.

    Four cells of the ``transport-matrix`` grid on one Spider policy —
    Reno end-to-end (the refactored default path), CUBIC, BBR-lite, and
    Reno behind the AP split proxy.  ``events_per_sec`` is the aggregate
    simulator rate across all four, so the gate catches both a slowdown
    in the extracted CC strategy hot path (on_ack per segment) and relay
    overhead in the split proxy.
    """
    from repro.sim.cc import TransportSpec

    factory = spider_factory(OperationMode.equal_split((1, 6, 11), 0.6), 7)
    duration = min(_duration(), 120.0)
    cells = [
        ("reno", False),
        ("cubic", False),
        ("bbr", False),
        ("reno", True),
    ]
    total_events = 0
    throughputs = {}
    t0 = time.perf_counter()
    for cc, split in cells:
        metrics = run_town_trial(
            factory,
            f"perf cc={cc} split={'on' if split else 'off'}",
            seed=0,
            duration_s=duration,
            transport=TransportSpec(cc=cc, split=split),
        )
        total_events += metrics.events_processed
        key = f"{cc}_{'split' if split else 'e2e'}_kBps"
        throughputs[key] = metrics.average_throughput_kBps
    wall = time.perf_counter() - t0
    _record(
        "transport_matrix",
        wall_s=wall,
        cells=len(cells),
        events=total_events,
        events_per_sec=total_events / wall,
        **throughputs,
    )
    report("perf/transport_matrix", json.dumps(_PERF["transport_matrix"], indent=2))
    assert total_events > 0
    assert all(v >= 0.0 for v in throughputs.values())


def test_perf_contention_dense_town(report):
    """Full 250-vehicle contended city: events/sec, footprint, outcomes.

    The contended twin of ``dense_town``: the whole city fleet drives
    one simulated second with ``--contention on``.  Single channel is the
    spec default and the contended worst case: every NIC is a delivery
    candidate and every flight shares one channel's cells.  The row must
    match the committed golden fingerprint of the same trial
    (``contended_city`` in ``tests/goldens.json``, headline counts: the
    golden ran with telemetry, whose snapshot this untraced row lacks).

    Timing uses the trial's ``sim_cpu_s`` hook — CPU time of the event
    loop alone (immune to co-tenant steal on shared CI boxes, and
    excluding world/fleet construction) — best of three rounds: noise
    only ever *adds* time, so the minimum is the least-biased estimate.

    The PR 9 acceptance bars (join completion > 0.5 under contention,
    goodput >= 3x the global-FIFO baseline) ride along at their
    committed 100-vehicle calibration point.  (At 250 vehicles the DHCP
    lottery, not the MAC, caps the 10-second join funnel near 0.43, so
    the bar stays pinned where the contention model is the binding
    constraint.)

    ``peak_rss_mb`` snapshots the process peak after the contended runs;
    ``test_perf_dense_town`` recorded the uncontended peak earlier in
    this same process, so the < 2x assertion bounds the *additional*
    footprint of the contention state (flight lists, sense grids,
    per-delivery scan caches).
    """
    import resource
    from dataclasses import replace

    from repro.experiments.dense_town import DenseTownSpec, run_dense_trial
    from repro.sim.contention import ContentionSpec

    spec = DenseTownSpec(duration_s=1.0, contention=ContentionSpec())
    walls = []
    for _ in range(3):
        timings = {}
        contended = run_dense_trial(spec, seed=0, timings=timings)
        walls.append(timings["sim_cpu_s"])
    golden = json.loads(_GOLDENS_PATH.read_text())["contended_city"]["counts"]
    assert {
        "events": contended.events_processed,
        "frames_delivered": contended.frames_delivered,
        "frames_lost": contended.frames_lost,
        "frames_collided": contended.frames_collided,
        "join_attempts": contended.join_attempts,
        "joins": contended.joins_completed,
    } == golden, "contended city row moved off its golden fingerprint"
    assert contended.ap_count >= 1000
    assert contended.vehicles == 250
    wall = min(walls)
    events = contended.events_processed
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Outcome bars at their committed calibration point — 100 vehicles,
    # 10 simulated seconds.
    bars_spec = replace(spec, duration_s=10.0, n_vehicles=100)
    t0 = time.process_time()
    bars = run_dense_trial(bars_spec, seed=0)
    bars_wall = time.process_time() - t0
    baseline = run_dense_trial(
        replace(bars_spec, contention=None), seed=0
    )
    goodput_gain = (
        bars.aggregate_kBps / baseline.aggregate_kBps
        if baseline.aggregate_kBps > 0
        else float("inf")
    )
    _record(
        "contention_dense_town",
        wall_s=wall,
        bars_wall_s=bars_wall,
        events=events,
        events_per_sec=events / wall,
        vehicles=contended.vehicles,
        ap_count=contended.ap_count,
        peak_rss_mb=peak_rss_mb,
        rows_equal=True,
        join_completion_rate=bars.join_completion_rate,
        baseline_join_completion_rate=baseline.join_completion_rate,
        aggregate_kBps=bars.aggregate_kBps,
        baseline_aggregate_kBps=baseline.aggregate_kBps,
        frames_collided=bars.frames_collided,
    )
    report(
        "perf/contention_dense_town",
        json.dumps(_PERF["contention_dense_town"], indent=2),
    )
    uncontended = _PERF.get("dense_town", {}).get("peak_rss_mb")
    if uncontended is not None:
        assert peak_rss_mb < 2.0 * uncontended, (
            f"contended city peaks at {peak_rss_mb:.0f} MB RSS, >= 2x the "
            f"uncontended dense town's {uncontended:.0f} MB"
        )
    assert bars.join_completion_rate > 0.5, (
        f"contended join completion {bars.join_completion_rate:.3f} "
        f"({bars.joins_completed}/{bars.join_attempts})"
    )
    assert goodput_gain >= 3.0, (
        f"contention goodput only {goodput_gain:.2f}x the serialized "
        f"baseline ({baseline.aggregate_kBps:.1f} -> "
        f"{bars.aggregate_kBps:.1f} kB/s)"
    )


def test_perf_channel_assign(report):
    """A reduced channel-assignment grid: strategy x policy under CSMA/CA.

    Two strategies (the as-built map and the all-on-6 adversarial blob)
    against both client policies on a shrunken city — enough cells to
    exercise retuning, the greedy-coloring scan is covered by the unit
    suite.  ``events_per_sec`` aggregates the simulator rate across the
    cells; the adversarial map must show the collision-rate signature
    that motivates the experiment.
    """
    from repro.experiments.channel_assign import ChannelAssignSpec, run_spec

    spec = ChannelAssignSpec(
        seeds=(0,),
        duration_s=4.0,
        n_vehicles=8,
        strategies=("measured", "adversarial"),
        loop_length_m=2000.0,
        ap_density_per_km=60.0,
        workers=1,
    )
    t0 = time.perf_counter()
    result = run_spec(spec).unwrap()
    wall = time.perf_counter() - t0
    total_events = sum(r.events_processed for r in result.rows)
    measured = result.cell("measured", "spider-3ch")[0]
    adversarial = result.cell("adversarial", "spider-3ch")[0]
    _record(
        "channel_assign",
        wall_s=wall,
        cells=len(result.rows),
        events=total_events,
        events_per_sec=total_events / wall,
        measured_kBps=measured.aggregate_kBps,
        adversarial_kBps=adversarial.aggregate_kBps,
        measured_collision_rate=measured.collision_rate,
        adversarial_collision_rate=adversarial.collision_rate,
    )
    report("perf/channel_assign", json.dumps(_PERF["channel_assign"], indent=2))
    assert total_events > 0
    assert adversarial.collision_rate >= measured.collision_rate, (
        "the all-on-6 map should collide at least as often as the "
        "measured mix"
    )


def test_perf_persist_results():
    """Write BENCH_perf.json last (pytest runs this file in order)."""
    assert _PERF, "perf tests did not record anything"
    _persist()
    assert _RESULTS_PATH.exists()
