"""Fleet experiment: several Spider vehicles sharing one town.

The paper's §2.2 measurements ran on five vehicles simultaneously.  This
experiment puts ``n`` Spider clients (single-channel multi-AP) on the same
loop, staggered along the route, and measures how per-vehicle and aggregate
performance scale.  Vehicles contend for three resources the substrate
models explicitly: channel airtime, per-AP backhaul, and the LMM's
one-interface-per-AP rule (two vehicles *can* share an AP — they are
different stations — but they split its backhaul).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..analysis.reporting import format_table
from ..core.link_manager import SpiderConfig
from ..core.schedule import OperationMode
from ..core.spider import SpiderClient
from ..obs.telemetry import Telemetry, TelemetrySnapshot
from ..runner import ShardedJob, TrialJob, run_jobs, run_sharded
from ..sim.engine import Simulator
from ..sim.world import StackSpec
from ..workloads.town import build_town
from .api import ExperimentSpec, register

__all__ = [
    "FleetSpec",
    "FleetRow",
    "FleetResult",
    "run_spec",
    "run_sharded_trial",
]


@dataclass
class FleetRow:
    """One fleet size's per-vehicle and aggregate outcomes."""
    vehicles: int
    per_vehicle_kBps: float
    aggregate_kBps: float
    mean_connectivity_pct: float
    #: Per-vehicle telemetry slices (``veh{i}.``-scoped) in vehicle order
    #: when the trial ran with telemetry; ``None`` otherwise.
    vehicle_telemetry: Optional[Tuple[TelemetrySnapshot, ...]] = None


@dataclass
class FleetResult:
    """All fleet rows."""
    rows: List[FleetRow]
    #: Per-vehicle snapshots in (fleet size, seed, vehicle) order when the
    #: spec ran with ``telemetry=True`` — the generic ``--telemetry``
    #: export picks these up via ``repro.obs.collect_snapshots``.
    telemetry: Optional[Tuple[TelemetrySnapshot, ...]] = None

    def aggregate_grows(self) -> bool:
        """Whether aggregate fleet throughput is (weakly) increasing."""
        aggregates = [r.aggregate_kBps for r in self.rows]
        return all(b >= 0.8 * a for a, b in zip(aggregates, aggregates[1:]))

    def per_vehicle_declines_gracefully(self) -> bool:
        """Per-vehicle share shrinks with fleet size but never collapses."""
        per = [r.per_vehicle_kBps for r in self.rows]
        return per[-1] > 0.2 * per[0]

    def render(self) -> str:
        """Render the result as printable text."""
        return format_table(
            ["vehicles", "per-vehicle", "aggregate", "mean connectivity"],
            [
                (
                    r.vehicles,
                    f"{r.per_vehicle_kBps:.1f} kB/s",
                    f"{r.aggregate_kBps:.1f} kB/s",
                    f"{r.mean_connectivity_pct:.1f}%",
                )
                for r in self.rows
            ],
            title="Fleet scaling: Spider vehicles sharing one town",
        )


def _vehicle_stats(
    vehicle_indices: Sequence[int],
    n_vehicles: int,
    seed: int,
    duration_s: float,
    town_preset: str,
    telemetry: bool = False,
    stack: StackSpec = StackSpec(),
) -> List[Tuple]:
    """Drive the full ``n_vehicles`` fleet, extract stats for a subset.

    Vehicles interact through shared airtime, backhaul, and the LMM's
    one-interface-per-AP rule, so *every* call simulates the complete
    coupled fleet — the dynamics are a pure function of the seed.  A shard
    replays the identical run and reads out only its own vehicles'
    ``(throughput_kBps, connectivity_pct)`` pairs, which is what makes the
    sharded merge bit-identical to a single-process run.

    With ``telemetry=True`` each tuple gains a third element: the
    vehicle's ``"veh{i}."``-scoped :class:`TelemetrySnapshot` slice of the
    shared capture.  Because every shard replays the identical coupled
    simulation, a vehicle's slice is the same no matter which shard
    extracts it — so the concatenated sharded telemetry is byte-identical
    to the single-process capture, vehicle for vehicle.
    """
    tele = (
        Telemetry(enabled=True, key=("fleet", n_vehicles, seed))
        if telemetry
        else None
    )
    sim = Simulator(seed=seed, telemetry=tele)
    town = build_town(sim, preset=town_preset, stack=stack)
    spacing = town.config.loop_length_m / max(n_vehicles, 1)
    clients = []
    for index in range(n_vehicles):
        mobility = town.make_vehicle_mobility(10.0, start_arc_m=index * spacing)
        config = SpiderConfig.spider_defaults(
            OperationMode.single_channel(1), num_interfaces=7
        )
        client = SpiderClient(
            sim, town.world, mobility, config, client_id=f"veh{index}"
        )
        client.start()
        clients.append(client)
    sim.run(until=duration_s)
    if tele is not None:
        snap = tele.snapshot()
        return [
            (
                clients[i].average_throughput_kBps(duration_s),
                clients[i].connectivity_percent(duration_s),
                snap.scoped(f"veh{i}."),
            )
            for i in vehicle_indices
        ]
    return [
        (
            clients[i].average_throughput_kBps(duration_s),
            clients[i].connectivity_percent(duration_s),
        )
        for i in vehicle_indices
    ]


def _row_from_stats(n_vehicles: int, stats: Sequence[Tuple]) -> FleetRow:
    """Fold per-vehicle ``(throughput, connectivity[, telemetry])`` tuples
    into a row.

    Sums run in vehicle order, so sharded (concatenated) and unsharded
    stat lists produce bit-identical floats — and identical telemetry
    tuples, when present.
    """
    throughputs = [s[0] for s in stats]
    connectivities = [s[1] for s in stats]
    snapshots = tuple(s[2] for s in stats if len(s) > 2) or None
    return FleetRow(
        vehicles=n_vehicles,
        per_vehicle_kBps=sum(throughputs) / n_vehicles,
        aggregate_kBps=sum(throughputs),
        mean_connectivity_pct=sum(connectivities) / n_vehicles,
        vehicle_telemetry=snapshots,
    )


def _run_fleet(
    n_vehicles: int,
    seed: int,
    duration_s: float,
    town_preset: str,
    telemetry: bool = False,
    stack: StackSpec = StackSpec(),
) -> FleetRow:
    return _row_from_stats(
        n_vehicles,
        _vehicle_stats(
            range(n_vehicles), n_vehicles, seed, duration_s, town_preset,
            telemetry, stack,
        ),
    )


def run_sharded_trial(
    n_vehicles: int,
    seed: int,
    duration_s: float = 300.0,
    town_preset: str = "amherst",
    workers: Optional[int] = None,
    timeout_s: Optional[float] = None,
    retries: Optional[int] = None,
    telemetry: bool = False,
    stack: StackSpec = StackSpec(),
) -> FleetRow:
    """One fleet trial with its vehicles sharded across worker processes.

    Each shard replays the same coupled simulation (same seed, all
    ``n_vehicles`` present) and extracts metrics for its own contiguous
    slice of vehicles; :func:`repro.runner.run_sharded` merges the slices
    in vehicle order, so the returned row is bit-for-bit equal to
    :func:`_run_fleet` under the same seed.  What sharding buys is the
    runner's per-shard envelope machinery — timeout, retry, and crash
    isolation at sub-trial granularity — and parallel metric extraction
    for very large fleets; the replayed dynamics themselves are not
    parallelized (that would decouple the vehicles and change the result).
    """
    job = ShardedJob(
        fn=_vehicle_stats,
        items=tuple(range(n_vehicles)),
        args=(n_vehicles, seed, duration_s, town_preset, telemetry, stack),
        tag=("fleet", n_vehicles, seed),
    )
    envelope = run_sharded(
        job, workers=workers, timeout_s=timeout_s, retries=retries
    )
    return _row_from_stats(n_vehicles, envelope.unwrap())


@dataclass(frozen=True)
class FleetSpec(ExperimentSpec):
    """Spec for fleet scaling (base ``town`` names the town preset)."""

    seeds: Tuple[int, ...] = (0,)
    fleet_sizes: Tuple[int, ...] = (1, 2, 5)


@register("fleet", FleetSpec, summary="fleet scaling on one shared town")
def run_spec(spec: FleetSpec) -> FleetResult:
    """Every ``(fleet size, seed)`` drive is an independent simulation, so
    the whole grid fans out through :mod:`repro.runner`; per-size
    aggregation happens on the deterministically ordered results.
    """
    jobs = [
        TrialJob(
            _run_fleet,
            (
                size, seed, spec.duration_s, spec.town, spec.telemetry,
                spec.stack,
            ),
            tag=(size, seed),
        )
        for size in spec.fleet_sizes
        for seed in spec.seeds
    ]
    envelopes = run_jobs(jobs, workers=spec.workers)
    by_size: dict = {}
    for job, result in zip(jobs, envelopes):
        by_size.setdefault(job.tag[0], []).append(result.unwrap())
    rows = []
    snapshots: List[TelemetrySnapshot] = []
    for size in spec.fleet_sizes:
        per_seed = by_size[size]
        n = len(per_seed)
        for r in per_seed:
            if r.vehicle_telemetry:
                snapshots.extend(r.vehicle_telemetry)
        rows.append(
            FleetRow(
                vehicles=size,
                per_vehicle_kBps=sum(r.per_vehicle_kBps for r in per_seed) / n,
                aggregate_kBps=sum(r.aggregate_kBps for r in per_seed) / n,
                mean_connectivity_pct=sum(
                    r.mean_connectivity_pct for r in per_seed
                ) / n,
            )
        )
    return FleetResult(rows=rows, telemetry=tuple(snapshots) or None)
