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
from typing import List, Optional, Tuple

from ..analysis.reporting import format_table
from ..core.link_manager import SpiderConfig
from ..core.schedule import OperationMode
from ..core.spider import SpiderClient
from ..obs.telemetry import Telemetry, TelemetrySnapshot
from ..runner import TrialJob, run_jobs
from ..sim.engine import Simulator
from ..sim.world import StackSpec
from ..workloads.town import build_town
from .api import ExperimentSpec, register

__all__ = [
    "FleetSpec",
    "FleetRow",
    "FleetResult",
    "run_spec",
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


def _run_fleet(
    n_vehicles: int,
    seed: int,
    duration_s: float,
    town_preset: str,
    telemetry: bool = False,
    stack: StackSpec = StackSpec(),
) -> FleetRow:
    """Drive an ``n_vehicles`` fleet around one town and fold it into a row.

    Vehicles interact through shared airtime, backhaul, and the LMM's
    one-interface-per-AP rule, so the fleet is one coupled simulation
    whose dynamics are a pure function of the seed.  Sums run in vehicle
    order.

    With ``telemetry=True`` the row carries each vehicle's
    ``"veh{i}."``-scoped :class:`TelemetrySnapshot` slice of the shared
    capture, in vehicle order.
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
    snapshots = None
    if tele is not None:
        snap = tele.snapshot()
        snapshots = tuple(snap.scoped(f"veh{i}.") for i in range(n_vehicles))
    throughputs = [c.average_throughput_kBps(duration_s) for c in clients]
    connectivities = [c.connectivity_percent(duration_s) for c in clients]
    return FleetRow(
        vehicles=n_vehicles,
        per_vehicle_kBps=sum(throughputs) / n_vehicles,
        aggregate_kBps=sum(throughputs),
        mean_connectivity_pct=sum(connectivities) / n_vehicles,
        vehicle_telemetry=snapshots,
    )


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
