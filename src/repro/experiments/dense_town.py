"""Dense-world experiment: a large fleet on a city-scale AP field.

The paper's testbeds top out at a town-sized AP field and a five-vehicle
fleet; this experiment scales the same coupled dynamics to the ``city``
town preset (a 10 km core loop with >1000 open APs) and fleets of
hundreds of vehicles.  It exists for two reasons:

* It is the workload the receiver index's mobile snapshot
  (:mod:`repro.sim.medium_vec`) is built for — the ``dense_town`` perf
  bench drives this exact trial with and without numpy and gates their
  events/sec ratio.
* It pins the bit-identity contract at scale: the trial result carries
  only simulation observables (event counts, frame counts, per-vehicle
  throughput/connectivity), so runs of the same spec with and without
  numpy must produce byte-identical JSON and telemetry exports.

The optional town-override fields let property tests draw random dense
worlds without registering ad-hoc presets.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

from ..analysis.reporting import format_table
from ..core.link_manager import SpiderConfig
from ..core.schedule import OperationMode
from ..core.spider import SpiderClient
from ..obs.telemetry import Telemetry, TelemetrySnapshot
from ..runner import TrialJob, run_jobs
from ..sim.engine import Simulator
from ..workloads.town import PRESETS, TownConfig, build_town
from .api import ExperimentSpec, register

__all__ = [
    "DenseTownSpec",
    "DenseTownRow",
    "DenseTownResult",
    "run_dense_trial",
    "run_spec",
    "main",
]


@dataclass(frozen=True)
class DenseTownSpec(ExperimentSpec):
    """Spec for one dense-world fleet drive per seed.

    ``town`` names the preset (default ``city``); the explicit override
    fields, when set, replace the corresponding preset fields so tests can
    sample arbitrary dense worlds from one frozen value object.
    """

    seeds: Tuple[int, ...] = (0,)
    duration_s: float = 10.0
    town: str = "city"
    n_vehicles: int = 250
    speed_mps: float = 10.0
    #: Channels in the fleet's operation schedule.  One channel keeps the
    #: historical ``single-ch`` pin (and is the contended perf bench's
    #: operating point: with every NIC tuned to the same channel every
    #: frame reaches the whole fleet and every flight shares one channel's
    #: cells — the contended worst case); several run Spider's equal-split
    #: multi-channel schedule, the paper's operating point for the
    #: channel-assignment experiments.
    channels: Tuple[int, ...] = (1,)
    #: Town overrides (``None`` keeps the preset's value).
    loop_length_m: Optional[float] = None
    ap_density_per_km: Optional[float] = None
    loss_rate: Optional[float] = None
    clustered: Optional[bool] = None

    def town_config(self) -> TownConfig:
        """The preset with this spec's overrides applied."""
        config = PRESETS[self.town]
        overrides = {
            name: value
            for name in ("loop_length_m", "ap_density_per_km", "loss_rate", "clustered")
            if (value := getattr(self, name)) is not None
        }
        return replace(config, **overrides) if overrides else config


@dataclass
class DenseTownRow:
    """One seed's dense-world drive, in simulation observables only.

    Wall-clock metrics live in the perf bench, not here: everything in
    this row must be a pure function of the spec and seed so that runs
    with and without numpy produce byte-identical results.
    """

    seed: int
    ap_count: int
    vehicles: int
    events_processed: int
    frames_delivered: int
    frames_lost: int
    aggregate_kBps: float
    mean_connectivity_pct: float
    #: Fleet-wide join funnel: attempts started / joins completed.  The
    #: contention model's acceptance metric — under the global airtime
    #: FIFO the city world starves joins (completion ~0); with CSMA/CA
    #: spatial reuse the completion rate recovers past 0.5.
    join_attempts: int = 0
    joins_completed: int = 0
    #: Frames destroyed by hidden-terminal collisions (contention only).
    frames_collided: int = 0
    #: Deterministic telemetry projection when the trial ran with
    #: telemetry.  Wall-clock profiling instruments are dropped at capture
    #: so the exported artifact is a pure function of (spec, seed) — the
    #: golden fingerprints cover it.
    telemetry: Optional[TelemetrySnapshot] = None

    @property
    def join_completion_rate(self) -> float:
        """Completed joins over attempts (0.0 when nothing was attempted)."""
        return self.joins_completed / self.join_attempts if self.join_attempts else 0.0


@dataclass
class DenseTownResult:
    """All per-seed rows."""

    rows: List[DenseTownRow]

    def render(self) -> str:
        """Render the result as printable text."""
        return format_table(
            [
                "seed",
                "APs",
                "vehicles",
                "events",
                "delivered",
                "collided",
                "joins",
                "aggregate",
                "connectivity",
            ],
            [
                (
                    r.seed,
                    r.ap_count,
                    r.vehicles,
                    r.events_processed,
                    r.frames_delivered,
                    r.frames_collided,
                    f"{r.joins_completed}/{r.join_attempts}",
                    f"{r.aggregate_kBps:.1f} kB/s",
                    f"{r.mean_connectivity_pct:.1f}%",
                )
                for r in self.rows
            ],
            title="Dense town: large fleet on a city-scale AP field",
        )


def run_dense_trial(
    spec: DenseTownSpec,
    seed: int,
    telemetry: Optional[bool] = None,
    timings: Optional[dict] = None,
) -> DenseTownRow:
    """Drive the full fleet once and fold the outcome into a row.

    The trial body is identical in shape to the fleet experiment's — the
    same staggered :class:`SpiderClient` fleet on one shared town — at the
    scale the vectorized medium targets.

    ``timings``, when given, receives ``sim_cpu_s`` — the CPU time of
    ``sim.run`` alone, excluding world construction and fleet setup,
    which the perf benches leave out of their rates.  It never touches
    the row, which must stay a pure function of (spec, seed).
    """
    with_telemetry = spec.telemetry if telemetry is None else telemetry
    tele = (
        Telemetry(enabled=True, key=("dense_town", spec.n_vehicles, seed))
        if with_telemetry
        else None
    )
    sim = Simulator(seed=seed, telemetry=tele)
    town = build_town(
        sim,
        config=spec.town_config(),
        transport=spec.transport,
        contention=spec.contention,
    )
    spacing = town.config.loop_length_m / max(spec.n_vehicles, 1)
    clients = []
    mode = (
        OperationMode.single_channel(spec.channels[0])
        if len(spec.channels) == 1
        else OperationMode.equal_split(spec.channels, 0.4)
    )
    for index in range(spec.n_vehicles):
        mobility = town.make_vehicle_mobility(
            spec.speed_mps, start_arc_m=index * spacing
        )
        config = SpiderConfig.spider_defaults(mode, num_interfaces=7)
        client = SpiderClient(
            sim, town.world, mobility, config, client_id=f"veh{index}"
        )
        client.start()
        clients.append(client)
    t0 = time.process_time()
    sim.run(until=spec.duration_s)
    if timings is not None:
        timings["sim_cpu_s"] = time.process_time() - t0
    n = max(spec.n_vehicles, 1)
    medium = town.world.medium
    if tele is not None and medium.contention is not None:
        # Surface the per-AP/per-channel airtime-share and collision-rate
        # gauges in the row's deterministic telemetry projection (the
        # PR-4 "per-AP/channel airtime telemetry" hook).
        medium.contention.export_telemetry(spec.duration_s)
    join_attempts = sum(len(c.join_log.attempts) for c in clients)
    joins_completed = sum(len(c.join_log.join_times()) for c in clients)
    return DenseTownRow(
        seed=seed,
        ap_count=len(town.aps),
        vehicles=spec.n_vehicles,
        events_processed=sim.events_processed,
        frames_delivered=medium.frames_delivered,
        frames_lost=medium.frames_lost,
        aggregate_kBps=sum(
            c.average_throughput_kBps(spec.duration_s) for c in clients
        ),
        mean_connectivity_pct=sum(
            c.connectivity_percent(spec.duration_s) for c in clients
        ) / n,
        join_attempts=join_attempts,
        joins_completed=joins_completed,
        frames_collided=medium.frames_collided,
        telemetry=tele.snapshot().deterministic() if tele is not None else None,
    )


@register("dense-town", DenseTownSpec, summary="large fleet on a city-scale AP field")
def run_spec(spec: DenseTownSpec) -> DenseTownResult:
    jobs = [
        TrialJob(run_dense_trial, (spec, seed), tag=("dense_town", seed))
        for seed in spec.seeds
    ]
    envelopes = run_jobs(
        jobs, workers=spec.workers, timeout_s=spec.timeout_s, retries=spec.retries
    )
    return DenseTownResult(rows=[e.unwrap() for e in envelopes])


def main() -> None:
    """Command-line entry point."""
    result = run_spec().unwrap()
    print(result.render())


if __name__ == "__main__":
    main()
