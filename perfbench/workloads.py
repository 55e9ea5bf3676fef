"""The benchmark's workloads: inputs from a seed, the call, and its checks.

Each workload drives one public entry point of the program in this
process, with ``workers=1`` and the trial cache off:

* ``town_grid`` calls ``run_spec(Table2Spec(...))``;
* ``city_join_storm`` and ``fleet_transfer`` call
  ``run_dense_trial(DenseTownSpec(...), seed)`` once per world.

A workload's inputs are a pure function of the benchmark seed.  Each
workload keeps its worlds fixed and takes a drive parameter from the seed
(see ``TownGrid`` and ``DenseFleet`` for why).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.experiments.dense_town import DenseTownSpec, run_dense_trial
from repro.experiments.table2_configs import Table2Spec, run_spec
from repro.experiments.town_runs import (
    CONFIG_CH1_MULTI_AP,
    CONFIG_CH1_SINGLE_AP,
    CONFIG_MULTI_CH_MULTI_AP,
    CONFIG_MULTI_CH_SINGLE_AP,
    CONFIG_STOCK,
)
from repro.sim.contention import ContentionSpec

#: Sim seeds of the worlds every workload drives (see ``TownGrid``).
WORLD_SEEDS = (0, 1)

TABLE2_LABELS = (
    CONFIG_CH1_MULTI_AP,
    CONFIG_CH1_SINGLE_AP,
    CONFIG_MULTI_CH_MULTI_AP,
    CONFIG_MULTI_CH_SINGLE_AP,
    CONFIG_STOCK,
)


def _connectivity_ok(pct: float) -> bool:
    return 0.0 <= pct <= 100.0


@dataclass(frozen=True)
class TownGrid:
    """Table 2's five configurations, one vehicle per trial, on amherst.

    A single-vehicle drive's cost and outcome differ several-fold between
    towns (one town has two APs, another 56), so seed-drawn towns would
    measure the town rather than the code.  The towns are fixed to sim
    seeds 0 and 1 (the defaults of the Table 2 experiment) and the seed
    sets the drive length, 40.0 to 44.5 simulated seconds in 0.5 s steps:
    every seed is a distinct input, and the events per simulated second
    change by about 2 % across the band.
    """

    name: str = "town_grid"
    #: Equal stretches of each trial's simulated time, compared across passes.
    slices: int = 4

    def spec(self, seed: int) -> Table2Spec:
        return Table2Spec(
            seeds=WORLD_SEEDS,
            duration_s=40.0 + 0.5 * (seed % 10),
            include_cambridge=False,
            workers=1,
            cache=False,
        )

    def call(self, spec: Table2Spec) -> Any:
        return run_spec(spec)

    def trials(self, result) -> List[Any]:
        suite = result.value.suite
        return [trial for label in suite.labels() for trial in suite[label].trials]

    def rows(self, result) -> Dict[str, Any]:
        return {
            "table2": result.value.rows,
            "trials": [
                {
                    "label": t.label,
                    "seed": t.seed,
                    "duration_s": t.duration_s,
                    "average_throughput_kBps": t.average_throughput_kBps,
                    "connectivity_pct": t.connectivity_pct,
                    "connection_durations_s": t.connection_durations_s,
                    "disruption_durations_s": t.disruption_durations_s,
                    "instantaneous_kBps": t.instantaneous_kBps,
                    "join_attempts": t.join_log.attempts,
                    "links_established": t.links_established,
                    "events_processed": t.events_processed,
                }
                for t in self.trials(result)
            ],
        }

    def problems(self, spec: Table2Spec, result) -> List[str]:
        if not result.ok:
            return [f"run_spec failed: {result.error}"]
        out = []
        labels = tuple(row.label for row in result.value.rows)
        if labels != TABLE2_LABELS:
            out.append(f"Table 2 rows {labels} != {TABLE2_LABELS}")
        trials = self.trials(result)
        if len(trials) != len(TABLE2_LABELS) * len(spec.seeds):
            out.append(f"{len(trials)} trials for {len(spec.seeds)} seeds")
        for t in trials:
            where = f"{t.label} seed {t.seed}"
            if not _connectivity_ok(t.connectivity_pct):
                out.append(f"{where}: connectivity {t.connectivity_pct}")
            if len(t.join_log.join_times()) > len(t.join_log.attempts):
                out.append(f"{where}: more joins completed than attempted")
            if t.events_processed <= 0:
                out.append(f"{where}: no events")
            if not (math.isfinite(t.average_throughput_kBps) and t.average_throughput_kBps >= 0):
                out.append(f"{where}: throughput {t.average_throughput_kBps}")
        return out

    def outcomes(self, result) -> Dict[str, float]:
        trials = self.trials(result)
        attempts = sum(len(t.join_log.attempts) for t in trials)
        joins = sum(len(t.join_log.join_times()) for t in trials)
        return {
            "goodput_kBps": sum(t.average_throughput_kBps for t in trials) / len(trials),
            "connectivity_pct": sum(t.connectivity_pct for t in trials) / len(trials),
            "join_completion": joins / attempts if attempts else 0.0,
        }


@dataclass(frozen=True)
class DenseFleet:
    """A fleet on a dense world, one ``run_dense_trial`` per world.

    Like ``TownGrid``, the worlds are fixed (sim seeds 0 and 1): between
    worlds drawn from different seeds the CPU per simulated second differs
    by up to 1.4x and goodput by 1.3x.  The seed sets the fleet's speed,
    10.00 to 10.18 m/s, which moves every event time and so every outcome,
    but not the size of the work.
    """

    name: str
    n_vehicles: int
    channels: tuple
    duration_s: float
    #: Equal stretches of each world's simulated time, compared across passes.
    slices: int
    loop_length_m: Optional[float] = None
    ap_density_per_km: Optional[float] = None

    def spec(self, seed: int) -> DenseTownSpec:
        return DenseTownSpec(
            seeds=WORLD_SEEDS,
            duration_s=self.duration_s,
            speed_mps=10.0 + 0.02 * (seed % 10),
            town="city",
            n_vehicles=self.n_vehicles,
            channels=self.channels,
            contention=ContentionSpec(),
            loop_length_m=self.loop_length_m,
            ap_density_per_km=self.ap_density_per_km,
            workers=1,
            cache=False,
        )

    def call(self, spec: DenseTownSpec) -> Any:
        return [run_dense_trial(spec, seed) for seed in spec.seeds]

    def rows(self, result) -> Any:
        return result

    def problems(self, spec: DenseTownSpec, result) -> List[str]:
        out = []
        for row in result:
            where = f"world {row.seed}"
            if not _connectivity_ok(row.mean_connectivity_pct):
                out.append(f"{where}: connectivity {row.mean_connectivity_pct}")
            if row.joins_completed > row.join_attempts:
                out.append(f"{where}: more joins completed than attempted")
            if row.events_processed <= 0 or row.ap_count <= 0:
                out.append(f"{where}: empty run ({row.events_processed} events, {row.ap_count} APs)")
            if row.vehicles != spec.n_vehicles:
                out.append(f"{where}: {row.vehicles} vehicles")
            if not (math.isfinite(row.aggregate_kBps) and row.aggregate_kBps >= 0):
                out.append(f"{where}: goodput {row.aggregate_kBps}")
        return out

    def outcomes(self, result) -> Dict[str, float]:
        attempts = sum(row.join_attempts for row in result)
        return {
            "goodput_kBps": sum(row.aggregate_kBps for row in result) / len(result),
            "connectivity_pct": sum(row.mean_connectivity_pct for row in result) / len(result),
            "join_completion": (
                sum(row.joins_completed for row in result) / attempts if attempts else 0.0
            ),
        }


WORKLOADS = {
    w.name: w
    for w in (
        TownGrid(),
        DenseFleet(
            name="city_join_storm",
            n_vehicles=250,
            channels=(1,),
            duration_s=1.0,
            slices=10,
        ),
        DenseFleet(
            name="fleet_transfer",
            n_vehicles=16,
            channels=(1, 6, 11),
            duration_s=9.0,
            slices=18,
            loop_length_m=2000.0,
            ap_density_per_km=60.0,
        ),
    )
}
