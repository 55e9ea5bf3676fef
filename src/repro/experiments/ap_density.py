"""§4.4: effect of AP density on Spider's performance.

Two observations to reproduce:

* even at modest density, Spider rides **one** AP ~85 % of its connected
  time, two ~10 %, three ~5 % — yet multi-AP still multiplies average
  throughput, because the win is *continuity* (pre-joined handoffs), not
  just parallel downloads;
* denser towns raise both throughput and connectivity (the Cambridge
  external validation in Table 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..analysis.reporting import format_table
from ..core.schedule import OperationMode
from ..core.link_manager import SpiderConfig
from ..core.spider import SpiderClient
from ..sim.engine import PeriodicProcess, Simulator
from ..sim.world import StackSpec
from ..workloads.town import build_town
from .api import ExperimentSpec, register

__all__ = ["DensitySpec", "DensityRow", "DensityResult", "run_spec"]


@dataclass
class DensityRow:
    """One town preset's density outcomes."""
    town: str
    ap_count: int
    throughput_kBps: float
    connectivity_pct: float
    #: Fraction of *connected* samples with exactly 1, 2, and >=3 links.
    link_share: Dict[int, float]


@dataclass
class DensityResult:
    """All density rows."""
    rows: List[DensityRow]

    def render(self) -> str:
        """Render the result as printable text."""
        return format_table(
            ["town", "APs", "tput KB/s", "conn %", "1 AP", "2 APs", "3+ APs"],
            [
                (
                    r.town,
                    r.ap_count,
                    f"{r.throughput_kBps:.1f}",
                    f"{r.connectivity_pct:.1f}",
                    f"{100 * r.link_share.get(1, 0):.0f}%",
                    f"{100 * r.link_share.get(2, 0):.0f}%",
                    f"{100 * r.link_share.get(3, 0):.0f}%",
                )
                for r in self.rows
            ],
            title="AP density vs Spider (single channel, multi-AP)",
        )


def _run_one(
    town: str,
    seed: int,
    duration_s: float,
    channel: int = 1,
    stack: StackSpec = StackSpec(),
) -> DensityRow:
    sim = Simulator(seed=seed)
    instance = build_town(sim, preset=town, stack=stack)
    mobility = instance.make_vehicle_mobility(10.0)
    config = SpiderConfig.spider_defaults(
        OperationMode.single_channel(channel), num_interfaces=7
    )
    client = SpiderClient(sim, instance.world, mobility, config, client_id="veh")
    samples: List[int] = []
    PeriodicProcess(sim, 1.0, lambda: samples.append(client.lmm.established_count))
    client.start()
    sim.run(until=duration_s)
    connected = [s for s in samples if s > 0]
    share: Dict[int, float] = {}
    if connected:
        for count in connected:
            bucket = min(count, 3)
            share[bucket] = share.get(bucket, 0) + 1
        share = {k: v / len(connected) for k, v in share.items()}
    return DensityRow(
        town=town,
        ap_count=len(instance.aps),
        throughput_kBps=client.average_throughput_kBps(duration_s),
        connectivity_pct=client.connectivity_percent(duration_s),
        link_share=share,
    )


@dataclass(frozen=True)
class DensitySpec(ExperimentSpec):
    """Spec for the AP-density sweep (``towns`` overrides base ``town``)."""

    duration_s: float = 600.0
    towns: Tuple[str, ...] = ("sparse", "amherst", "dense")


@register("density", DensitySpec, summary="AP density vs Spider performance")
def run_spec(spec: DensitySpec) -> DensityResult:
    rows = []
    for town in spec.towns:
        per_seed = [
            _run_one(town, seed, spec.duration_s, stack=spec.stack)
            for seed in spec.seeds
        ]
        merged_share: Dict[int, float] = {}
        for row in per_seed:
            for k, v in row.link_share.items():
                merged_share[k] = merged_share.get(k, 0.0) + v / len(per_seed)
        rows.append(
            DensityRow(
                town=town,
                ap_count=round(sum(r.ap_count for r in per_seed) / len(per_seed)),
                throughput_kBps=sum(r.throughput_kBps for r in per_seed) / len(per_seed),
                connectivity_pct=sum(r.connectivity_pct for r in per_seed) / len(per_seed),
                link_share=merged_share,
            )
        )
    return DensityResult(rows=rows)
