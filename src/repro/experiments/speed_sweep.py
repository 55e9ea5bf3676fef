"""System-level speed sweep: the model's dividing-speed claim, end to end.

Fig. 4 predicts, from Eq. 8-10 alone, that channel switching stops paying
as speed rises.  This experiment checks the *system-level* counterpart the
paper asserts in §2.3: drive the full Spider stack at a range of speeds in
the same town under (a) the single-channel schedule and (b) the equal
three-channel schedule, and find the speed regime where single-channel
operation dominates throughput.

Not a numbered artifact of the paper, but the experiment that ties its two
halves (model and system) together; the adaptive scheduler (§4.8) is
exactly the policy that exploits this sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..analysis.reporting import format_table
from ..core.schedule import OperationMode
from ..core.spider import ORTHOGONAL_CHANNELS
from .api import ExperimentSpec, register
from .common import AggregatedMetrics, TownTrialSpec, aggregate_town_trials
from .town_runs import spider_factory

__all__ = ["SpeedSweepSpec", "SpeedSweepResult", "run_spec"]

POLICIES: Dict[str, OperationMode] = {
    "single-channel": OperationMode.single_channel(1),
    "multi-channel": OperationMode.equal_split(ORTHOGONAL_CHANNELS, 0.6),
}


@dataclass
class SpeedSweepResult:
    """Both policies' outcomes per speed."""
    speeds_mps: List[float]
    #: policy -> (throughput kB/s, connectivity %) per speed.
    series: Dict[str, List[Tuple[float, float]]]

    def throughput_ratio(self, speed_index: int) -> float:
        """single-channel / multi-channel throughput at one speed."""
        single = self.series["single-channel"][speed_index][0]
        multi = self.series["multi-channel"][speed_index][0]
        return single / multi if multi > 0 else float("inf")

    def render(self) -> str:
        """Render the result as printable text."""
        rows = []
        for index, speed in enumerate(self.speeds_mps):
            single_tput, single_conn = self.series["single-channel"][index]
            multi_tput, multi_conn = self.series["multi-channel"][index]
            rows.append(
                (
                    f"{speed:g} m/s",
                    f"{single_tput:.1f} / {single_conn:.1f}%",
                    f"{multi_tput:.1f} / {multi_conn:.1f}%",
                    f"{self.throughput_ratio(index):.1f}x",
                )
            )
        return format_table(
            ["speed", "single-channel (tput/conn)", "3-channel (tput/conn)", "tput ratio"],
            rows,
            title="System-level speed sweep (cf. Fig. 4's model prediction)",
        )


@dataclass(frozen=True)
class SpeedSweepSpec(ExperimentSpec):
    """Spec for the system-level speed sweep."""

    duration_s: float = 400.0
    speeds_mps: Tuple[float, ...] = (3.0, 6.0, 10.0, 15.0)


@register("speed-sweep", SpeedSweepSpec, summary="single vs multi channel across speeds")
def run_spec(spec: SpeedSweepSpec) -> SpeedSweepResult:
    """The full ``speed x policy x seed`` grid fans out as one batch through
    :mod:`repro.runner`, then regroups into per-policy series in sweep
    order.
    """
    grid = [
        (speed, name, mode)
        for speed in spec.speeds_mps
        for name, mode in POLICIES.items()
    ]
    specs = [
        TownTrialSpec(
            factory=spider_factory(mode, 7),
            label=f"{name}@{speed}",
            seed=seed,
            duration_s=spec.duration_s,
            town=spec.town,
            speed_mps=speed,
        )
        for speed, name, mode in grid
        for seed in spec.seeds
    ]
    per_label = aggregate_town_trials(
        specs,
        workers=spec.workers,
        transport=spec.transport,
        contention=spec.contention,
    )
    series: Dict[str, List[Tuple[float, float]]] = {name: [] for name in POLICIES}
    for speed, name, _mode in grid:
        label = f"{name}@{speed}"
        metrics = per_label.get(label, AggregatedMetrics(label=label, trials=[]))
        series[name].append(
            (metrics.average_throughput_kBps, metrics.connectivity_pct)
        )
    return SpeedSweepResult(speeds_mps=list(spec.speeds_mps), series=series)
