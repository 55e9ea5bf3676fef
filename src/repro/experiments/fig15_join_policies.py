"""Figure 15: join delay across scheduling policies.

The six curves of the paper: one vs seven interfaces on channel 1 with
default timers, seven interfaces with reduced timers, a 50/50 two-channel
schedule, and three-channel schedules with default and reduced timers.
Single-channel with reduced timeouts joins fastest; every added channel
slows the join pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..analysis.reporting import format_cdf
from ..analysis.stats import percentile
from .api import ExperimentSpec, register
from .common import AggregatedMetrics
from .timeout_grid import run_grid

__all__ = ["Fig15Spec", "Fig15Result", "run_spec"]

FIG15_LABELS = (
    "ch1, default timers, 1if",
    "ch1, default timers, 7if",
    "ch1, ll=100ms, dhcp=200ms, 7if",
    "2ch(1,6), default timers, 7if",
    "3ch, default timers, 7if",
    "3ch, ll=100ms, dhcp=200ms, 7if",
)

CDF_POINTS_S = (0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 12.0, 15.0)


@dataclass
class Fig15Result:
    """Join-time distributions per scheduling policy."""
    join_times: Dict[str, List[float]]

    @classmethod
    def from_grid(
        cls,
        grid: Dict[str, AggregatedMetrics],
        labels: Sequence[str] = FIG15_LABELS,
    ) -> "Fig15Result":
        """Pool each configuration's join times from the grid's drives."""
        return cls(
            join_times={label: grid[label].pooled_join_times() for label in labels}
        )

    def median(self, label: str) -> float:
        """Median of the named curve's join times."""
        return percentile(self.join_times[label], 50)

    def fastest_policy(self) -> str:
        """Label of the policy with the lowest median join time."""
        candidates = {k: self.median(k) for k, v in self.join_times.items() if v}
        return min(candidates, key=candidates.get)  # type: ignore[arg-type]

    def render(self) -> str:
        """Render the result as printable text."""
        lines = []
        for label, values in self.join_times.items():
            lines.append(
                format_cdf(
                    f"Fig15 {label} (median={self.median(label):.2f}s)",
                    values,
                    CDF_POINTS_S,
                )
            )
        if any(self.join_times.values()):
            lines.append(f"fastest policy: {self.fastest_policy()}")
        return "\n".join(lines)


@dataclass(frozen=True)
class Fig15Spec(ExperimentSpec):
    """Spec for Figure 15 (join delay across scheduling policies)."""

    labels: Tuple[str, ...] = FIG15_LABELS


@register("fig15", Fig15Spec, summary="join delay across scheduling policies")
def run_spec(spec: Fig15Spec) -> Fig15Result:
    grid = run_grid(
        labels=spec.labels,
        seeds=spec.seeds,
        duration_s=spec.duration_s,
        workers=spec.workers,
        stack=spec.stack,
    )
    return Fig15Result.from_grid(grid, spec.labels)
