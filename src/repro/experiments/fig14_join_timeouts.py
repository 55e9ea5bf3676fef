"""Figure 14: CDF of successful join time (association + DHCP) vs timeout.

Paper finding: reducing DHCP timers improves the *median* time to obtain a
lease (even though Table 3 shows more outright failures), and switching
among channels roughly doubles the join time — hence "it is best to stay
on one channel."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..analysis.reporting import format_cdf
from ..analysis.stats import percentile
from .api import ExperimentSpec, register
from .common import AggregatedMetrics
from .timeout_grid import run_grid

__all__ = ["Fig14Spec", "Fig14Result", "run_spec"]

FIG14_LABELS = (
    "ch1, ll=100ms, dhcp=200ms, 7if",
    "ch1, ll=100ms, dhcp=400ms, 7if",
    "ch1, ll=100ms, dhcp=600ms, 7if",
    "ch1, default timers, 7if",
    "3ch, default timers, 7if",
    "3ch, ll=100ms, dhcp=200ms, 7if",
)

CDF_POINTS_S = (0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 12.0, 15.0)


@dataclass
class Fig14Result:
    """Join-time distributions per timeout configuration."""
    join_times: Dict[str, List[float]]

    @classmethod
    def from_grid(
        cls,
        grid: Dict[str, AggregatedMetrics],
        labels: Sequence[str] = FIG14_LABELS,
    ) -> "Fig14Result":
        """Pool each configuration's join times from the grid's drives."""
        return cls(
            join_times={label: grid[label].pooled_join_times() for label in labels}
        )

    def median(self, label: str) -> float:
        """Median of the named curve's join times."""
        return percentile(self.join_times[label], 50)

    def render(self) -> str:
        """Render the result as printable text."""
        lines = []
        for label, values in self.join_times.items():
            lines.append(
                format_cdf(f"Fig14 {label} (median={self.median(label):.2f}s)",
                           values, CDF_POINTS_S)
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class Fig14Spec(ExperimentSpec):
    """Spec for Figure 14 (join-time CDFs vs DHCP timeout)."""

    labels: Tuple[str, ...] = FIG14_LABELS


@register("fig14", Fig14Spec, summary="join time CDFs vs DHCP timeout")
def run_spec(spec: Fig14Spec) -> Fig14Result:
    grid = run_grid(
        labels=spec.labels,
        seeds=spec.seeds,
        duration_s=spec.duration_s,
        workers=spec.workers,
        transport=spec.transport,
        contention=spec.contention,
    )
    return Fig14Result.from_grid(grid, spec.labels)
