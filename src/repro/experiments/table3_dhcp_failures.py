"""Table 3: DHCP failure probability per timeout configuration.

Paper rows (failure % ± std): reduced DHCP timers on channel 1 fail
23-28 % of attempts, a three-channel schedule adds variance, and the
default timers fail least (13.5 %) — they wait out slow servers, at the
cost of much slower successes (Fig. 14) and 60 s idle periods.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.reporting import format_table
from .api import ExperimentSpec, register
from .common import AggregatedMetrics
from .timeout_grid import run_grid

__all__ = [
    "Table3Spec",
    "Table3Row",
    "Table3Result",
    "PAPER_ROWS",
    "run_spec",
]

TABLE3_LABELS = (
    "ch1, ll=100ms, dhcp=600ms, 7if",
    "ch1, ll=100ms, dhcp=400ms, 7if",
    "ch1, ll=100ms, dhcp=200ms, 7if",
    "3ch, ll=100ms, dhcp=200ms, 7if",
    "ch1, default timers, 7if",
    "3ch, default timers, 7if",
)

#: Paper values: failure % ± std.
PAPER_ROWS: Dict[str, tuple] = {
    "ch1, ll=100ms, dhcp=600ms, 7if": (23.0, 6.4),
    "ch1, ll=100ms, dhcp=400ms, 7if": (27.1, 5.4),
    "ch1, ll=100ms, dhcp=200ms, 7if": (28.2, 4.0),
    "3ch, ll=100ms, dhcp=200ms, 7if": (23.6, 10.7),
    "ch1, default timers, 7if": (13.5, 6.3),
    "3ch, default timers, 7if": (21.8, 6.9),
}


@dataclass
class Table3Row:
    """One timeout configuration's DHCP failure statistics."""
    label: str
    failure_pct: float
    failure_std_pct: float
    attempts: int
    paper_failure_pct: Optional[float]


@dataclass
class Table3Result:
    """All Table 3 rows."""
    rows: List[Table3Row]

    @classmethod
    def from_grid(
        cls,
        grid: Dict[str, AggregatedMetrics],
        labels: Sequence[str] = TABLE3_LABELS,
    ) -> "Table3Result":
        """Tabulate one row per timeout configuration from the grid's drives."""
        return cls(rows=[_row(label, grid[label]) for label in labels])

    def render(self) -> str:
        """Render the result as printable text."""
        return format_table(
            ["parameters", "Failed dhcp", "std", "attempts", "paper"],
            [
                (
                    r.label,
                    f"{r.failure_pct:.1f}%",
                    f"±{r.failure_std_pct:.1f}%",
                    r.attempts,
                    "-" if r.paper_failure_pct is None else f"{r.paper_failure_pct:.1f}%",
                )
                for r in self.rows
            ],
            title="Table 3: dhcp failure probabilities",
        )


def _row(label: str, metrics: AggregatedMetrics) -> Table3Row:
    rates = metrics.dhcp_failure_rates()
    attempts = sum(
        sum(1 for a in t.join_log.attempts if a.dhcp_attempted) for t in metrics.trials
    )
    mean = 100.0 * statistics.mean(rates) if rates else math.nan
    std = 100.0 * statistics.stdev(rates) if len(rates) > 1 else 0.0
    paper = PAPER_ROWS.get(label)
    return Table3Row(
        label=label,
        failure_pct=mean,
        failure_std_pct=std,
        attempts=attempts,
        paper_failure_pct=paper[0] if paper else None,
    )


@dataclass(frozen=True)
class Table3Spec(ExperimentSpec):
    """Spec for Table 3 (DHCP failure probabilities)."""

    seeds: Tuple[int, ...] = (0, 1, 2)
    labels: Tuple[str, ...] = TABLE3_LABELS


@register("table3", Table3Spec, summary="DHCP failure probability per timeout")
def run_spec(spec: Table3Spec) -> Table3Result:
    grid = run_grid(
        labels=spec.labels,
        seeds=spec.seeds,
        duration_s=spec.duration_s,
        workers=spec.workers,
        transport=spec.transport,
        contention=spec.contention,
    )
    return Table3Result.from_grid(grid, spec.labels)
