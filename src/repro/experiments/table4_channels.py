"""Table 4: throughput/connectivity under 1-, 2-, and 3-channel schedules.

Paper values: single channel 121.5 KB/s @ 35.5 %, two channels (equal)
25.1 KB/s @ 35.8 %, three channels (equal) 28.8 KB/s @ 44.7 % — throughput
is maximized on one channel, connectivity on three.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..analysis.reporting import format_table
from ..core.schedule import OperationMode
from .api import ExperimentSpec, register
from .common import run_town_trials
from .town_runs import spider_factory

__all__ = [
    "Table4Spec",
    "Table4Row",
    "Table4Result",
    "PAPER_ROWS",
    "run_spec",
]

#: (label, schedule) — multi-channel rows use 200 ms per channel.
SCHEDULES: Dict[str, OperationMode] = {
    "3-channel (equal schedule)": OperationMode.equal_split((1, 6, 11), 0.6),
    "2-channel (equal schedule)": OperationMode.equal_split((1, 6), 0.4),
    "Single-channel": OperationMode.single_channel(1),
}

PAPER_ROWS: Dict[str, Tuple[float, float]] = {
    "3-channel (equal schedule)": (28.8, 44.7),
    "2-channel (equal schedule)": (25.1, 35.8),
    "Single-channel": (121.5, 35.5),
}


@dataclass
class Table4Row:
    """One schedule's throughput/connectivity pair."""
    label: str
    throughput_kBps: float
    connectivity_pct: float
    paper: Optional[Tuple[float, float]]


@dataclass
class Table4Result:
    """All Table 4 rows."""
    rows: List[Table4Row]

    def single_channel_wins_throughput(self) -> bool:
        """Whether the single-channel row has the best throughput."""
        best = max(self.rows, key=lambda r: r.throughput_kBps)
        return best.label == "Single-channel"

    def three_channel_wins_connectivity(self) -> bool:
        """Whether the 3-channel row has the best connectivity."""
        best = max(self.rows, key=lambda r: r.connectivity_pct)
        return best.label == "3-channel (equal schedule)"

    def render(self) -> str:
        """Render the result as printable text."""
        table = format_table(
            ["Parameters", "Throughput", "Connectivity", "paper tput", "paper conn"],
            [
                (
                    r.label,
                    f"{r.throughput_kBps:.1f} KB/s",
                    f"{r.connectivity_pct:.1f}%",
                    "-" if r.paper is None else f"{r.paper[0]:.1f}",
                    "-" if r.paper is None else f"{r.paper[1]:.1f}%",
                )
                for r in self.rows
            ],
            title="Table 4: static schedules vs throughput and connectivity",
        )
        return (
            f"{table}\n"
            f"single channel wins throughput: {self.single_channel_wins_throughput()}\n"
            f"3-channel wins connectivity:    {self.three_channel_wins_connectivity()}"
        )


@dataclass(frozen=True)
class Table4Spec(ExperimentSpec):
    """Spec for Table 4 (static schedules)."""

    duration_s: float = 600.0


@register("table4", Table4Spec, summary="static schedules vs throughput/connectivity")
def run_spec(spec: Table4Spec) -> Table4Result:
    rows = []
    for label, mode in SCHEDULES.items():
        metrics = run_town_trials(
            spider_factory(mode, 7),
            label,
            seeds=spec.seeds,
            duration_s=spec.duration_s,
            workers=spec.workers,
            transport=spec.transport,
            contention=spec.contention,
        )
        rows.append(
            Table4Row(
                label=label,
                throughput_kBps=metrics.average_throughput_kBps,
                connectivity_pct=metrics.connectivity_pct,
                paper=PAPER_ROWS.get(label),
            )
        )
    return Table4Result(rows=rows)
