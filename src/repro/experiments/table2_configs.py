"""Table 2: average throughput and connectivity per Spider configuration.

The headline table of the paper: single-channel multi-AP wins throughput
(~4x its single-AP counterpart), multi-channel multi-AP wins connectivity,
and both beat the stock MadWiFi driver.  The Cambridge rows externally
validate on a denser town (including the 800 % comparison against
Cabernet's reported 10.75 KB/s).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..analysis.reporting import format_table
from .api import ExperimentSpec, register
from .town_runs import (
    CONFIG_CH1_MULTI_AP,
    CONFIG_CH1_SINGLE_AP,
    CONFIG_CH6_SINGLE_AP_CAMBRIDGE,
    CONFIG_MULTI_CH_MULTI_AP,
    CONFIG_MULTI_CH_SINGLE_AP,
    CONFIG_STOCK,
    ConfigurationSuite,
    run_configuration_suite,
)

__all__ = [
    "Table2Spec",
    "Table2Row",
    "Table2Result",
    "PAPER_TABLE2_KBPS",
    "run_spec",
]

#: The paper's Table 2 values: (throughput KB/s, connectivity %).
PAPER_TABLE2_KBPS: Dict[str, tuple] = {
    CONFIG_CH1_MULTI_AP: (121.5, 35.5),
    CONFIG_CH1_SINGLE_AP: (28.0, 22.3),
    CONFIG_MULTI_CH_MULTI_AP: (28.8, 44.6),
    CONFIG_MULTI_CH_SINGLE_AP: (77.9, 40.2),
    CONFIG_CH6_SINGLE_AP_CAMBRIDGE: (90.7, 36.4),
    CONFIG_STOCK: (35.9, 18.0),
}

#: Cabernet's reported average throughput in the same city (§4.4).
CABERNET_THROUGHPUT_KBPS = 10.75


@dataclass
class Table2Row:
    """One configuration's measured and paper values."""
    label: str
    throughput_kBps: float
    connectivity_pct: float
    paper_throughput_kBps: Optional[float]
    paper_connectivity_pct: Optional[float]


@dataclass
class Table2Result:
    """All Table 2 rows plus the underlying suite."""
    rows: List[Table2Row]
    suite: ConfigurationSuite

    @classmethod
    def from_suite(cls, suite: ConfigurationSuite) -> "Table2Result":
        """Tabulate one row per configuration the suite drove."""
        rows = []
        for label in suite.labels():
            metrics = suite[label]
            paper = PAPER_TABLE2_KBPS.get(label)
            rows.append(
                Table2Row(
                    label=label,
                    throughput_kBps=metrics.average_throughput_kBps,
                    connectivity_pct=metrics.connectivity_pct,
                    paper_throughput_kBps=paper[0] if paper else None,
                    paper_connectivity_pct=paper[1] if paper else None,
                )
            )
        return cls(rows=rows, suite=suite)

    def by_label(self) -> Dict[str, Table2Row]:
        """Rows keyed by configuration label."""
        return {r.label: r for r in self.rows}

    # ------------------------------------------------------------------
    # The paper's qualitative claims, as checkable predicates
    # ------------------------------------------------------------------
    def multi_ap_gain(self) -> float:
        """Throughput ratio of (1) over (2) — the paper reports ~4x."""
        rows = self.by_label()
        single = rows[CONFIG_CH1_SINGLE_AP].throughput_kBps
        if single <= 0:
            return float("inf")
        return rows[CONFIG_CH1_MULTI_AP].throughput_kBps / single

    def best_throughput_label(self) -> str:
        """Label of the configuration with the highest throughput."""
        return max(self.rows, key=lambda r: r.throughput_kBps).label

    def best_connectivity_label(self) -> str:
        """Label of the configuration with the highest connectivity."""
        return max(self.rows, key=lambda r: r.connectivity_pct).label

    def render(self) -> str:
        """Render the result as printable text."""
        table_rows = [
            (
                r.label,
                f"{r.throughput_kBps:.1f}",
                f"{r.connectivity_pct:.1f}%",
                "-" if r.paper_throughput_kBps is None else f"{r.paper_throughput_kBps:.1f}",
                "-" if r.paper_connectivity_pct is None else f"{r.paper_connectivity_pct:.1f}%",
            )
            for r in self.rows
        ]
        lines = [
            format_table(
                ["(Config) Parameters", "Throughput", "Connectivity", "paper tput", "paper conn"],
                table_rows,
                title="Table 2: avg throughput and connectivity per configuration",
            )
        ]
        rows = self.by_label()
        if CONFIG_CH1_MULTI_AP in rows and CONFIG_CH1_SINGLE_AP in rows:
            lines.append(
                f"multi-AP gain (1)/(2): {self.multi_ap_gain():.2f}x (paper: ~4.3x)"
            )
        if self.rows:
            lines.append(f"best throughput:   {self.best_throughput_label()}")
            lines.append(f"best connectivity: {self.best_connectivity_label()}")
        ch6 = rows.get(CONFIG_CH6_SINGLE_AP_CAMBRIDGE)
        if ch6 is not None:
            ratio = ch6.throughput_kBps / CABERNET_THROUGHPUT_KBPS
            lines.append(
                f"Cambridge ch6 vs Cabernet ({CABERNET_THROUGHPUT_KBPS} KB/s): "
                f"{ratio:.1f}x (paper: ~8x)"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class Table2Spec(ExperimentSpec):
    """Spec for Table 2 (the headline configuration grid)."""

    duration_s: float = 900.0
    include_cambridge: bool = True


@register("table2", Table2Spec, summary="throughput/connectivity per configuration")
def run_spec(spec: Table2Spec) -> Table2Result:
    return Table2Result.from_suite(
        run_configuration_suite(
            seeds=spec.seeds,
            duration_s=spec.duration_s,
            include_cambridge=spec.include_cambridge,
            workers=spec.workers,
            telemetry=spec.telemetry,
            stack=spec.stack,
        )
    )
