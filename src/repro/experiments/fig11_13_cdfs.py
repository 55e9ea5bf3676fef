"""Figures 11-13: connection, disruption, and instantaneous-bandwidth CDFs.

Derived from the same drives as Table 2:

* **Fig. 11** — CDF of Internet-connectivity durations.  Single-channel
  multi-AP sustains the longest connections; multi-channel multi-AP the
  shortest (joins on other channels interrupt it).
* **Fig. 12** — CDF of disruption lengths.  Multi-channel multi-AP has the
  shortest disruptions (a larger AP pool); single-channel suffers the
  longest (coverage holes on its chosen channel).
* **Fig. 13** — CDF of instantaneous bandwidth while connected.
  Single-channel configurations provide the best burst throughput.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..analysis.reporting import format_cdf
from ..analysis.stats import percentile
from .api import ExperimentSpec, register
from .town_runs import (
    CONFIG_CH1_MULTI_AP,
    CONFIG_CH1_SINGLE_AP,
    CONFIG_MULTI_CH_MULTI_AP,
    CONFIG_MULTI_CH_SINGLE_AP,
    ConfigurationSuite,
    run_configuration_suite,
)

__all__ = ["Fig11to13Spec", "Fig11to13Result", "run_spec", "FOUR_CONFIGS"]

FOUR_CONFIGS = (
    CONFIG_CH1_MULTI_AP,
    CONFIG_CH1_SINGLE_AP,
    CONFIG_MULTI_CH_MULTI_AP,
    CONFIG_MULTI_CH_SINGLE_AP,
)

CONNECTION_POINTS_S = (5.0, 10.0, 25.0, 50.0, 100.0, 250.0)
DISRUPTION_POINTS_S = (5.0, 15.0, 30.0, 60.0, 120.0, 300.0)
BANDWIDTH_POINTS_KBPS = (50.0, 100.0, 200.0, 300.0, 600.0, 1000.0)


@dataclass
class Fig11to13Result:
    """Connection/disruption/bandwidth distributions per configuration."""
    connection_durations: Dict[str, List[float]]
    disruption_durations: Dict[str, List[float]]
    instantaneous_kBps: Dict[str, List[float]]

    @classmethod
    def from_suite(
        cls, suite: ConfigurationSuite, labels: Sequence[str] = FOUR_CONFIGS
    ) -> "Fig11to13Result":
        """Pool each configuration's distributions from the suite's drives."""
        return cls(
            connection_durations={
                label: suite[label].connection_durations_s for label in labels
            },
            disruption_durations={
                label: suite[label].disruption_durations_s for label in labels
            },
            instantaneous_kBps={
                label: suite[label].instantaneous_kBps for label in labels
            },
        )

    def median_connection(self, label: str) -> float:
        """Median connection duration for the configuration."""
        return percentile(self.connection_durations[label], 50)

    def median_disruption(self, label: str) -> float:
        """Median disruption length for the configuration."""
        return percentile(self.disruption_durations[label], 50)

    def bandwidth_percentile(self, label: str, q: float) -> float:
        """Instantaneous-bandwidth percentile for the configuration."""
        return percentile(self.instantaneous_kBps[label], q)

    def render(self) -> str:
        """Render the result as printable text."""
        blocks = ["-- Fig 11: connection durations --"]
        for label, values in self.connection_durations.items():
            blocks.append(format_cdf(label, values, CONNECTION_POINTS_S))
        blocks.append("-- Fig 12: disruption lengths --")
        for label, values in self.disruption_durations.items():
            blocks.append(format_cdf(label, values, DISRUPTION_POINTS_S))
        blocks.append("-- Fig 13: instantaneous bandwidth (KB/s) --")
        for label, values in self.instantaneous_kBps.items():
            blocks.append(format_cdf(label, values, BANDWIDTH_POINTS_KBPS, unit="KBps"))
        return "\n".join(blocks)


@dataclass(frozen=True)
class Fig11to13Spec(ExperimentSpec):
    """Spec for Figures 11-13 (CDFs from the Table 2 drives)."""

    duration_s: float = 900.0
    labels: Tuple[str, ...] = FOUR_CONFIGS


@register("fig11-13", Fig11to13Spec, summary="connection/disruption/bandwidth CDFs")
def run_spec(spec: Fig11to13Spec) -> Fig11to13Result:
    suite = run_configuration_suite(
        seeds=spec.seeds,
        duration_s=spec.duration_s,
        include_cambridge=False,
        labels=spec.labels,
        workers=spec.workers,
        stack=spec.stack,
    )
    return Fig11to13Result.from_suite(suite, spec.labels)
