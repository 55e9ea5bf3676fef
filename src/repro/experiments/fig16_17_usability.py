"""Figures 16-17: does Spider's supply match mesh users' demand?

The paper compares the CDF of real users' TCP connection durations
(Fig. 16) and inter-connection gaps (Fig. 17) against the connection and
disruption distributions Spider achieves while driving.  Claims to check:

* Spider's connection durations stochastically dominate the users' flow
  durations ("Spider can support all the TCP flows that users need"), and
* the multi-channel multi-AP configuration's disruptions are comparable to
  the users' natural inter-connection gaps.

The demand side is the synthetic mesh trace (see
:mod:`repro.workloads.mesh_users`); the supply side reuses the Table 2
drives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..analysis.reporting import format_cdf
from ..analysis.stats import percentile
from ..workloads.mesh_users import MeshUserConfig, generate_mesh_trace
from .api import ExperimentSpec, register
from .town_runs import (
    CONFIG_CH1_MULTI_AP,
    CONFIG_MULTI_CH_MULTI_AP,
    ConfigurationSuite,
    run_configuration_suite,
)

__all__ = ["UsabilitySpec", "UsabilityResult", "run_spec"]

CONNECTION_POINTS_S = (2.0, 5.0, 10.0, 20.0, 40.0, 80.0, 100.0)
GAP_POINTS_S = (5.0, 15.0, 30.0, 60.0, 120.0, 300.0)
#: The Table 2 configurations whose supply is compared against demand.
SUPPLY_LABELS = (CONFIG_CH1_MULTI_AP, CONFIG_MULTI_CH_MULTI_AP)


@dataclass
class UsabilityResult:
    """User demand vs Spider supply distributions."""
    user_connection_durations: List[float]
    user_gaps: List[float]
    spider_connections: Dict[str, List[float]]
    spider_disruptions: Dict[str, List[float]]

    @classmethod
    def from_suite(
        cls, suite: ConfigurationSuite, mesh_seed: int = 0
    ) -> "UsabilityResult":
        """Set the suite's supply against a synthetic mesh-user trace."""
        trace = generate_mesh_trace(MeshUserConfig(), seed=mesh_seed)
        return cls(
            user_connection_durations=trace.connection_durations(),
            user_gaps=trace.inter_connection_gaps(),
            spider_connections={
                label: suite[label].connection_durations_s for label in SUPPLY_LABELS
            },
            spider_disruptions={
                label: suite[label].disruption_durations_s for label in SUPPLY_LABELS
            },
        )

    # ------------------------------------------------------------------
    def supply_covers_demand_fraction(self, label: str = CONFIG_CH1_MULTI_AP) -> float:
        """Fraction of user flows shorter than Spider's median connection."""
        median_supply = percentile(self.spider_connections[label], 50)
        covered = sum(1 for d in self.user_connection_durations if d <= median_supply)
        return covered / len(self.user_connection_durations)

    def disruption_comparable_to_user_gaps(
        self, label: str = CONFIG_MULTI_CH_MULTI_AP
    ) -> bool:
        """Multi-channel Spider's median disruption within the users' gap IQR."""
        med = percentile(self.spider_disruptions[label], 50)
        return percentile(self.user_gaps, 25) <= med <= percentile(self.user_gaps, 90)

    def render(self) -> str:
        """Render the result as printable text."""
        lines = ["-- Fig 16: connection durations --"]
        lines.append(
            format_cdf("users' TCP flows", self.user_connection_durations, CONNECTION_POINTS_S)
        )
        for label, values in self.spider_connections.items():
            lines.append(format_cdf(f"Spider {label}", values, CONNECTION_POINTS_S))
        lines.append("-- Fig 17: gaps / disruptions --")
        lines.append(format_cdf("users' inter-connection", self.user_gaps, GAP_POINTS_S))
        for label, values in self.spider_disruptions.items():
            lines.append(format_cdf(f"Spider {label}", values, GAP_POINTS_S))
        lines.append(
            "user flows covered by ch1 multi-AP median connection: "
            f"{100 * self.supply_covers_demand_fraction():.0f}%"
        )
        lines.append(
            "multi-channel disruptions comparable to user gaps: "
            f"{self.disruption_comparable_to_user_gaps()}"
        )
        return "\n".join(lines)


@dataclass(frozen=True)
class UsabilitySpec(ExperimentSpec):
    """Spec for Figures 16-17 (user demand vs Spider supply)."""

    duration_s: float = 900.0
    mesh_seed: int = 0


@register("fig16-17", UsabilitySpec, summary="user demand vs Spider supply CDFs")
def run_spec(spec: UsabilitySpec) -> UsabilityResult:
    suite = run_configuration_suite(
        seeds=spec.seeds,
        duration_s=spec.duration_s,
        include_cambridge=False,
        labels=SUPPLY_LABELS,
        workers=spec.workers,
        transport=spec.transport,
        contention=spec.contention,
    )
    return UsabilityResult.from_suite(suite, spec.mesh_seed)
