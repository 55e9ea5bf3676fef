"""Figure 6: DHCP lease acquisition vs channel schedule and timeout.

Paper protocol: same vehicular runs as Fig. 5; curves for
(f6 = 25 %, 100 ms timeout), (50 %, 100 ms), (100 %, 100 ms), and
(100 %, default timers).  The default configuration attempts for 3 s and
idles 60 s on failure; the reduced configuration retries at 100 ms.  The
CDF is the fraction of attempts that reached the DHCP stage holding a
lease by time t.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Sequence, Tuple

from ..analysis.stats import cdf_at, percentile
from ..core.link_manager import SpiderConfig
from ..core.spider import SpiderClient
from .api import ExperimentSpec, register
from .common import run_town_trials
from .fig5_association import schedule_for_fraction

__all__ = [
    "Fig6Config",
    "Fig6Spec",
    "Fig6Curve",
    "Fig6Result",
    "run_spec",
]

CDF_POINTS_S = (0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 12.0, 15.0)


@dataclass(frozen=True)
class Fig6Config:
    """One curve's configuration."""

    label: str
    fraction: float
    dhcp_timeout_s: float
    default_timers: bool = False


PAPER_CONFIGS: Tuple[Fig6Config, ...] = (
    Fig6Config("25% - 100ms", 0.25, 0.1),
    Fig6Config("50% - 100ms", 0.50, 0.1),
    Fig6Config("100% - 100ms", 1.00, 0.1),
    Fig6Config("100% - default", 1.00, 1.0, default_timers=True),
)


@dataclass
class Fig6Curve:
    """DHCP outcomes for one timeout configuration."""
    config: Fig6Config
    dhcp_times_s: List[float]
    dhcp_attempts: int

    def cdf_over_attempts(self, points_s: Sequence[float]) -> List[float]:
        """CDF over all attempts (failures count as never)."""
        if self.dhcp_attempts == 0:
            return [0.0 for _ in points_s]
        scale = len(self.dhcp_times_s) / self.dhcp_attempts
        return [scale * v for v in cdf_at(self.dhcp_times_s, points_s)]

    def median_success_time_s(self) -> float:
        """Median successful lease-acquisition time."""
        return percentile(self.dhcp_times_s, 50)


@dataclass
class Fig6Result:
    """All Fig. 6 curves, keyed by label."""
    curves: Dict[str, Fig6Curve]

    def render(self) -> str:
        """Render the result as printable text."""
        lines = []
        for label, curve in self.curves.items():
            values = curve.cdf_over_attempts(CDF_POINTS_S)
            pairs = "  ".join(
                f"P(<={p:g}s)={v:.2f}" for p, v in zip(CDF_POINTS_S, values)
            )
            lines.append(
                f"Fig6 {label} (dhcp attempts={curve.dhcp_attempts}, "
                f"median={curve.median_success_time_s():.2f}s): {pairs}"
            )
        return "\n".join(lines)


def _factory(config: Fig6Config):
    def make(sim, world, mobility):
        mode = schedule_for_fraction(config.fraction)
        if config.default_timers:
            spider = SpiderConfig.stock_timers(mode, num_interfaces=7)
        else:
            spider = replace(
                SpiderConfig.spider_defaults(mode, num_interfaces=7),
                dhcp_timeout_s=config.dhcp_timeout_s,
                use_lease_cache=False,  # isolate raw acquisition latency
            )
        return SpiderClient(
            sim, world, mobility, spider, client_id="fig6", enable_traffic=False
        )

    return make


@dataclass(frozen=True)
class Fig6Spec(ExperimentSpec):
    """Spec for Figure 6 (DHCP lease acquisition CDFs)."""

    duration_s: float = 240.0
    configs: Tuple[Fig6Config, ...] = PAPER_CONFIGS


@register("fig6", Fig6Spec, summary="DHCP lease acquisition vs schedule/timeout")
def run_spec(spec: Fig6Spec) -> Fig6Result:
    curves: Dict[str, Fig6Curve] = {}
    for config in spec.configs:
        aggregated = run_town_trials(
            _factory(config),
            label=config.label,
            seeds=spec.seeds,
            duration_s=spec.duration_s,
            town=spec.town,
            workers=spec.workers,
            stack=spec.stack,
        )
        times: List[float] = []
        attempts = 0
        for trial in aggregated.trials:
            for a in trial.join_log.attempts:
                if not a.dhcp_attempted:
                    continue
                attempts += 1
                if a.dhcp_time_s is not None:
                    times.append(a.dhcp_time_s)
        curves[config.label] = Fig6Curve(
            config=config, dhcp_times_s=times, dhcp_attempts=attempts
        )
    return Fig6Result(curves=curves)
