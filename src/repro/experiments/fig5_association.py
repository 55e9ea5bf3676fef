"""Figure 5: link-layer association success vs channel-schedule fraction.

Paper protocol: vehicles drive the town with D = 400 ms, spending a
fraction ``f6 = x`` on channel 6 and ``(1-x)/2`` on channels 1 and 11
(x ∈ {25 %, 50 %, 75 %, 100 %}); link-layer timeouts reduced to 100 ms.
The plotted CDF is the fraction of *all* association attempts on channel 6
that have completed by time t — failed attempts never complete, so curves
for smaller fractions plateau below 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..analysis.stats import cdf_at
from ..core.link_manager import SpiderConfig
from ..core.schedule import OperationMode
from ..core.spider import SpiderClient
from .api import ExperimentSpec, register
from .common import run_town_trials

__all__ = [
    "schedule_for_fraction",
    "Fig5Spec",
    "Fig5Curve",
    "Fig5Result",
    "run_spec",
]

PRIMARY_CHANNEL = 6
SIDE_CHANNELS = (1, 11)
PERIOD_S = 0.4
CDF_POINTS_S = (0.1, 0.2, 0.3, 0.4, 0.6, 0.8, 1.0)


def schedule_for_fraction(fraction: float, period_s: float = PERIOD_S) -> OperationMode:
    """The paper's f6 = x, f1 = f11 = (1-x)/2 schedule."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1]: {fraction!r}")
    if fraction >= 1.0:
        return OperationMode.single_channel(PRIMARY_CHANNEL, period_s)
    side = (1.0 - fraction) / len(SIDE_CHANNELS)
    fractions = {PRIMARY_CHANNEL: fraction}
    fractions.update({c: side for c in SIDE_CHANNELS})
    return OperationMode(period_s, fractions, name=f"f6={fraction:.0%}")


@dataclass
class Fig5Curve:
    """Association outcomes for one schedule fraction."""
    fraction: float
    association_times_s: List[float]  # successful associations on channel 6
    attempts_on_primary: int

    def cdf_over_attempts(self, points_s: Sequence[float]) -> List[float]:
        """P(attempt associated within t), failures counted as never."""
        if self.attempts_on_primary == 0:
            return [0.0 for _ in points_s]
        success_cdf = cdf_at(self.association_times_s, points_s)
        scale = len(self.association_times_s) / self.attempts_on_primary
        return [scale * v for v in success_cdf]

    def success_within(self, deadline_s: float) -> float:
        """Fraction of attempts associated within the deadline."""
        if self.attempts_on_primary == 0:
            return 0.0
        within = sum(1 for t in self.association_times_s if t <= deadline_s)
        return within / self.attempts_on_primary


@dataclass
class Fig5Result:
    """All Fig. 5 curves, keyed by fraction."""
    curves: Dict[float, Fig5Curve]

    def render(self) -> str:
        """Render the result as printable text."""
        lines = []
        for fraction, curve in sorted(self.curves.items()):
            values = curve.cdf_over_attempts(CDF_POINTS_S)
            pairs = "  ".join(
                f"P(<={p:g}s)={v:.2f}" for p, v in zip(CDF_POINTS_S, values)
            )
            lines.append(
                f"Fig5 f6={fraction:.0%} (attempts={curve.attempts_on_primary}): {pairs}"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class Fig5Factory:
    """Picklable client factory for one schedule fraction.

    A dataclass callable (not a closure) so fig5's trials can cross process
    boundaries and be content-addressed by the result cache, like the
    Table 2 factories.
    """

    fraction: float

    def __call__(self, sim, world, mobility):
        config = SpiderConfig.spider_defaults(
            schedule_for_fraction(self.fraction), num_interfaces=7
        )
        return SpiderClient(
            sim, world, mobility, config, client_id="fig5", enable_traffic=False
        )


def _factory(fraction: float):
    return Fig5Factory(fraction)


@dataclass(frozen=True)
class Fig5Spec(ExperimentSpec):
    """Spec for Figure 5 (association success vs schedule fraction)."""

    duration_s: float = 240.0
    fractions: Tuple[float, ...] = (0.25, 0.50, 0.75, 1.0)


@register("fig5", Fig5Spec, summary="association success vs schedule fraction")
def run_spec(spec: Fig5Spec) -> Fig5Result:
    curves: Dict[float, Fig5Curve] = {}
    for fraction in spec.fractions:
        aggregated = run_town_trials(
            _factory(fraction),
            label=f"f6={fraction:.0%}",
            seeds=spec.seeds,
            duration_s=spec.duration_s,
            town=spec.town,
            workers=spec.workers,
            transport=spec.transport,
            contention=spec.contention,
        )
        times: List[float] = []
        attempts = 0
        for trial in aggregated.trials:
            for a in trial.join_log.attempts:
                if a.channel != PRIMARY_CHANNEL:
                    continue
                attempts += 1
                if a.association_time_s is not None:
                    times.append(a.association_time_s)
        curves[fraction] = Fig5Curve(
            fraction=fraction, association_times_s=times, attempts_on_primary=attempts
        )
    return Fig5Result(curves=curves)
