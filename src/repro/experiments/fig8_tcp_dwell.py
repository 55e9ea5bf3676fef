"""Figure 8: TCP throughput vs absolute per-channel dwell time.

Paper protocol (indoor): time split equally across channels 1, 6, 11
(f = 1/3 each) while the total schedule length varies, so for ``x`` ms on
the AP's channel the card spends ``2x`` ms away.  Unlike Fig. 7, the curve
is **non-monotonic**: tiny dwells drown in switching overhead, while long
dwells push the off-channel gap past the RTO and trigger TCP timeouts plus
slow-start restarts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..analysis.ascii_plot import sparkline
from ..analysis.reporting import format_series
from ..core.schedule import OperationMode
from .api import ExperimentSpec, register
from .fig7_tcp_fraction import PRIMARY_CHANNEL, measure_lab_throughput

__all__ = ["Fig8Spec", "Fig8Result", "run_spec"]

CHANNELS = (1, 6, 11)


@dataclass
class Fig8Result:
    """Throughput per absolute per-channel dwell."""
    dwell_ms: List[float]
    throughput_kbps: List[float]

    def is_non_monotonic(self) -> bool:
        """True when the curve rises then falls (the paper's shape)."""
        peak = max(range(len(self.throughput_kbps)), key=self.throughput_kbps.__getitem__)
        return 0 < peak < len(self.throughput_kbps) - 1

    def render(self) -> str:
        """Render the result as printable text."""
        series = format_series(
            "Fig8 TCP throughput",
            self.dwell_ms,
            self.throughput_kbps,
            "dwell per channel (ms)",
            "Kb/s",
        )
        return (
            f"{series}\nshape: {sparkline(self.throughput_kbps)}\n"
            f"non-monotonic: {self.is_non_monotonic()}"
        )


@dataclass(frozen=True)
class Fig8Spec(ExperimentSpec):
    """Spec for Figure 8 (indoor lab; uses ``seeds[0]``, ignores ``town``)."""

    dwells_ms: Tuple[float, ...] = (
        16.0, 33.0, 66.0, 100.0, 150.0, 200.0, 300.0, 400.0,
    )
    backhaul_bps: float = 5.0e6
    measure_s: float = 60.0


@register("fig8", Fig8Spec, summary="TCP throughput vs per-channel dwell")
def run_spec(spec: Fig8Spec) -> Fig8Result:
    throughputs = []
    for dwell_ms in spec.dwells_ms:
        period_s = 3.0 * dwell_ms / 1e3
        mode = OperationMode.equal_split(CHANNELS, period_s)
        bps = measure_lab_throughput(
            mode,
            backhaul_bps=spec.backhaul_bps,
            seed=spec.seed,
            measure_s=spec.measure_s,
            primary_channel=PRIMARY_CHANNEL,
            transport=spec.transport,
            contention=spec.contention,
        )
        throughputs.append(bps / 1e3)
    return Fig8Result(dwell_ms=list(spec.dwells_ms), throughput_kbps=throughputs)
