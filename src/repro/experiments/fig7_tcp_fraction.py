"""Figure 7: TCP throughput vs fraction of time on the primary channel.

Paper protocol (indoor): one AP on the primary channel, schedule period
D = 400 ms (~two RTTs), the remaining time split across two empty
orthogonal channels.  Throughput rises monotonically with the primary-
channel fraction: the off-channel gap ``(1-x)·D`` delays ACKs and, past
the RTO floor, costs retransmission timeouts and slow-start restarts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..analysis.ascii_plot import sparkline
from ..analysis.reporting import format_series
from ..core.link_manager import SpiderConfig
from ..core.schedule import OperationMode
from ..core.spider import SpiderClient
from ..sim.engine import Simulator
from ..workloads.town import lab_topology
from .api import ExperimentSpec, register
from .fig5_association import schedule_for_fraction

__all__ = ["Fig7Spec", "Fig7Result", "run_spec", "measure_lab_throughput"]

PERIOD_S = 0.4
PRIMARY_CHANNEL = 6
WARMUP_S = 15.0
MEASURE_S = 60.0
#: One-way wired latency for the indoor TCP experiments.  The paper notes
#: D = 400 ms is "less than two RTTs", i.e. the path RTT is ~200 ms; with
#: that RTT the Fig. 7 sweep stays timeout-free (linear in the fraction)
#: while Fig. 8's longer schedules do exceed the RTO.
LAB_WIRED_LATENCY_S = 0.09


def measure_lab_throughput(
    mode: OperationMode,
    backhaul_bps: float = 5.0e6,
    seed: int = 0,
    warmup_s: float = WARMUP_S,
    measure_s: float = MEASURE_S,
    primary_channel: int = PRIMARY_CHANNEL,
    loss_rate: float = 0.02,
    num_aps: int = 1,
    wired_latency_s: float = LAB_WIRED_LATENCY_S,
    transport=None,
    contention=None,
) -> float:
    """Average TCP throughput (bits/s) of a static Spider client.

    Builds the indoor topology, joins ``num_aps`` APs on the primary
    channel, and measures delivery after ``warmup_s``.
    """
    sim = Simulator(seed=seed)
    world, _, mobility = lab_topology(
        sim,
        [(primary_channel, backhaul_bps)] * num_aps,
        loss_rate=loss_rate,
        dhcp_delay_s=0.2,
        wired_latency_s=wired_latency_s,
        transport=transport,
        contention=contention,
    )
    # The paper's indoor protocol measures an *established* connection under
    # the varied schedule: join on the primary channel first, then apply the
    # mode under test before the measurement window opens.
    join_mode = OperationMode.single_channel(primary_channel)
    config = SpiderConfig.spider_defaults(join_mode, num_interfaces=num_aps)
    client = SpiderClient(sim, world, mobility, config, client_id="lab")
    client.start()
    join_deadline = sim.now + warmup_s
    while client.lmm.established_count < num_aps and sim.now < join_deadline:
        sim.run(until=sim.now + 0.5)
    if client.lmm.established_count < num_aps:
        raise RuntimeError(
            f"lab join incomplete: {client.lmm.established_count}/{num_aps} links"
        )
    client.set_mode(mode)
    start = sim.now + warmup_s
    sim.run(until=start + measure_s)
    return 8.0 * client.recorder.average_throughput_between_bps(start, start + measure_s)


@dataclass
class Fig7Result:
    """Throughput per primary-channel fraction."""
    fractions: List[float]
    throughput_kbps: List[float]

    def render(self) -> str:
        """Render the result as printable text."""
        series = format_series(
            "Fig7 TCP throughput",
            [100 * f for f in self.fractions],
            self.throughput_kbps,
            "% time on primary",
            "Kb/s",
        )
        return f"{series}\nshape: {sparkline(self.throughput_kbps)}"


@dataclass(frozen=True)
class Fig7Spec(ExperimentSpec):
    """Spec for Figure 7 (indoor lab; uses ``seeds[0]``, ignores ``town``)."""

    fractions: Tuple[float, ...] = (0.1, 0.25, 0.4, 0.5, 0.65, 0.8, 1.0)
    backhaul_bps: float = 5.0e6
    measure_s: float = MEASURE_S


@register("fig7", Fig7Spec, summary="TCP throughput vs primary-channel fraction")
def run_spec(spec: Fig7Spec) -> Fig7Result:
    throughputs = []
    for fraction in spec.fractions:
        mode = schedule_for_fraction(fraction, period_s=PERIOD_S)
        bps = measure_lab_throughput(
            mode,
            backhaul_bps=spec.backhaul_bps,
            seed=spec.seed,
            measure_s=spec.measure_s,
            transport=spec.transport,
            contention=spec.contention,
        )
        throughputs.append(bps / 1e3)
    return Fig7Result(fractions=list(spec.fractions), throughput_kbps=throughputs)
