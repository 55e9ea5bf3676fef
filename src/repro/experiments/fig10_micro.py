"""Figure 10: aggregate-throughput micro-benchmark vs backhaul bandwidth.

Paper protocol (lab, static client, two APs, traffic-shaped backhauls):

* **one card, stock** — a single stock client on one AP,
* **two cards, stock** — two independent cards, one per AP,
* **Spider (100,0,0)** — both APs on channel 1, Spider never switching,
* **Spider (50,0,50)** — APs on channels 1 and 11, 50 ms dwell each,
* **Spider (100,0,100)** — same, 100 ms dwell each.

Reproduction targets: single-channel Spider tracks the two-card host
(≈2x one card); multi-channel Spider trades throughput for the switching
overhead, with the faster schedule winning at high backhaul bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..analysis.reporting import format_table
from ..core.link_manager import SpiderConfig
from ..core.schedule import OperationMode
from ..core.spider import SpiderClient
from ..sim.engine import Simulator
from ..sim.stock_client import StockClient
from ..sim.world import StackSpec
from ..workloads.town import lab_topology
from .api import ExperimentSpec, register
from .fig7_tcp_fraction import LAB_WIRED_LATENCY_S

__all__ = ["Fig10Spec", "Fig10Result", "run_spec"]

CH_A, CH_B = 1, 11
WARMUP_S = 12.0
MEASURE_S = 45.0

CONFIG_LABELS = (
    "one card, stock",
    "two cards, stock",
    "Spider (100,0,0)",
    "Spider (50,0,50)",
    "Spider (100,0,100)",
)


def _measure(
    backhaul_bps: float,
    label: str,
    seed: int,
    measure_s: float,
    stack: StackSpec = StackSpec(),
) -> float:
    """Mean aggregate throughput (bytes/s) for one configuration."""
    sim = Simulator(seed=seed)
    same_channel = label in ("one card, stock", "Spider (100,0,0)")
    channels = (CH_A, CH_A) if same_channel else (CH_A, CH_B)
    # The paper's lab cards are 802.11abg; the g-rate keeps the wireless
    # hop from capping the 2x-backhaul aggregate this figure demonstrates.
    world, _, mobility = lab_topology(
        sim,
        [(channels[0], backhaul_bps), (channels[1], backhaul_bps)],
        loss_rate=0.02,
        dhcp_delay_s=0.2,
        wired_latency_s=LAB_WIRED_LATENCY_S,
        data_rate_bps=24e6,
        stack=stack,
    )
    recorders = []
    clients: List[object] = []
    if label == "one card, stock":
        client = StockClient(sim, world, mobility, client_id="c0", scan_channels=(CH_A,))
        clients.append(client)
        recorders.append(client.recorder)
    elif label == "two cards, stock":
        for index, channel in enumerate((CH_A, CH_B)):
            client = StockClient(
                sim, world, mobility, client_id=f"c{index}", scan_channels=(channel,)
            )
            clients.append(client)
            recorders.append(client.recorder)
    else:
        if label == "Spider (100,0,0)":
            mode = OperationMode.single_channel(CH_A)
        elif label == "Spider (50,0,50)":
            mode = OperationMode.equal_split((CH_A, CH_B), period_s=0.1)
        elif label == "Spider (100,0,100)":
            mode = OperationMode.equal_split((CH_A, CH_B), period_s=0.2)
        else:
            raise ValueError(f"unknown config {label!r}")
        config = SpiderConfig.spider_defaults(mode, num_interfaces=2)
        client = SpiderClient(sim, world, mobility, config, client_id="spider")
        clients.append(client)
        recorders.append(client.recorder)
    for client in clients:
        client.start()  # type: ignore[attr-defined]
    sim.run(until=WARMUP_S + measure_s)
    return sum(
        r.average_throughput_between_bps(WARMUP_S, WARMUP_S + measure_s)
        for r in recorders
    )


@dataclass
class Fig10Result:
    """Throughput series per configuration and backhaul."""
    backhauls_mbps: List[float]
    throughput_kBps: Dict[str, List[float]]  # config label -> series

    def render(self) -> str:
        """Render the result as printable text."""
        rows = []
        for label in self.throughput_kBps:
            rows.append([label] + [f"{v:.0f}" for v in self.throughput_kBps[label]])
        return format_table(
            ["config"] + [f"{b:g}Mbps" for b in self.backhauls_mbps],
            rows,
            title="Fig 10: aggregate throughput (KB/s) vs per-AP backhaul",
        )


@dataclass(frozen=True)
class Fig10Spec(ExperimentSpec):
    """Spec for Figure 10 (indoor micro-benchmark; ignores ``town``)."""

    backhauls_mbps: Tuple[float, ...] = (0.5, 1.0, 2.0, 3.0, 4.0, 5.0)
    labels: Tuple[str, ...] = CONFIG_LABELS
    measure_s: float = MEASURE_S


@register("fig10", Fig10Spec, summary="aggregate throughput vs backhaul (lab)")
def run_spec(spec: Fig10Spec) -> Fig10Result:
    series: Dict[str, List[float]] = {label: [] for label in spec.labels}
    for backhaul in spec.backhauls_mbps:
        for label in spec.labels:
            values = [
                _measure(backhaul * 1e6, label, seed, spec.measure_s, spec.stack)
                for seed in spec.seeds
            ]
            series[label].append(sum(values) / len(values) / 1e3)
    return Fig10Result(backhauls_mbps=list(spec.backhauls_mbps), throughput_kBps=series)
