"""Table 1: channel-switching latency vs number of associated interfaces.

Paper protocol: measure the full switch operation — PSM frame to each AP
associated on the old channel, hardware reset, PS-poll to each AP on the
new channel — with 0-4 associated interfaces.  The latency is ~4.9 ms of
hardware reset plus roughly one management-frame airtime per interface.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import List, Tuple

from ..analysis.reporting import format_table
from ..core.link_manager import SpiderConfig
from ..core.schedule import OperationMode
from ..core.spider import SpiderClient
from ..sim.engine import Simulator
from ..sim.world import StackSpec
from ..workloads.town import lab_topology
from .api import ExperimentSpec, register

__all__ = [
    "Table1Spec",
    "Table1Row",
    "Table1Result",
    "run_spec",
    "measure_switch_latencies",
]

HOME_CHANNEL = 1
AWAY_CHANNEL = 11


def measure_switch_latencies(
    num_interfaces: int,
    switches: int = 40,
    seed: int = 0,
    stack: StackSpec = StackSpec(),
) -> List[float]:
    """Join ``num_interfaces`` APs on one channel, then toggle channels.

    Returns per-switch latencies (both directions pooled: departures pay
    the PSM frames, arrivals pay the PS-polls, exactly as in the driver).
    """
    sim = Simulator(seed=seed)
    specs = [(HOME_CHANNEL, 2.0e6)] * max(num_interfaces, 1)
    world, _, mobility = lab_topology(
        sim, specs, loss_rate=0.0, dhcp_delay_s=0.1, stack=stack
    )
    config = SpiderConfig.spider_defaults(
        OperationMode.single_channel(HOME_CHANNEL),
        num_interfaces=max(num_interfaces, 1),
    )
    client = SpiderClient(
        sim, world, mobility, config, client_id="t1", enable_traffic=False
    )
    client.start()
    deadline = 20.0
    while client.lmm.established_count < num_interfaces and sim.now < deadline:
        sim.run(until=sim.now + 0.5)
    if client.lmm.established_count < num_interfaces:
        raise RuntimeError(
            f"only {client.lmm.established_count}/{num_interfaces} links joined"
        )
    driver = client.driver
    driver.stop()
    client.lmm.stop()  # freeze policy so joins don't interfere with timing
    current, other = HOME_CHANNEL, AWAY_CHANNEL
    for _ in range(switches):
        driver.switch_once(other)
        sim.run(until=sim.now + 0.05)
        current, other = other, current
    return list(driver.switch_latencies_s)


@dataclass
class Table1Row:
    """One interface count's switch-latency statistics."""
    num_interfaces: int
    mean_ms: float
    std_ms: float


@dataclass
class Table1Result:
    """All Table 1 rows."""
    rows: List[Table1Row]

    def render(self) -> str:
        """Render the result as printable text."""
        return format_table(
            ["interfaces", "mean (ms)", "std (ms)"],
            [(r.num_interfaces, f"{r.mean_ms:.3f}", f"{r.std_ms:.3f}") for r in self.rows],
            title="Table 1: channel switching latency of the Spider driver",
        )

    def latency_is_increasing(self) -> bool:
        """Whether mean latency is non-decreasing in interfaces."""
        means = [r.mean_ms for r in self.rows]
        return all(b >= a - 1e-9 for a, b in zip(means, means[1:]))


@dataclass(frozen=True)
class Table1Spec(ExperimentSpec):
    """Spec for Table 1 (lab latency; uses ``seeds[0]``, ignores ``town``)."""

    interface_counts: Tuple[int, ...] = (0, 1, 2, 3, 4)
    switches: int = 40


@register("table1", Table1Spec, summary="channel-switch latency vs interfaces")
def run_spec(spec: Table1Spec) -> Table1Result:
    rows = []
    for count in spec.interface_counts:
        latencies = measure_switch_latencies(
            count,
            switches=spec.switches,
            seed=spec.seed,
            stack=spec.stack,
        )
        mean_ms = 1e3 * statistics.mean(latencies)
        std_ms = 1e3 * (statistics.stdev(latencies) if len(latencies) > 1 else 0.0)
        rows.append(Table1Row(num_interfaces=count, mean_ms=mean_ms, std_ms=std_ms))
    return Table1Result(rows=rows)
