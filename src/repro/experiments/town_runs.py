"""The §4.3 vehicular configuration suite, shared across experiments.

One place defines the client factories for the four Spider configurations,
the stock-MadWiFi baseline, and the Cambridge variants; Table 2, Figs.
11-13, Table 4, and Figs. 16-17 all consume the same runs so their numbers
are mutually consistent (as they are in the paper, which derives them from
the same drives).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..core.link_manager import SpiderConfig
from ..core.schedule import OperationMode
from ..core.spider import ORTHOGONAL_CHANNELS, SpiderClient
from ..sim.cc import TransportSpec
from ..sim.contention import ContentionSpec
from ..sim.engine import Simulator
from ..sim.mobility import MobilityModel
from ..sim.stock_client import StockClient
from ..sim.world import World
from .common import (
    AggregatedMetrics,
    ClientFactory,
    TownTrialSpec,
    aggregate_town_trials,
)

__all__ = [
    "CONFIG_CH1_MULTI_AP",
    "CONFIG_CH1_SINGLE_AP",
    "CONFIG_MULTI_CH_MULTI_AP",
    "CONFIG_MULTI_CH_SINGLE_AP",
    "CONFIG_STOCK",
    "CONFIG_CH6_SINGLE_AP_CAMBRIDGE",
    "CONFIG_STOCK_CAMBRIDGE",
    "SpiderFactory",
    "StockFactory",
    "spider_factory",
    "stock_factory",
    "standard_factories",
    "run_configuration_suite",
]

CONFIG_CH1_MULTI_AP = "(1) Channel 1, Multi-AP"
CONFIG_CH1_SINGLE_AP = "(2) Channel 1, Single-AP"
CONFIG_MULTI_CH_MULTI_AP = "(3) Multi-channel, Multi-AP"
CONFIG_MULTI_CH_SINGLE_AP = "(4) Multi-channel, Single-AP"
CONFIG_STOCK = "MadWiFi driver"
CONFIG_CH6_SINGLE_AP_CAMBRIDGE = "(2) Channel 6, single-AP (cambridge)"
CONFIG_STOCK_CAMBRIDGE = "MadWiFi driver (cambridge)"

#: Table 2's multi-channel runs use a static 200 ms-per-channel schedule.
MULTI_CHANNEL_PERIOD_S = 0.6


@dataclass(frozen=True)
class SpiderFactory:
    """A picklable factory carrying a Spider configuration.

    A dataclass callable rather than a closure so trial specs built from it
    can cross process boundaries (see :mod:`repro.runner`).
    """

    mode: OperationMode
    num_interfaces: int
    enable_traffic: bool = True
    lock_channel_when_connected: bool = False

    def __call__(
        self, sim: Simulator, world: World, mobility: MobilityModel
    ) -> SpiderClient:
        config = SpiderConfig.spider_defaults(
            self.mode, num_interfaces=self.num_interfaces
        )
        return SpiderClient(
            sim,
            world,
            mobility,
            config,
            client_id="veh",
            enable_traffic=self.enable_traffic,
            lock_channel_when_connected=self.lock_channel_when_connected,
        )


@dataclass(frozen=True)
class StockFactory:
    """A picklable factory building the stock-client baseline."""

    def __call__(
        self, sim: Simulator, world: World, mobility: MobilityModel
    ) -> StockClient:
        return StockClient(sim, world, mobility, client_id="veh")


def spider_factory(
    mode: OperationMode,
    num_interfaces: int,
    enable_traffic: bool = True,
    lock_channel_when_connected: bool = False,
) -> ClientFactory:
    """A factory for a Spider configuration (picklable)."""
    return SpiderFactory(
        mode=mode,
        num_interfaces=num_interfaces,
        enable_traffic=enable_traffic,
        lock_channel_when_connected=lock_channel_when_connected,
    )


def stock_factory() -> ClientFactory:
    """A factory building the stock-client baseline (picklable)."""
    return StockFactory()


def standard_factories() -> Dict[str, ClientFactory]:
    """The Table 2 configuration set (town runs)."""
    multi_mode = OperationMode.equal_split(
        ORTHOGONAL_CHANNELS, MULTI_CHANNEL_PERIOD_S
    )
    return {
        CONFIG_CH1_MULTI_AP: spider_factory(OperationMode.single_channel(1), 7),
        CONFIG_CH1_SINGLE_AP: spider_factory(OperationMode.single_channel(1), 1),
        CONFIG_MULTI_CH_MULTI_AP: spider_factory(multi_mode, 7),
        CONFIG_MULTI_CH_SINGLE_AP: spider_factory(
            multi_mode, 1, lock_channel_when_connected=True
        ),
        CONFIG_STOCK: stock_factory(),
    }


def cambridge_factories() -> Dict[str, ClientFactory]:
    """The external-validation runs (channel 6 is best in Cambridge)."""
    return {
        CONFIG_CH6_SINGLE_AP_CAMBRIDGE: spider_factory(
            OperationMode.single_channel(6), 1
        ),
        CONFIG_STOCK_CAMBRIDGE: stock_factory(),
    }


@dataclass
class ConfigurationSuite:
    """All aggregated runs, keyed by configuration label."""

    results: Dict[str, AggregatedMetrics]
    duration_s: float
    seeds: Sequence[int]

    def __getitem__(self, label: str) -> AggregatedMetrics:
        return self.results[label]

    def labels(self) -> List[str]:
        """Configuration labels present in the suite."""
        return list(self.results)


def run_configuration_suite(
    seeds: Sequence[int] = (0, 1),
    duration_s: float = 300.0,
    include_cambridge: bool = True,
    labels: Optional[Sequence[str]] = None,
    workers: Optional[int] = None,
    telemetry: Optional[bool] = None,
    transport: Optional[TransportSpec] = None,
    contention: Optional[ContentionSpec] = None,
) -> ConfigurationSuite:
    """Run the whole configuration grid (the expensive shared step).

    The full ``configuration x seed`` grid is flattened into one batch so
    the worker pool balances across all of it; results are regrouped per
    label in seed order, making the parallel suite bit-identical to the
    serial one.  ``telemetry=True`` captures a :mod:`repro.obs` snapshot
    per trial (riding the returned metrics, never perturbing them).
    """
    factories: Dict[str, tuple] = {
        label: (factory, "amherst")
        for label, factory in standard_factories().items()
    }
    if include_cambridge:
        factories.update(
            {
                label: (factory, "cambridge")
                for label, factory in cambridge_factories().items()
            }
        )
    if labels is not None:
        factories = {k: v for k, v in factories.items() if k in set(labels)}
    specs = [
        TownTrialSpec(
            factory=factory,
            label=label,
            seed=seed,
            duration_s=duration_s,
            town=town,
        )
        for label, (factory, town) in factories.items()
        for seed in seeds
    ]
    results = aggregate_town_trials(
        specs,
        workers=workers,
        telemetry=telemetry,
        transport=transport,
        contention=contention,
    )
    return ConfigurationSuite(results=results, duration_s=duration_s, seeds=seeds)
