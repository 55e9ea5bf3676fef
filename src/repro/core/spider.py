"""The Spider client façade: driver + LMM + per-link traffic.

A :class:`SpiderClient` bundles a physical NIC, the channel-scheduling
driver, the link-management module, and the application layer that opens a
bulk download over every verified link, crediting delivered bytes to a
:class:`~repro.sim.metrics.ThroughputRecorder`.

The four §4.1 evaluation configurations are exposed as constructors:

1. ``single_channel_single_ap``   — mimics stock Wi-Fi pinned to a channel,
2. ``single_channel_multi_ap``    — Spider's throughput-optimal mode,
3. ``multi_channel_multi_ap``     — Spider's connectivity-optimal mode,
4. ``multi_channel_single_ap``    — channel switching with one AP at a time.
"""

from __future__ import annotations

import logging
from typing import Dict, Optional

from ..sim.engine import Simulator
from ..sim.metrics import ThroughputRecorder
from ..sim.mobility import MobilityModel
from ..sim.nic import VirtualInterface, WifiNic
from ..sim.traffic import ClientFlow
from ..sim.world import World
from .driver import SpiderDriver
from .link_manager import LinkManager, SpiderConfig
from .schedule import OperationMode

__all__ = ["SpiderClient"]

logger = logging.getLogger(__name__)

#: Default multi-channel static schedule of Table 2 (D=600 ms, equal thirds).
TABLE2_MULTI_CHANNEL_PERIOD_S = 0.6
#: The three channels hosting nearly all APs in both measured towns.
ORTHOGONAL_CHANNELS = (1, 6, 11)


class SpiderClient:
    """One mobile node running Spider."""

    def __init__(
        self,
        sim: Simulator,
        world: World,
        mobility: MobilityModel,
        config: SpiderConfig,
        client_id: str = "spider",
        enable_traffic: bool = True,
        probe_interval_s: Optional[float] = 0.5,
        lock_channel_when_connected: bool = False,
    ):
        self.sim = sim
        self.world = world
        self.config = config
        self.enable_traffic = enable_traffic
        self.nic = WifiNic(
            sim,
            world.medium,
            mobility,
            nic_id=client_id,
            initial_channel=config.mode.channels[0],
        )
        self.driver = SpiderDriver(
            sim, self.nic, config.mode, probe_interval_s=probe_interval_s
        )
        self.recorder = ThroughputRecorder(sim)
        self._flows: Dict[int, ClientFlow] = {}
        self.links_established = 0
        #: Per-client telemetry scope: every instrument/span this client
        #: (and its LMM/DHCP machinery) records is prefixed "<client_id>.",
        #: which is what lets fleet shards extract one vehicle's slice of a
        #: shared capture (TelemetrySnapshot.scoped).
        self.obs = sim.telemetry.scope(client_id)
        self._obs_ttfb = self.obs.histogram("tcp.time_to_first_byte_s")
        #: §4.1 config (4): the multi-channel schedule is used for
        #: *discovery*; once associated the card parks on the AP's channel
        #: ("associated with one AP at a time"), returning to the discovery
        #: schedule when the link dies.
        self.lock_channel_when_connected = lock_channel_when_connected
        self._discovery_mode = config.mode
        self.lmm = LinkManager(
            sim,
            world,
            self.nic,
            config,
            on_link_up=self._on_link_up,
            on_link_down=self._on_link_down,
            telemetry=self.obs,
        )
        self._started = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the component."""
        if self._started:
            raise RuntimeError("client already started")
        self._started = True
        self.driver.start()

    def stop(self) -> None:
        """Stop the component and release its resources."""
        self.lmm.stop()
        self.driver.stop()
        for flow in list(self._flows.values()):
            flow.close()
        self._flows.clear()

    def set_mode(self, mode: OperationMode) -> None:
        """Dynamically change the operation mode (driver + LMM policy)."""
        self.config = self.config.with_mode(mode)
        self.lmm.config = self.config
        self.driver.set_mode(mode)

    # ------------------------------------------------------------------
    def _on_link_up(self, iface: VirtualInterface) -> None:
        self.links_established += 1
        if self.lock_channel_when_connected and iface.channel is not None:
            self.set_mode(OperationMode.single_channel(iface.channel))
        if not self.enable_traffic:
            return
        on_bytes = self.recorder.record
        if self.obs.enabled:
            # Close the paper's join decomposition with its last phase:
            # link-up to first delivered TCP payload byte.  The wrapper
            # exists only on the enabled path, so disabled runs keep the
            # direct recorder.record fast path.
            span = self.obs.begin_span("tcp.setup", ap=iface.bssid)
            obs, ttfb, link_up_at = self.obs, self._obs_ttfb, self.sim.now
            record = on_bytes

            def on_bytes(n, _span=span):
                if not _span.ended:
                    _span.end("ok")
                    elapsed = self.sim.now - link_up_at
                    ttfb.observe(elapsed)
                    obs.event("tcp.first_byte", ap=iface.bssid, elapsed_s=elapsed)
                record(n)

        self._flows[iface.index] = ClientFlow(
            self.sim,
            self.world,
            iface,
            on_bytes=on_bytes,
        )

    def _on_link_down(self, iface: VirtualInterface) -> None:
        flow = self._flows.pop(iface.index, None)
        if flow is not None:
            flow.close()
        if self.lock_channel_when_connected and self.lmm.established_count == 0:
            self.set_mode(self._discovery_mode)

    # ------------------------------------------------------------------
    # Metric shortcuts (§4.3)
    # ------------------------------------------------------------------
    @property
    def join_log(self):
        """The link manager's join-attempt log."""
        return self.lmm.join_log

    def average_throughput_kBps(self, duration_s: Optional[float] = None) -> float:
        """Mean delivered throughput in kilobytes/second."""
        return self.recorder.average_throughput_bps(duration_s) / 1e3

    def connectivity_percent(self, duration_s: Optional[float] = None) -> float:
        """Percentage of time bins with non-zero delivery."""
        return 100.0 * self.recorder.connectivity_fraction(duration_s)

    # ------------------------------------------------------------------
    # The four evaluation configurations
    # ------------------------------------------------------------------
    @classmethod
    def single_channel_single_ap(
        cls, sim: Simulator, world: World, mobility: MobilityModel, channel: int = 1, **kwargs
    ) -> "SpiderClient":
        """Configuration (1)-adjacent: one channel, one interface."""
        config = SpiderConfig.spider_defaults(
            OperationMode.single_channel(channel), num_interfaces=1
        )
        return cls(sim, world, mobility, config, **kwargs)

    @classmethod
    def single_channel_multi_ap(
        cls,
        sim: Simulator,
        world: World,
        mobility: MobilityModel,
        channel: int = 1,
        num_interfaces: int = 7,
        **kwargs,
    ) -> "SpiderClient":
        """Configuration (1): one channel, many interfaces."""
        config = SpiderConfig.spider_defaults(
            OperationMode.single_channel(channel), num_interfaces=num_interfaces
        )
        return cls(sim, world, mobility, config, **kwargs)

    @classmethod
    def multi_channel_multi_ap(
        cls,
        sim: Simulator,
        world: World,
        mobility: MobilityModel,
        channels=ORTHOGONAL_CHANNELS,
        period_s: float = TABLE2_MULTI_CHANNEL_PERIOD_S,
        num_interfaces: int = 7,
        **kwargs,
    ) -> "SpiderClient":
        """Configuration (3): three channels, many interfaces."""
        config = SpiderConfig.spider_defaults(
            OperationMode.equal_split(channels, period_s), num_interfaces=num_interfaces
        )
        return cls(sim, world, mobility, config, **kwargs)

    @classmethod
    def multi_channel_single_ap(
        cls,
        sim: Simulator,
        world: World,
        mobility: MobilityModel,
        channels=ORTHOGONAL_CHANNELS,
        period_s: float = TABLE2_MULTI_CHANNEL_PERIOD_S,
        **kwargs,
    ) -> "SpiderClient":
        """Configuration (4): multi-channel discovery, one AP at a time."""
        config = SpiderConfig.spider_defaults(
            OperationMode.equal_split(channels, period_s), num_interfaces=1
        )
        kwargs.setdefault("lock_channel_when_connected", True)
        return cls(sim, world, mobility, config, **kwargs)
