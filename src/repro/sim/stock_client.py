"""Baseline client: a stock (MadWiFi-style) single-AP Wi-Fi stack.

The comparison point of §4: one interface, sequential scan across channels,
best-RSSI AP selection, default link-layer and DHCP timers (1 s per message,
3 s DHCP attempt budget, 60 s idle after a DHCP failure), no PSM tricks, no
lease caching.  On losing the AP it rescans from scratch — the behaviour
whose join latency dominates at vehicular speeds.
"""

from __future__ import annotations

import logging
from typing import Dict, Optional, Sequence

from . import dhcp as dhcp_mod
from . import mac as mac_mod
from .engine import Simulator
from .frames import FrameKind
from .engine import PeriodicProcess
from .metrics import JoinAttempt, JoinLog, ThroughputRecorder
from .mobility import MobilityModel
from .nic import ScanEntry, VirtualInterface, WifiNic
from .traffic import ClientFlow
from .world import World

__all__ = ["StockClient"]

logger = logging.getLogger(__name__)

#: Channels a full stock scan sweeps (2.4 GHz band).
FULL_SCAN_CHANNELS = tuple(range(1, 12))
#: Per-channel dwell while scanning, seconds.
SCAN_DWELL_S = 0.12
#: Pause before restarting a fruitless scan.
SCAN_RETRY_IDLE_S = 0.5
#: A stock stack declares link loss only after this long without a beacon
#: from its AP — it runs no active liveness probing (unlike Spider's 10 Hz
#: ping rule), which is one reason it wastes the tail of every encounter.
BEACON_LOSS_TIMEOUT_S = 4.0


class StockClient:
    """Off-the-shelf Wi-Fi behaviour on the shared substrate."""

    def __init__(
        self,
        sim: Simulator,
        world: World,
        mobility: MobilityModel,
        client_id: str = "stock",
        scan_channels: Sequence[int] = FULL_SCAN_CHANNELS,
        ll_timeout_s: float = mac_mod.DEFAULT_LL_TIMEOUT_S,
        dhcp_timeout_s: float = dhcp_mod.DEFAULT_DHCP_TIMEOUT_S,
        dhcp_budget_s: float = dhcp_mod.DEFAULT_ATTEMPT_BUDGET_S,
        dhcp_idle_after_failure_s: float = dhcp_mod.DEFAULT_IDLE_AFTER_FAILURE_S,
        beacon_loss_timeout_s: float = BEACON_LOSS_TIMEOUT_S,
        enable_traffic: bool = True,
    ):
        self.sim = sim
        self.world = world
        self.scan_channels = list(scan_channels)
        self.ll_timeout_s = ll_timeout_s
        self.dhcp_timeout_s = dhcp_timeout_s
        self.dhcp_budget_s = dhcp_budget_s
        self.dhcp_idle_after_failure_s = dhcp_idle_after_failure_s
        self.beacon_loss_timeout_s = beacon_loss_timeout_s
        self.enable_traffic = enable_traffic
        self.nic = WifiNic(
            sim, world.medium, mobility, nic_id=client_id,
            initial_channel=self.scan_channels[0],
        )
        self.iface: VirtualInterface = self.nic.add_interface()
        self.recorder = ThroughputRecorder(sim)
        self.join_log = JoinLog()
        self.state = "idle"
        self.links_established = 0
        self._blacklist: Dict[str, float] = {}
        self._scan_index = 0
        self._flow: Optional[ClientFlow] = None
        self._beacon_watch: Optional[PeriodicProcess] = None
        self._attempt: Optional[JoinAttempt] = None
        self._stopped = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the component."""
        self._begin_scan()

    def stop(self) -> None:
        """Stop the component and release its resources."""
        self._stopped = True
        self._teardown_connection(notify=False)

    def average_throughput_kBps(self, duration_s: Optional[float] = None) -> float:
        """Mean delivered throughput in kilobytes/second."""
        return self.recorder.average_throughput_bps(duration_s) / 1e3

    def connectivity_percent(self, duration_s: Optional[float] = None) -> float:
        """Percentage of time bins with non-zero delivery."""
        return 100.0 * self.recorder.connectivity_fraction(duration_s)

    # ------------------------------------------------------------------
    # Scanning
    # ------------------------------------------------------------------
    def _begin_scan(self) -> None:
        if self._stopped:
            return
        self.state = "scanning"
        self._scan_index = 0
        self._scan_step()

    def _scan_step(self) -> None:
        if self._stopped or self.state != "scanning":
            return
        if self._scan_index >= len(self.scan_channels):
            self._evaluate_scan()
            return
        channel = self.scan_channels[self._scan_index]
        self._scan_index += 1
        self.nic.tune(channel, self._dwell_on_scan_channel)

    def _dwell_on_scan_channel(self) -> None:
        self.nic.send_probe_request()
        self.sim.schedule(SCAN_DWELL_S, self._scan_step)

    def _evaluate_scan(self) -> None:
        if self._stopped:
            return
        now = self.sim.now
        stale = [b for b, until in self._blacklist.items() if until <= now]
        for bssid in stale:
            del self._blacklist[bssid]
        candidates = [
            e
            for e in self.nic.scan_table.fresh_entries(now)
            if e.bssid not in self._blacklist
        ]
        if not candidates:
            self.sim.schedule(SCAN_RETRY_IDLE_S, self._begin_scan)
            return
        self._join(candidates[0])  # fresh_entries sorts by RSSI already

    # ------------------------------------------------------------------
    # Joining
    # ------------------------------------------------------------------
    def _join(self, entry: ScanEntry) -> None:
        self.state = "joining"
        self._attempt = self.join_log.new_attempt(entry.bssid, entry.channel, self.sim.now)
        self.nic.tune(entry.channel, lambda: self._associate(entry))

    def _associate(self, entry: ScanEntry) -> None:
        if self._stopped:
            return
        associator = mac_mod.Associator(
            self.sim,
            self.iface,
            bssid=entry.bssid,
            channel=entry.channel,
            timeout_s=self.ll_timeout_s,
            on_success=lambda elapsed: self._on_associated(entry, elapsed),
            on_failure=lambda reason: self._on_join_failed(entry, f"assoc: {reason}", 3.0),
        )
        associator.start()

    def _on_associated(self, entry: ScanEntry, elapsed: float) -> None:
        if self._stopped or self._attempt is None:
            return
        self._attempt.associated = True
        self._attempt.association_time_s = elapsed
        self.iface.link_associated = True
        client = dhcp_mod.DhcpClient(
            self.sim,
            self.iface,
            server_bssid=entry.bssid,
            timeout_s=self.dhcp_timeout_s,
            attempt_budget_s=self.dhcp_budget_s,
            on_success=lambda ip, gw, dt, cached: self._on_leased(entry, dt),
            on_failure=lambda reason: self._on_dhcp_failed(entry, reason),
            on_nak=self._on_nak,
        )
        client.start()

    def _on_nak(self) -> None:
        if self._attempt is not None:
            self._attempt.nak_received = True

    def _on_dhcp_failed(self, entry: ScanEntry, reason: str) -> None:
        """Default dhclient semantics: the *client* idles after a failure.

        The paper (§2.2.1): "the client attempts to acquire a lease for 3
        seconds, and it is idle for 60 seconds if it fails."  At vehicular
        speed that idle period is most of the damage stock Wi-Fi suffers.
        """
        if self._stopped:
            return
        if self._attempt is not None:
            self._attempt.failure_reason = f"dhcp: {reason}"
        self._blacklist[entry.bssid] = self.sim.now + self.dhcp_idle_after_failure_s
        self.iface.reset_binding()
        self.state = "idle"
        self.sim.schedule(self.dhcp_idle_after_failure_s, self._begin_scan)

    def _on_leased(self, entry: ScanEntry, dhcp_time: float) -> None:
        if self._stopped or self._attempt is None:
            return
        self._attempt.leased = True
        self._attempt.dhcp_time_s = dhcp_time
        self._attempt.join_time_s = self.sim.now - self._attempt.started_at
        self._attempt.verified = True  # stock stacks go straight to traffic
        self.state = "connected"
        self.links_established += 1
        self._beacon_watch = PeriodicProcess(self.sim, 0.5, self._check_beacons)
        if self.enable_traffic:
            self._flow = ClientFlow(
                self.sim,
                self.world,
                self.iface,
                on_bytes=self.recorder.record,
            )

    def _on_join_failed(self, entry: ScanEntry, reason: str, blacklist_s: float) -> None:
        if self._stopped:
            return
        if self._attempt is not None:
            self._attempt.failure_reason = reason
        self._blacklist[entry.bssid] = self.sim.now + blacklist_s
        self.iface.reset_binding()
        self._begin_scan()

    # ------------------------------------------------------------------
    # Connection loss
    # ------------------------------------------------------------------
    def _check_beacons(self) -> None:
        """Passive loss detection: no beacons for a while means the AP is gone."""
        if self._stopped or self.state != "connected" or self.iface.bssid is None:
            return
        entry = self.nic.scan_table.get(self.iface.bssid)
        last_seen = entry.last_seen if entry is not None else -1e9
        if self.sim.now - last_seen >= self.beacon_loss_timeout_s:
            self._on_dead()

    def _on_dead(self) -> None:
        if self._stopped:
            return
        bssid = self.iface.bssid
        if bssid is not None:
            self._blacklist[bssid] = self.sim.now + 2.0
        self._teardown_connection(notify=False)
        self._begin_scan()

    def _teardown_connection(self, notify: bool) -> None:
        if self._beacon_watch is not None:
            self._beacon_watch.stop()
            self._beacon_watch = None
        if self._flow is not None:
            self._flow.close()
            self._flow = None
        if self.iface.bssid is not None and self.iface.link_associated:
            try:
                self.iface.send_mgmt(FrameKind.DISASSOC, self.iface.bssid)
            except RuntimeError:
                pass  # channel binding already cleared
        self.iface.reset_binding()
