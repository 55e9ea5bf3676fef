"""FatVAP-style AP-sliced scheduling — the ablation for Design Choice 1.

FatVAP and Juggler slice the card's time across *APs*: while AP ``k`` holds
the card, every other associated AP is told (via PSM) to buffer.  Spider's
criticism (§3.1) is that an AP's queue can then "reserve the driver for a
long time", and that two APs on the *same* channel cannot be served
concurrently.  :class:`ApSlicedDriver` implements the per-AP reservation
discipline on our substrate so the two designs can be compared on identical
topologies (see ``benchmarks/test_bench_ablation_queues.py``).

The driver grants each bound interface an equal time slice.  At each slice
boundary it PSMs every other associated AP (even same-channel ones — the
reservation), retunes if the next AP lives elsewhere, and PS-polls the
scheduled AP.  With no bound interfaces it falls back to cycling the
configured channels so discovery still works.
"""

from __future__ import annotations

import logging
from typing import List, Optional

from ..sim.engine import Event, Simulator
from ..sim.frames import FrameKind
from ..sim.nic import VirtualInterface, WifiNic
from .driver import SpiderDriver
from .schedule import OperationMode

__all__ = ["ApSlicedDriver"]

logger = logging.getLogger(__name__)


class ApSlicedDriver(SpiderDriver):
    """Per-AP time slicing (FatVAP/Juggler discipline) on the Spider NIC."""

    def __init__(
        self,
        sim: Simulator,
        nic: WifiNic,
        mode: OperationMode,
        slice_s: float = 0.1,
        probe_interval_s: Optional[float] = None,
    ):
        super().__init__(sim, nic, mode, probe_interval_s=probe_interval_s)
        self.slice_s = slice_s
        self._ap_cursor = 0
        self._slice_timer: Optional[Event] = None

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the component."""
        if self.running:
            raise RuntimeError("driver already started")
        self.running = True
        self._arm_slice(first=True)

    def stop(self) -> None:
        """Stop the component and release its resources."""
        if self._slice_timer is not None:
            self.sim.cancel(self._slice_timer)
            self._slice_timer = None
        super().stop()

    def _bound_ifaces(self) -> List[VirtualInterface]:
        # Joining interfaces participate in the rotation too: their AP's
        # channel needs airtime or the handshake can never complete.
        return [i for i in self.nic.interfaces if i.bssid is not None and i.channel]

    # ------------------------------------------------------------------
    def _arm_slice(self, first: bool = False) -> None:
        if not self.running:
            return
        delay = 0.0 if first else self.slice_s
        self._slice_timer = self.sim.schedule(delay, self._next_slice)

    def _next_slice(self) -> None:
        self._slice_timer = None
        if not self.running:
            return
        bound = self._bound_ifaces()
        if not bound:
            # Discovery: rotate the configured channels like Spider does.
            channels = self.mode.channels
            self._ap_cursor = (self._ap_cursor + 1) % len(channels)
            target_channel = channels[self._ap_cursor % len(channels)]
            self._retune_then_poll(target_channel, scheduled=None)
            return
        self._ap_cursor = (self._ap_cursor + 1) % len(bound)
        scheduled = bound[self._ap_cursor]
        # The reservation: every *other* associated AP buffers, including
        # those sharing the scheduled AP's channel.
        for iface in bound:
            if iface is not scheduled and iface.link_associated:
                iface.send_mgmt(FrameKind.PSM, iface.bssid)  # type: ignore[arg-type]
        self._retune_then_poll(scheduled.channel, scheduled)

    def _retune_then_poll(self, channel: Optional[int], scheduled: Optional[VirtualInterface]) -> None:
        def after_tune() -> None:
            if (
                scheduled is not None
                and scheduled.link_associated
                and scheduled.bssid is not None
            ):
                scheduled.send_mgmt(FrameKind.PS_POLL, scheduled.bssid)
            self._arm_slice()

        if channel is not None and channel != self.nic.current_channel:
            self.nic.tune(channel, after_tune)
        else:
            after_tune()
