"""Spider's virtual Wi-Fi driver: channel-based scheduling with PSM.

The driver owns the physical card and executes the operation mode's cycle.
A channel switch follows §3.2.1 exactly:

1. outgoing packets for the departing channel stay in that channel's queue
   (the NIC buffers per channel — Design Choice 1),
2. a PSM null frame is sent to every AP associated on the departing channel
   so it buffers downlink traffic,
3. the card performs its hardware reset onto the new channel, and
4. a PS-poll goes to every AP associated on the new channel to release the
   buffered frames.

The measured latency of this sequence is Table 1's micro-benchmark:
~4.9 ms of hardware reset plus one management-frame airtime per associated
interface.  The driver also supports opportunistic scanning via periodic
broadcast probe requests.
"""

from __future__ import annotations

import logging
from typing import List, Optional

from ..sim.engine import Event, PeriodicProcess, Simulator
from ..sim.frames import MGMT_FRAME_BYTES, Frame, FrameKind
from ..sim.nic import VirtualInterface, WifiNic
from .schedule import OperationMode

__all__ = ["SpiderDriver"]

logger = logging.getLogger(__name__)

#: Dwells shorter than this cannot absorb the switch sequence.
MIN_DWELL_S = 0.02


class SpiderDriver:
    """Schedules one physical card among channels per an operation mode."""

    def __init__(
        self,
        sim: Simulator,
        nic: WifiNic,
        mode: OperationMode,
        probe_interval_s: Optional[float] = None,
    ):
        self.sim = sim
        self.nic = nic
        self.mode = mode
        self.running = False
        self._cycle_position = 0
        self._switch_timer: Optional[Event] = None
        self._switching = False
        #: Measured durations of completed switch operations (Table 1).
        self.switch_latencies_s: List[float] = []
        #: Multiplicative dwell jitter (±fraction), modelling kernel-timer
        #: slop; also prevents pathological phase-locking between the
        #: schedule and TCP's RTO grid, which real systems never exhibit.
        self.dwell_jitter = 0.02
        self._jitter_rng = sim.rng(f"driver.jitter.{nic.station_id}")
        self._prober: Optional[PeriodicProcess] = None
        if probe_interval_s is not None:
            self._prober = PeriodicProcess(
                sim, probe_interval_s, nic.send_probe_request
            )

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Tune to the mode's first channel and begin cycling."""
        if self.running:
            raise RuntimeError("driver already started")
        self.running = True
        first_channel = self.mode.channels[0]
        self._cycle_position = 0
        if self.nic.current_channel != first_channel:
            self.nic.tune(first_channel, self._arm_dwell)
        else:
            self._arm_dwell()

    def stop(self) -> None:
        """Stop the component and release its resources."""
        self.running = False
        if self._switch_timer is not None:
            self.sim.cancel(self._switch_timer)
            self._switch_timer = None
        if self._prober is not None:
            self._prober.stop()

    def set_mode(self, mode: OperationMode) -> None:
        """Dynamically replace the schedule (the LMM's proc-interface knob)."""
        self.mode = mode
        self._cycle_position = 0
        if self.running and not self._switching:
            if self._switch_timer is not None:
                self.sim.cancel(self._switch_timer)
                self._switch_timer = None
            if self.nic.current_channel != mode.channels[0]:
                self._begin_switch(mode.channels[0])
            else:
                self._arm_dwell()

    # ------------------------------------------------------------------
    def _arm_dwell(self) -> None:
        if not self.running:
            return
        if self.mode.is_single_channel:
            return  # nothing to do until the mode changes
        channel = self.mode.channels[self._cycle_position]
        dwell = max(self.mode.dwell_s(channel), MIN_DWELL_S)
        if self.dwell_jitter > 0:
            dwell *= 1.0 + self._jitter_rng.uniform(-self.dwell_jitter, self.dwell_jitter)
        self._switch_timer = self.sim.schedule(dwell, self._on_dwell_end)

    def _on_dwell_end(self) -> None:
        self._switch_timer = None
        if not self.running:
            return
        self._cycle_position = (self._cycle_position + 1) % len(self.mode.channels)
        self._begin_switch(self.mode.channels[self._cycle_position])

    # ------------------------------------------------------------------
    # The switch sequence
    # ------------------------------------------------------------------
    def associated_ifaces_on(self, channel: int) -> List[VirtualInterface]:
        """Link-layer-associated interfaces on the channel."""
        return [
            iface
            for iface in self.nic.interfaces
            if iface.link_associated and iface.channel == channel
        ]

    def _mgmt_airtime(self) -> float:
        probe = Frame(
            kind=FrameKind.PSM, src="x", dst="y", size=MGMT_FRAME_BYTES, channel=0
        )
        return self.nic.medium.airtime(probe)

    def _begin_switch(self, new_channel: int) -> None:
        self._switching = True
        started_at = self.sim.now
        old_channel = self.nic.current_channel
        departing = self.associated_ifaces_on(old_channel)
        for iface in departing:
            iface.send_mgmt(FrameKind.PSM, iface.bssid)  # type: ignore[arg-type]
        psm_cost = len(departing) * self._mgmt_airtime()
        self.sim.schedule(psm_cost, self._do_tune, new_channel, started_at)

    def _do_tune(self, new_channel: int, started_at: float) -> None:
        self.nic.tune(new_channel, lambda: self._after_tune(new_channel, started_at))

    def _after_tune(self, new_channel: int, started_at: float) -> None:
        arriving = self.associated_ifaces_on(new_channel)
        for iface in arriving:
            iface.send_mgmt(FrameKind.PS_POLL, iface.bssid)  # type: ignore[arg-type]
        poll_cost = len(arriving) * self._mgmt_airtime()
        self.switch_latencies_s.append(self.sim.now - started_at + poll_cost)
        self._switching = False
        if self.running:
            self._arm_dwell()

    # ------------------------------------------------------------------
    def switch_once(self, new_channel: int) -> None:
        """One-shot switch for the Table 1 micro-benchmark.

        Performs a single switch outside the schedule loop; after the
        simulator is advanced past the switch, the measured latency is the
        last entry of :attr:`switch_latencies_s`.
        """
        if self.running:
            raise RuntimeError("cannot micro-benchmark while scheduling")
        if self._switching:
            raise RuntimeError("a switch is already in progress")
        self._begin_switch(new_channel)
