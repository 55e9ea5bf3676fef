"""Access points: beaconing, association handling, PSM buffering, backhaul.

An :class:`AccessPoint` is a static station on a fixed channel that

* beacons periodically (feeding opportunistic scanning),
* answers probe/auth/assoc requests with a small processing delay,
* runs a :class:`~repro.sim.dhcp.DhcpServer`,
* honours power-save mode: data destined to a PSM client is buffered until
  the client's PS-poll.  **Join traffic is never PSM-buffered** — the paper's
  core observation is that DHCP responses cannot be covered by power-save
  games, so an off-channel client simply misses them,
* bridges to the wired world through a rate/latency-limited
  :class:`BackhaulLink` in each direction (backhaul is typically the
  bottleneck, which is what makes multi-AP aggregation profitable at all).
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, Optional, Tuple

from .cc import TransportSpec
from .engine import PeriodicProcess, Simulator
from .frames import (
    ACK_FRAME_BYTES,
    BROADCAST,
    DHCP_FRAME_BYTES,
    MGMT_FRAME_BYTES,
    PING_FRAME_BYTES,
    DhcpMessage,
    Frame,
    FrameKind,
    TcpSegment,
)
from .dhcp import DhcpServer
from .radio import Medium
from .tcp import TCP_HEADER_BYTES, TcpReceiver, TcpSender

__all__ = ["BackhaulLink", "AccessPoint", "SplitTcpProxy", "BEACON_PERIOD_S"]

logger = logging.getLogger(__name__)

#: 802.11 beacon interval (~102.4 ms nominally).
BEACON_PERIOD_S = 0.1

#: AP-side processing delay for management responses, seconds.
AP_PROC_DELAY_S = 2.0e-3

#: Frames buffered per PSM client before tail drop.
PSM_BUFFER_DEPTH = 100


class BackhaulLink:
    """A serialized, fixed-latency pipe between an AP and the wired core."""

    def __init__(self, sim: Simulator, rate_bps: float, latency_s: float):
        if rate_bps <= 0:
            raise ValueError(f"rate must be positive: {rate_bps!r}")
        if latency_s < 0:
            raise ValueError(f"latency must be non-negative: {latency_s!r}")
        self.sim = sim
        self.rate_bps = rate_bps
        self.latency_s = latency_s
        self._busy_until = 0.0
        self.bytes_carried = 0

    def send(self, size_bytes: int, fn: Callable[..., None], *args: Any) -> None:
        """Deliver ``fn(*args)`` after serialization + propagation."""
        start = max(self.sim.now, self._busy_until)
        self._busy_until = start + size_bytes * 8.0 / self.rate_bps
        self.bytes_carried += size_bytes
        self.sim.schedule_at(self._busy_until + self.latency_s, fn, *args)


@dataclass
class _ClientState:
    """Per-associated-client bookkeeping at the AP."""

    mac: str
    psm: bool = False
    buffer: Deque[Frame] = field(default_factory=deque)
    associated_at: float = 0.0


class AccessPoint:
    """One 802.11 AP with a DHCP server and a backhaul.

    ``uplink_handler`` is installed by the :class:`~repro.sim.world.World`
    and receives every uplink payload that crosses the backhaul, as
    ``handler(ap, kind, payload, src_mac)``.
    """

    #: APs never move or retune, so the medium may index them spatially and
    #: per-channel instead of probing them on every delivery.
    is_static = True

    #: ``on_frame`` returns immediately for beacons (see below), so an AP
    #: is no beacon's receiver: the medium leaves it out of every beacon's
    #: receivers, with no loss draw, hidden-terminal screen, ``frames_*``
    #: count or delivery-hook call for it.
    ignores_beacons = True

    #: ``accepts`` matches the BSSID and nothing else, which lets the
    #: vectorized medium resolve unicast frames to static receivers
    #: through a BSSID index instead of calling ``accepts`` per station.
    accepts_only_own_id = True

    def __init__(
        self,
        sim: Simulator,
        medium: Medium,
        bssid: str,
        channel: int,
        position: Tuple[float, float],
        subnet: str,
        backhaul_rate_bps: float = 1.5e6,
        backhaul_latency_s: float = 0.02,
        dhcp_response_delay: Optional[Callable[[], float]] = None,
        ssid: Optional[str] = None,
        beacon_period_s: float = BEACON_PERIOD_S,
        beacon_stagger: bool = False,
    ):
        self.sim = sim
        self.medium = medium
        self.station_id = bssid
        self.bssid = bssid
        self.ssid = ssid if ssid is not None else f"net-{bssid}"
        self.channel = channel
        self._position = position
        if dhcp_response_delay is None:
            rng = sim.rng(f"dhcp.{bssid}")
            dhcp_response_delay = lambda: rng.uniform(0.4, 1.2)  # noqa: E731
        self.dhcp = DhcpServer(sim, subnet=subnet, response_delay=dhcp_response_delay)
        self.downlink = BackhaulLink(sim, backhaul_rate_bps, backhaul_latency_s)
        self.uplink = BackhaulLink(sim, backhaul_rate_bps, backhaul_latency_s)
        self.backhaul_rate_bps = backhaul_rate_bps
        self.uplink_handler: Optional[Callable[["AccessPoint", FrameKind, Any, str], None]] = None
        self.clients: Dict[str, _ClientState] = {}
        #: Split-connection proxies terminating the wireless side of TCP
        #: flows at this AP, keyed by flow id (see :class:`SplitTcpProxy`).
        self.split_proxies: Dict[str, "SplitTcpProxy"] = {}
        self.frames_dropped_unassociated = 0
        self.frames_dropped_psm_overflow = 0
        self.beacon_period_s = beacon_period_s
        # Beacons are the single most common frame in any run and carry
        # identical content every period, so one shared Frame serves them
        # all: receivers and trace hooks only read frames, never retain or
        # mutate them.
        self._beacon_frame = Frame(
            kind=FrameKind.BEACON,
            src=bssid,
            dst=BROADCAST,
            size=MGMT_FRAME_BYTES,
            channel=channel,
            bssid=bssid,
            payload={"ssid": self.ssid},
        )
        #: Set while the AP is powered off by fault injection.
        self.failed = False
        self.failures = 0
        #: Deterministic per-AP beacon phase stagger: draw the phase from a
        #: per-BSSID stream instead of the shared ``beacon.phase`` stream,
        #: so co-channel APs never emit synchronized beacon bursts however
        #: registration is ordered.  Off by default — the shared stream is
        #: then consumed exactly as before, preserving byte-identity.
        self.beacon_stagger = beacon_stagger
        self._beacons = PeriodicProcess(
            sim,
            beacon_period_s,
            self._send_beacon,
            phase=self._draw_beacon_phase(),
        )
        medium.register(self)

    def _draw_beacon_phase(self) -> float:
        if self.beacon_stagger:
            rng = self.sim.rng(f"beacon.stagger.{self.bssid}")
        else:
            rng = self.sim.rng("beacon.phase")
        return rng.uniform(0, self.beacon_period_s)

    # ------------------------------------------------------------------
    # Station protocol
    # ------------------------------------------------------------------
    def position(self) -> Tuple[float, float]:
        """Current (x, y) coordinates in metres."""
        return self._position

    def tuned_channel(self) -> Optional[int]:
        """Channel the radio is currently listening on (None while resetting)."""
        return self.channel

    def accepts(self, dst: str) -> bool:
        """Whether a unicast frame addressed to ``dst`` is for this station."""
        return dst == self.bssid

    # ------------------------------------------------------------------
    # Beaconing / probing
    # ------------------------------------------------------------------
    def _send_beacon(self) -> None:
        self.medium.transmit(self, self._beacon_frame)

    def stop(self) -> None:
        """Stop beaconing (teardown helper for tests)."""
        self._beacons.stop()

    # ------------------------------------------------------------------
    # Fault injection: power cycling
    # ------------------------------------------------------------------
    def fail(self) -> None:
        """Power the AP off: no beacons, no reception, association state lost.

        DHCP server-side lease bindings survive (they live in the server's
        persistent store in real deployments), which is exactly what makes
        client-side lease caches pay off across a power cycle.
        """
        if self.failed:
            return
        self.failed = True
        self.failures += 1
        self._beacons.stop()
        self.medium.unregister(self.bssid)
        self.clients.clear()
        # Proxy state is RAM at the AP; a power cycle loses it.  Any wired
        # segments still arriving fall through to the ordinary downlink
        # path (both split halves share the origin's byte offsets, so the
        # end-to-end stream stays coherent).
        for proxy in list(self.split_proxies.values()):
            proxy.close()

    def recover(self) -> None:
        """Power the AP back on with a fresh beacon phase."""
        if not self.failed:
            return
        self.failed = False
        self.medium.register(self)
        # PeriodicProcess cannot restart; a recovered AP beacons anew with a
        # phase drawn from its beacon stream (a reboot re-randomizes the
        # beacon timing in real hardware too).
        self._beacons = PeriodicProcess(
            self.sim,
            self.beacon_period_s,
            self._send_beacon,
            phase=self._draw_beacon_phase(),
        )

    # ------------------------------------------------------------------
    # Channel assignment
    # ------------------------------------------------------------------
    def retune(self, channel: int) -> None:
        """Move the AP to ``channel`` (deployment-time reconfiguration).

        ``is_static`` promises the medium a fixed channel *after*
        registration, so retuning re-registers: the AP drops out of its
        old per-channel bins and into the new ones (any frames already in
        flight toward the old channel simply miss, as they would during a
        real retune).  Intended for channel-assignment experiments that
        rewrite a built town's channel map before traffic starts.
        """
        if channel == self.channel:
            return
        if not self.failed:
            self.medium.unregister(self.bssid)
        self.channel = channel
        # The shared beacon frame bakes the channel in; rebuild it.
        self._beacon_frame = Frame(
            kind=FrameKind.BEACON,
            src=self.bssid,
            dst=BROADCAST,
            size=MGMT_FRAME_BYTES,
            channel=channel,
            bssid=self.bssid,
            payload={"ssid": self.ssid},
        )
        if not self.failed:
            self.medium.register(self)

    # ------------------------------------------------------------------
    # Frame reception
    # ------------------------------------------------------------------
    def on_frame(self, frame: Frame, rssi: float) -> None:
        """Handle one received frame."""
        kind = frame.kind
        if kind is FrameKind.BEACON:
            # A neighbouring AP's beacon carries nothing an AP acts on (the
            # medium does not deliver one: see ``ignores_beacons``).
            return
        if kind is FrameKind.PROBE_REQUEST:
            self._reply(
                FrameKind.PROBE_RESPONSE, frame.src, payload={"ssid": self.ssid}
            )
        elif kind is FrameKind.AUTH_REQUEST:
            self._reply(FrameKind.AUTH_RESPONSE, frame.src)
        elif kind is FrameKind.ASSOC_REQUEST:
            # (Re)association resets the client's session state: a client
            # returning after driving out of range must not inherit the
            # stale power-save flag and buffer from its previous visit.
            self.clients[frame.src] = _ClientState(
                mac=frame.src, associated_at=self.sim.now
            )
            self._reply(
                FrameKind.ASSOC_RESPONSE, frame.src, payload={"accepted": True}
            )
        elif kind is FrameKind.DISASSOC:
            self.clients.pop(frame.src, None)
        elif kind is FrameKind.PSM:
            state = self.clients.get(frame.src)
            if state is not None:
                state.psm = True
        elif kind is FrameKind.PS_POLL:
            self._handle_ps_poll(frame.src)
        elif kind is FrameKind.DHCP:
            message = frame.payload
            if isinstance(message, DhcpMessage):
                self.dhcp.handle(message, self._reply_dhcp)
        elif kind is FrameKind.PING_REQUEST:
            self._handle_ping(frame)
        elif kind is FrameKind.DATA:
            self._handle_uplink_data(frame)

    # ------------------------------------------------------------------
    # Management replies
    # ------------------------------------------------------------------
    def _reply(self, kind: FrameKind, dst: str, payload=None) -> None:
        self.sim.schedule_at(
            self.sim.now + AP_PROC_DELAY_S,
            self.medium.transmit,
            self,
            Frame(
                kind=kind,
                src=self.bssid,
                dst=dst,
                size=MGMT_FRAME_BYTES,
                channel=self.channel,
                bssid=self.bssid,
                payload=payload,
            ),
        )

    def _reply_dhcp(self, message: DhcpMessage, delay_s: float) -> None:
        """DHCP answers are never PSM-buffered: off-channel clients miss them."""
        self.sim.schedule_at(
            self.sim.now + delay_s,
            self.medium.transmit,
            self,
            Frame(
                kind=FrameKind.DHCP,
                src=self.bssid,
                dst=message.client_mac,
                size=DHCP_FRAME_BYTES,
                channel=self.channel,
                bssid=self.bssid,
                payload=message,
            ),
        )

    # ------------------------------------------------------------------
    # Power-save mode
    # ------------------------------------------------------------------
    def _handle_ps_poll(self, client_mac: str) -> None:
        state = self.clients.get(client_mac)
        if state is None:
            return
        state.psm = False
        while state.buffer:
            self.medium.transmit(self, state.buffer.popleft())

    # ------------------------------------------------------------------
    # Ping (LMM liveness + end-to-end join verification)
    # ------------------------------------------------------------------
    def _handle_ping(self, frame: Frame) -> None:
        payload = frame.payload if isinstance(frame.payload, dict) else {}
        dst_ip = payload.get("dst_ip")
        if dst_ip in (None, self.dhcp.gateway_ip):
            # Gateway ping: answer locally.
            self._send_ping_reply(frame.src, payload)
            return
        # End-to-end ping: cross the backhaul, let the wired side echo.
        self.uplink.send(
            frame.size, self._dispatch_uplink, FrameKind.PING_REQUEST, payload, frame.src
        )

    def _send_ping_reply(self, dst_mac: str, payload: dict) -> None:
        self.send_downlink_to_mac(
            dst_mac,
            Frame(
                kind=FrameKind.PING_REPLY,
                src=self.bssid,
                dst=dst_mac,
                size=PING_FRAME_BYTES,
                channel=self.channel,
                bssid=self.bssid,
                payload=dict(payload),
            ),
        )

    # ------------------------------------------------------------------
    # Uplink data path (client -> wired)
    # ------------------------------------------------------------------
    def _handle_uplink_data(self, frame: Frame) -> None:
        if frame.src not in self.clients:
            self.frames_dropped_unassociated += 1
            return
        if self.split_proxies:
            payload = frame.payload
            if isinstance(payload, TcpSegment) and payload.is_ack:
                proxy = self.split_proxies.get(payload.flow_id)
                if proxy is not None:
                    # ACK for the wireless side of a split flow: terminate
                    # it here instead of crossing the backhaul.
                    proxy.on_wireless_ack(payload)
                    return
        self.uplink.send(
            frame.size, self._dispatch_uplink, FrameKind.DATA, frame.payload, frame.src
        )

    def _dispatch_uplink(self, kind: FrameKind, payload: Any, src_mac: str) -> None:
        if self.uplink_handler is not None:
            self.uplink_handler(self, kind, payload, src_mac)

    # ------------------------------------------------------------------
    # Downlink data path (wired -> client)
    # ------------------------------------------------------------------
    def deliver_downlink(self, dst_ip: str, kind: FrameKind, payload: Any, size: int) -> None:
        """Entry point from the wired core: queue onto the backhaul."""
        self.downlink.send(size, self._downlink_arrived, dst_ip, kind, payload, size)

    def _downlink_arrived(self, dst_ip: str, kind: FrameKind, payload: Any, size: int) -> None:
        if self.split_proxies and kind is FrameKind.DATA and isinstance(payload, TcpSegment):
            proxy = self.split_proxies.get(payload.flow_id)
            if proxy is not None:
                # Wired half of a split flow terminates at the AP — even
                # while the client is off-channel, which is the point: the
                # origin connection never sees the wireless gap.
                proxy.on_wired_segment(payload)
                return
        client_mac = self.dhcp.mac_for_ip(dst_ip)
        if client_mac is None or client_mac not in self.clients:
            self.frames_dropped_unassociated += 1
            return
        self.send_downlink_to_mac(
            client_mac,
            Frame(
                kind=kind,
                src=self.bssid,
                dst=client_mac,
                size=size,
                channel=self.channel,
                bssid=self.bssid,
                payload=payload,
            ),
        )

    def send_downlink_to_mac(self, client_mac: str, frame: Frame) -> None:
        """Transmit to an associated client, honouring PSM buffering."""
        state = self.clients.get(client_mac)
        if state is None:
            self.frames_dropped_unassociated += 1
            return
        if state.psm:
            self._psm_buffer(state, frame)
            return
        self.medium.transmit(self, frame)

    def _psm_buffer(self, state: _ClientState, frame: Frame) -> None:
        if len(state.buffer) >= PSM_BUFFER_DEPTH:
            self.frames_dropped_psm_overflow += 1
            state.buffer.popleft()
        state.buffer.append(frame)

    def on_delivery_failed(self, frame: Frame) -> None:
        """Link-layer retries toward this client all failed.

        For data-plane frames to a still-associated client, the station is
        evidently asleep or mid-switch: mark it power-saving and re-queue
        the frame, exactly as production APs move unACKed frames to the PS
        queue.  Join-plane frames (auth/assoc/DHCP) are *not* rescued —
        that asymmetry is the paper's core premise.
        """
        if frame.kind not in (FrameKind.DATA, FrameKind.PING_REPLY):
            return
        state = self.clients.get(frame.dst)
        if state is None:
            self.frames_dropped_unassociated += 1
            return
        state.psm = True
        self._psm_buffer(state, frame)

    # ------------------------------------------------------------------
    def is_associated(self, client_mac: str) -> bool:
        """Whether the client MAC is currently associated."""
        return client_mac in self.clients

    def __repr__(self) -> str:
        return f"AccessPoint({self.bssid}, ch{self.channel}, {len(self.clients)} clients)"


class _WirelessRelaySender(TcpSender):
    """Wireless-side sender of a split connection.

    Unlike an origin sender, its ``total_bytes`` grows dynamically as the
    wired-side receiver delivers in-order bytes (``supply``), and the flow
    completes only once the upstream has signalled EOF (``mark_eof``) *and*
    every supplied byte is ACKed by the client.
    """

    def __init__(self, *args: Any, **kwargs: Any):
        kwargs.setdefault("total_bytes", 0)
        super().__init__(*args, **kwargs)
        self._eof = False

    def supply(self, nbytes: int) -> None:
        """More in-order bytes arrived from the wired side; extend and send."""
        if self.closed or nbytes <= 0:
            return
        self.total_bytes = (self.total_bytes or 0) + nbytes
        self._fill_window()

    def mark_eof(self) -> None:
        """The wired side has delivered everything the origin will send."""
        self._eof = True
        self._check_complete()

    def _check_complete(self) -> bool:
        if not self._eof:
            return False
        return super()._check_complete()


class SplitTcpProxy:
    """Split-connection TCP proxy at the AP (one per flow).

    Terminates the wired-side connection with a :class:`TcpReceiver` (its
    ACKs ride the uplink backhaul back to the origin server) and relays the
    delivered byte stream over a fresh wireless-side
    :class:`_WirelessRelaySender` whose segments go straight onto the air
    via the AP's normal downlink/PSM machinery.  Both halves share the
    origin flow's byte offsets, so the client's receiver — and its
    cumulative ACKs — need no awareness that the path was split.

    The payoff is the paper's Figs. 7/8 pathology in reverse: an
    off-channel dwell now times out only the last-hop connection, whose
    RTO/cwnd state rebuilds over one wireless RTT, while the origin
    connection keeps streaming into the proxy across the clean wired path.
    """

    def __init__(
        self,
        ap: AccessPoint,
        flow_id: str,
        server_ip: str,
        client_ip: str,
        transport: Optional[TransportSpec] = None,
        expected_bytes: Optional[int] = None,
        on_complete: Optional[Callable[[], None]] = None,
    ):
        self.ap = ap
        self.sim = ap.sim
        self.flow_id = flow_id
        self.client_ip = client_ip
        self.transport = transport or TransportSpec()
        self.expected_bytes = expected_bytes
        self.on_complete = on_complete
        self.closed = False
        self.wired_bytes_in = 0
        # Split instruments exist only on split flows (a non-default mode),
        # keeping default-path telemetry byte-identical to the seed.
        tele = self.sim.telemetry
        tele.counter("tcp.split.flows_opened").inc()
        tele.event("tcp.split.open", flow=flow_id, ap=ap.bssid)
        self._obs_relayed = tele.counter("tcp.split.relayed_bytes")
        self.relay = _WirelessRelaySender(
            self.sim,
            flow_id=flow_id,
            src_ip=server_ip,
            dst_ip=client_ip,
            transmit=self._transmit_wireless,
            transport=self.transport,
            on_complete=self._relay_complete,
        )
        self.receiver = TcpReceiver(
            self.sim,
            flow_id=flow_id,
            src_ip=client_ip,
            dst_ip=server_ip,
            send_ack=self._send_wired_ack,
            on_deliver=self._on_wired_deliver,
        )
        ap.split_proxies[flow_id] = self
        self.relay.start()

    # -- wired side ----------------------------------------------------
    def on_wired_segment(self, segment: TcpSegment) -> None:
        """Origin data arriving over the downlink backhaul."""
        if not self.closed:
            self.receiver.on_segment(segment)

    def _send_wired_ack(self, segment: TcpSegment) -> None:
        if self.closed:
            return
        self.ap.uplink.send(
            ACK_FRAME_BYTES, self.ap._dispatch_uplink, FrameKind.DATA, segment, self.ap.bssid
        )

    def _on_wired_deliver(self, nbytes: int) -> None:
        self.wired_bytes_in += nbytes
        self._obs_relayed.inc(nbytes)
        self.relay.supply(nbytes)
        if self.expected_bytes is not None and self.wired_bytes_in >= self.expected_bytes:
            self.relay.mark_eof()

    # -- wireless side -------------------------------------------------
    def _transmit_wireless(self, segment: TcpSegment) -> None:
        if self.closed:
            return
        client_mac = self.ap.dhcp.mac_for_ip(self.client_ip)
        if client_mac is None or client_mac not in self.ap.clients:
            # Client off this AP right now; the relay's own RTO recovers.
            self.ap.frames_dropped_unassociated += 1
            return
        self.ap.send_downlink_to_mac(
            client_mac,
            Frame(
                kind=FrameKind.DATA,
                src=self.ap.bssid,
                dst=client_mac,
                size=segment.payload_bytes + TCP_HEADER_BYTES,
                channel=self.ap.channel,
                bssid=self.ap.bssid,
                payload=segment,
            ),
        )

    def on_wireless_ack(self, segment: TcpSegment) -> None:
        """Client ACK for relayed data (terminated here, not forwarded)."""
        if not self.closed:
            self.relay.on_ack(segment)

    # -- lifecycle -----------------------------------------------------
    def _relay_complete(self) -> None:
        finished_cb = self.on_complete
        self.close()
        if finished_cb is not None:
            finished_cb()

    def close(self) -> None:
        """Tear down both halves (idempotent)."""
        if self.closed:
            return
        self.closed = True
        self.relay.close()
        self.ap.split_proxies.pop(self.flow_id, None)
