"""Topology assembly: the wired core, the content server, and AP bridging.

A :class:`World` owns the simulator, the wireless :class:`Medium`, every
:class:`AccessPoint`, and a single :class:`ServerHost` that terminates the
download flows and echoes end-to-end pings.  It installs itself as each
AP's uplink handler and routes downlink traffic to the right AP by the
client IP's subnet (each AP hands out addresses from its own subnet, the
common open-AP deployment the paper measures).  Its :class:`StackSpec`
is the world-wide stack choice: the TCP transport and the medium's
contention model.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from .ap import AccessPoint, SplitTcpProxy
from .cc import TransportSpec
from .contention import ContentionSpec
from .engine import Simulator
from .frames import PING_FRAME_BYTES, FrameKind, TcpSegment
from .radio import Medium
from .tcp import TCP_HEADER_BYTES, TcpSender

__all__ = ["ServerHost", "StackSpec", "World"]

logger = logging.getLogger(__name__)

#: One-way latency across the wired core (AP head-end to server), seconds.
DEFAULT_WIRED_LATENCY_S = 0.01

SERVER_IP = "192.0.2.1"


@dataclass(frozen=True)
class StackSpec:
    """Frozen, picklable world stack: what every flow and frame runs on.

    One value carries the choices an experiment makes for its whole
    world — the flows' TCP (``transport``) and the medium's MAC
    (``contention``) — from the experiment spec through every trial spec
    and helper down to :class:`World`, and enters a trial's cache key as
    one field.  The default is the historical stack: Reno without
    splitting over the global per-channel airtime FIFO.
    """

    transport: TransportSpec = TransportSpec()
    contention: ContentionSpec = ContentionSpec(enabled=False)


class ServerHost:
    """The wired content server: TCP senders live here."""

    def __init__(self, world: "World"):
        self.world = world
        self.ip = SERVER_IP
        self.flows: Dict[str, TcpSender] = {}
        self._split_proxies: Dict[str, SplitTcpProxy] = {}
        self.pings_echoed = 0

    def open_download(
        self,
        flow_id: str,
        client_ip: str,
        total_bytes: Optional[int] = None,
        on_complete: Optional[Callable[[], None]] = None,
        transport: Optional[TransportSpec] = None,
    ) -> TcpSender:
        """Start a bulk download toward ``client_ip`` and return the sender.

        ``transport`` configures the flow's TCP — congestion controller,
        splitting and every numeric knob; ``None`` uses the world stack's
        transport.  In split mode the flow is terminated by a
        :class:`~repro.sim.ap.SplitTcpProxy` at the client's AP, and
        ``on_complete`` keeps its end-to-end meaning (it fires when the
        *client* has ACKed every byte).
        """
        if flow_id in self.flows:
            raise ValueError(f"duplicate flow id {flow_id!r}")
        if transport is None:
            transport = self.world.stack.transport

        def transmit(segment: TcpSegment) -> None:
            """Hand a segment to the network."""
            self.world.send_to_ip(
                segment.dst_ip,
                FrameKind.DATA,
                segment,
                segment.payload_bytes + TCP_HEADER_BYTES,
            )

        origin_on_complete = on_complete
        if transport.split:
            ap = self.world.ap_for_ip(client_ip)
            if ap is not None:
                # The wireless relay owns end-to-end completion; the origin
                # sender merely finishes its wired half into the proxy.
                self._split_proxies[flow_id] = SplitTcpProxy(
                    ap,
                    flow_id=flow_id,
                    server_ip=self.ip,
                    client_ip=client_ip,
                    transport=transport,
                    expected_bytes=total_bytes,
                    on_complete=on_complete,
                )
                origin_on_complete = None

        sender = TcpSender(
            self.world.sim,
            flow_id=flow_id,
            src_ip=self.ip,
            dst_ip=client_ip,
            transmit=transmit,
            transport=transport,
            total_bytes=total_bytes,
            on_complete=origin_on_complete,
        )
        self.flows[flow_id] = sender
        sender.start()
        return sender

    def close_flow(self, flow_id: str) -> None:
        """Terminate a server-side flow (idempotent)."""
        sender = self.flows.pop(flow_id, None)
        if sender is not None:
            sender.close()
        proxy = self._split_proxies.pop(flow_id, None)
        if proxy is not None:
            proxy.close()

    def on_segment(self, segment: TcpSegment) -> None:
        """Segment arriving from the wired core (normally a client ACK)."""
        sender = self.flows.get(segment.flow_id)
        if sender is None:
            return
        if segment.is_ack:
            sender.on_ack(segment)


class World:
    """Everything outside the mobile client."""

    def __init__(
        self,
        sim: Simulator,
        data_rate_bps: float = 11e6,
        range_m: float = 100.0,
        loss_rate: float = 0.1,
        wired_latency_s: float = DEFAULT_WIRED_LATENCY_S,
        stack: StackSpec = StackSpec(),
    ):
        self.sim = sim
        self.medium = Medium(
            sim,
            data_rate_bps=data_rate_bps,
            range_m=range_m,
            loss_rate=loss_rate,
            contention=stack.contention,
        )
        self.wired_latency_s = wired_latency_s
        #: The world stack: the server's default flow transport, and the
        #: contention choice whose ``beacon_stagger`` reaches every AP this
        #: world creates, independent of whether CSMA/CA itself is on.
        self.stack = stack
        self.server = ServerHost(self)
        self.aps: Dict[str, AccessPoint] = {}
        self._ap_by_subnet: Dict[str, AccessPoint] = {}
        self._next_ap_index = 1
        self._next_flow_index = 1

    def next_flow_id(self) -> str:
        """Allocate a world-unique flow id (``flow1``, ``flow2``, ...).

        World-scoped rather than process-global so the ids — which leak
        into telemetry events — are deterministic for a given simulation
        regardless of how trials are packed into worker processes.
        """
        flow_id = f"flow{self._next_flow_index}"
        self._next_flow_index += 1
        return flow_id

    # ------------------------------------------------------------------
    # Topology construction
    # ------------------------------------------------------------------
    def add_ap(
        self,
        channel: int,
        position: Tuple[float, float],
        bssid: Optional[str] = None,
        subnet: Optional[str] = None,
        backhaul_rate_bps: float = 1.5e6,
        backhaul_latency_s: float = 0.02,
        dhcp_response_delay: Optional[Callable[[], float]] = None,
        ssid: Optional[str] = None,
    ) -> AccessPoint:
        """Create an AP, wire its uplink, and register its subnet route."""
        index = self._next_ap_index
        self._next_ap_index += 1
        if bssid is None:
            bssid = f"ap{index:03d}"
        if subnet is None:
            subnet = f"10.{index}.0"
        ap = AccessPoint(
            self.sim,
            self.medium,
            bssid=bssid,
            channel=channel,
            position=position,
            subnet=subnet,
            backhaul_rate_bps=backhaul_rate_bps,
            backhaul_latency_s=backhaul_latency_s,
            dhcp_response_delay=dhcp_response_delay,
            ssid=ssid,
            beacon_stagger=self.stack.contention.beacon_stagger,
        )
        ap.uplink_handler = self._on_uplink
        self.aps[bssid] = ap
        # Later APs may deliberately share a subnet (IP-collision tests);
        # routing then prefers the most recently added AP, matching the
        # paper's "most recently assigned interface" rule.
        self._ap_by_subnet[subnet] = ap
        return ap

    def ap_for_ip(self, ip: str) -> Optional[AccessPoint]:
        """The AP whose DHCP subnet owns the address, if any."""
        subnet = ip.rsplit(".", 1)[0]
        return self._ap_by_subnet.get(subnet)

    # ------------------------------------------------------------------
    # Wired routing
    # ------------------------------------------------------------------
    def send_to_ip(self, ip: str, kind: FrameKind, payload, size: int) -> None:
        """Route a packet from the server toward a client IP."""
        ap = self.ap_for_ip(ip)
        if ap is None:
            return
        self.sim.schedule_at(
            self.sim.now + self.wired_latency_s,
            ap.deliver_downlink,
            ip,
            kind,
            payload,
            size,
        )

    def _on_uplink(self, ap: AccessPoint, kind: FrameKind, payload, src_mac: str) -> None:
        """Traffic arriving at the AP's wired head-end."""
        if kind is FrameKind.DATA and isinstance(payload, TcpSegment):
            self.sim.schedule_at(
                self.sim.now + self.wired_latency_s, self.server.on_segment, payload
            )
        elif kind is FrameKind.PING_REQUEST and isinstance(payload, dict):
            src_ip = payload.get("src_ip")
            if src_ip is None:
                return
            self.server.pings_echoed += 1
            # One wired leg to reach the server; send_to_ip adds the return leg.
            self.sim.schedule_at(
                self.sim.now + self.wired_latency_s,
                self.send_to_ip,
                src_ip,
                FrameKind.PING_REPLY,
                dict(payload),
                PING_FRAME_BYTES,
            )
