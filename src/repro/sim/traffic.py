"""Client-side applications: downloads, pings, liveness monitoring.

These are the moving parts the link-management module composes for every
joined interface:

* :class:`PingService` — sends ICMP-like echoes from an interface and
  demultiplexes replies by token.  Used both for the one-shot end-to-end
  verification that completes a join (step iii of the paper's join pipeline)
  and for continuous liveness probing.
* :class:`LivenessMonitor` — the paper's rule verbatim: pings at 10 per
  second, and "if thirty consecutive pings fail, Spider assumes that the
  connection is dropped".
* :class:`ClientFlow` — the client end of a bulk TCP download: a
  :class:`~repro.sim.tcp.TcpReceiver` wired to the interface, ACKing through
  the AP and reporting delivered bytes to the metrics recorder.
"""

from __future__ import annotations

import itertools
import logging
from typing import Callable, Dict, Optional

from .engine import Event, PeriodicProcess, Simulator
from .frames import ACK_FRAME_BYTES, PING_FRAME_BYTES, Frame, FrameKind, TcpSegment
from .cc import TransportSpec
from .nic import VirtualInterface
from .tcp import TcpReceiver
from .world import World

__all__ = ["PingService", "LivenessMonitor", "ClientFlow"]

logger = logging.getLogger(__name__)

_ping_tokens = itertools.count(1)

#: Liveness probe rate (pings per second) from §3.2.2.
LIVENESS_PING_RATE_HZ = 10.0
#: Consecutive misses before the connection is declared dead.
LIVENESS_MISS_THRESHOLD = 30


class PingService:
    """Echo request/reply over one joined interface.

    ``target_ip=None`` pings the gateway (answered locally by the AP);
    otherwise the request crosses the backhaul and the server echoes it —
    the end-to-end case.
    """

    def __init__(self, sim: Simulator, iface: VirtualInterface, target_ip: Optional[str] = None):
        if iface.ip is None or iface.bssid is None:
            raise RuntimeError("PingService requires a joined interface")
        self.sim = sim
        self.iface = iface
        self.target_ip = target_ip
        self._waiting: Dict[int, Callable[[], None]] = {}
        self.requests_sent = 0
        self.replies_received = 0
        iface.handlers[FrameKind.PING_REPLY] = self._on_reply

    def send(self, on_reply: Callable[[], None]) -> int:
        """Send one echo request; ``on_reply`` fires if the reply returns."""
        token = next(_ping_tokens)
        self._waiting[token] = on_reply
        self.requests_sent += 1
        self.iface.send(
            Frame(
                kind=FrameKind.PING_REQUEST,
                src=self.iface.mac,
                dst=self.iface.bssid,  # type: ignore[arg-type]
                size=PING_FRAME_BYTES,
                bssid=self.iface.bssid,
                payload={
                    "src_ip": self.iface.ip,
                    "dst_ip": self.target_ip,
                    "token": token,
                },
            )
        )
        return token

    def probe(self, timeout_s: float, on_result: Callable[[bool], None]) -> None:
        """One-shot reachability check with a deadline."""
        timer_box: Dict[str, Optional[Event]] = {"t": None}

        def reply() -> None:
            timer = timer_box["t"]
            if timer is not None and self.sim.pending(timer):
                self.sim.cancel(timer)
                on_result(True)

        def timeout() -> None:
            self._waiting.pop(token, None)
            on_result(False)

        token = self.send(reply)
        timer_box["t"] = self.sim.schedule(timeout_s, timeout)

    def close(self) -> None:
        """Close and release resources."""
        self._waiting.clear()
        if self.iface.handlers.get(FrameKind.PING_REPLY) == self._on_reply:
            del self.iface.handlers[FrameKind.PING_REPLY]

    def _on_reply(self, frame: Frame, rssi: float) -> None:
        payload = frame.payload if isinstance(frame.payload, dict) else {}
        token = payload.get("token")
        callback = self._waiting.pop(token, None)
        if callback is not None:
            self.replies_received += 1
            callback()


class LivenessMonitor:
    """Continuous connection-health probe (10 Hz, 30-miss death rule)."""

    def __init__(
        self,
        sim: Simulator,
        ping_service: PingService,
        on_dead: Callable[[], None],
        rate_hz: float = LIVENESS_PING_RATE_HZ,
        miss_threshold: int = LIVENESS_MISS_THRESHOLD,
    ):
        self.sim = sim
        self.ping_service = ping_service
        self.on_dead = on_dead
        self.miss_threshold = miss_threshold
        self.consecutive_misses = 0
        self._outstanding = 0
        self._dead = False
        self._process = PeriodicProcess(sim, 1.0 / rate_hz, self._tick)

    def _tick(self) -> None:
        if self._dead:
            return
        # Any probe still unanswered when the next fires counts as a miss.
        if self._outstanding > 0:
            self.consecutive_misses += self._outstanding
            self._outstanding = 0
            if self.consecutive_misses >= self.miss_threshold:
                self._declare_dead()
                return
        self._outstanding += 1
        self.ping_service.send(self._on_reply)

    def _on_reply(self) -> None:
        self._outstanding = 0
        self.consecutive_misses = 0

    def _declare_dead(self) -> None:
        self._dead = True
        self._process.stop()
        self.on_dead()

    def stop(self) -> None:
        """Stop the component and release its resources."""
        self._dead = True
        self._process.stop()


class ClientFlow:
    """The client end of a bulk download through one joined interface."""

    def __init__(
        self,
        sim: Simulator,
        world: World,
        iface: VirtualInterface,
        on_bytes: Optional[Callable[[int], None]] = None,
        total_bytes: Optional[int] = None,
        transport: Optional[TransportSpec] = None,
    ):
        if iface.ip is None or iface.bssid is None:
            raise RuntimeError("ClientFlow requires a joined interface")
        self.sim = sim
        self.world = world
        self.iface = iface
        # World-scoped, not process-global: flow ids appear in telemetry
        # events, so numbering must be a pure function of the simulation
        # (identical whichever process layout ran the trial).
        self.flow_id = world.next_flow_id()
        self.closed = False

        def send_ack(segment: TcpSegment) -> None:
            if self.closed or iface.bssid is None:
                return
            iface.send(
                Frame(
                    kind=FrameKind.DATA,
                    src=iface.mac,
                    dst=iface.bssid,
                    size=ACK_FRAME_BYTES,
                    bssid=iface.bssid,
                    payload=segment,
                )
            )

        self.receiver = TcpReceiver(
            sim,
            flow_id=self.flow_id,
            src_ip=iface.ip,
            dst_ip=world.server.ip,
            send_ack=send_ack,
            on_deliver=on_bytes,
        )
        iface.handlers[FrameKind.DATA] = self._on_data
        self.sender = world.server.open_download(
            self.flow_id,
            client_ip=iface.ip,
            total_bytes=total_bytes,
            transport=transport,
        )

    def _on_data(self, frame: Frame, rssi: float) -> None:
        segment = frame.payload
        if isinstance(segment, TcpSegment) and segment.flow_id == self.flow_id:
            self.receiver.on_segment(segment)

    @property
    def bytes_delivered(self) -> int:
        """Bytes delivered in order to the receiver."""
        return self.receiver.bytes_delivered

    def close(self) -> None:
        """Close and release resources."""
        if self.closed:
            return
        self.closed = True
        self.world.server.close_flow(self.flow_id)
        if self.iface.handlers.get(FrameKind.DATA) == self._on_data:
            del self.iface.handlers[FrameKind.DATA]
