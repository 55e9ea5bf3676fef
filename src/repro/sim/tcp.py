"""Packet-level TCP Reno model.

Figures 7, 8, and 10 of the paper hinge on two TCP mechanisms:

* **retransmission timeouts** fire when the client is away from the data
  channel longer than the RTO, collapsing cwnd to one segment, and
* **slow start** must then rebuild the window, so every timeout costs far
  more than the time away.

This module implements enough of RFC 5681/6298 to exhibit both: slow start,
congestion avoidance, RFC 6298 SRTT/RTTVAR estimation with Karn's algorithm,
exponential RTO backoff, triple-duplicate-ACK fast retransmit, and a
receiver with out-of-order reassembly and cumulative ACKs.

Senders and receivers are transport endpoints only: the caller supplies a
``transmit`` function, and the :mod:`repro.sim.world` plumbing routes
segments across the wired core, AP backhaul, and wireless hop.

Congestion control itself is pluggable: the window arithmetic lives in
:mod:`repro.sim.cc` strategy objects (Reno by default and byte-identical to
the historical inline code; CUBIC / BBR-lite / QUIC-0RTT selectable via
:class:`repro.sim.cc.TransportSpec`), while this module keeps the sequence
state, timers, and retransmission machinery that drive them.
"""

from __future__ import annotations

import logging
import math
from typing import Callable, Dict, Optional

from .cc import RenoCC, TcpParams, TransportSpec
from .engine import Event, Simulator
from .frames import TcpSegment

__all__ = [
    "TcpParams",
    "TransportSpec",
    "TcpSender",
    "TcpReceiver",
    "TCP_HEADER_BYTES",
]

logger = logging.getLogger(__name__)

#: Wire overhead per data segment (IP + TCP headers), bytes.
TCP_HEADER_BYTES = 52


class TcpSender:
    """Bulk-data sender; congestion control is a pluggable strategy.

    ``transmit(segment)`` hands a segment to the network.  ``on_complete``
    fires once when ``total_bytes`` (if given) are cumulatively ACKed.
    The window lives in a :class:`repro.sim.cc.CongestionController`
    (Reno by default, byte-identical to the historical inline code);
    select another via ``transport=TransportSpec(cc=...)``.
    """

    def __init__(
        self,
        sim: Simulator,
        flow_id: str,
        src_ip: str,
        dst_ip: str,
        transmit: Callable[[TcpSegment], None],
        total_bytes: Optional[int] = None,
        on_complete: Optional[Callable[[], None]] = None,
        transport: Optional[TransportSpec] = None,
    ):
        self.sim = sim
        self.flow_id = flow_id
        self.src_ip = src_ip
        self.dst_ip = dst_ip
        self.transmit = transmit
        if transport is None:
            transport = TransportSpec()
        self.transport = transport
        self.p = transport.params()
        self.cc = transport.controller()
        self.total_bytes = total_bytes
        self.on_complete = on_complete

        self.snd_una = 0
        self.snd_nxt = 0
        self.srtt: Optional[float] = None
        self.rttvar = 0.0
        self.rto = self.p.rto_initial_s
        self.dupacks = 0
        self.closed = False
        self.timeouts = 0
        self.fast_retransmits = 0
        self.segments_sent = 0
        self.bytes_acked = 0
        # Telemetry covers the rare recovery paths only (RTO, fast
        # retransmit) plus a flow-open event — never the per-segment hot
        # path.  Cached instruments are no-ops when telemetry is disabled.
        tele = sim.telemetry
        self._obs_rto = tele.counter("tcp.rto_fired")
        self._obs_fast_rtx = tele.counter("tcp.fast_retransmits")
        tele.event("tcp.flow_open", flow=flow_id, dst=dst_ip)
        # Per-CC instruments exist only for non-default controllers, so the
        # default path — and an *explicit* --cc reno — export exactly the
        # seed's telemetry (the CI byte-identity gate depends on this).
        if self.cc.name != RenoCC.name:
            prefix = f"tcp.cc.{self.cc.name}"
            self._obs_cc_rto = tele.counter(f"{prefix}.rto_fired")
            self._obs_cc_fast_rtx = tele.counter(f"{prefix}.fast_retransmits")
            self._obs_cc_cwnd_at_loss = tele.histogram(
                f"{prefix}.cwnd_at_loss",
                bounds=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0),
            )
        else:
            self._obs_cc_rto = None
            self._obs_cc_fast_rtx = None
            self._obs_cc_cwnd_at_loss = None

        self._timer: Optional[Event] = None
        # Lazy RTO timer: the *logical* deadline lives here (+inf = not
        # armed); the engine event may sit earlier than the deadline, in
        # which case it re-arms itself instead of firing the RTO.  Every
        # ACK then just overwrites the deadline — O(1), no heap churn —
        # instead of the historical cancel + reschedule per ACK.
        self._rto_deadline = math.inf
        # One outstanding RTT probe at a time (Karn-safe).
        self._rtt_probe_ack: Optional[int] = None
        self._rtt_probe_sent_at = 0.0
        # Highest byte ever sent; anything below it is a retransmission
        # (Karn's algorithm excludes those from RTT sampling).
        self._max_sent = 0

    # ------------------------------------------------------------------
    @property
    def flight_bytes(self) -> int:
        """Bytes sent but not yet cumulatively ACKed."""
        return self.snd_nxt - self.snd_una

    @property
    def flight_segments(self) -> float:
        """Flight size in segments, floored at one.

        The single flight estimate every CC hook sees.  Historically
        ``_on_rto`` and ``_fast_retransmit`` each recomputed this inline —
        centralizing it here guarantees pluggable controllers can't observe
        divergent flight values on the two loss paths.
        """
        return max(self.flight_bytes / self.p.mss, 1.0)

    @property
    def cwnd(self) -> float:
        """Congestion window (segments); owned by the controller."""
        return self.cc.cwnd

    @cwnd.setter
    def cwnd(self, value: float) -> None:
        self.cc.cwnd = value

    @property
    def ssthresh(self) -> float:
        """Slow-start threshold (segments); owned by the controller."""
        return self.cc.ssthresh

    @ssthresh.setter
    def ssthresh(self, value: float) -> None:
        self.cc.ssthresh = value

    def start(self) -> None:
        """Start the component."""
        self._fill_window()

    def close(self) -> None:
        """Stop sending and cancel timers (connection torn down)."""
        self.closed = True
        self._cancel_timer()

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def _remaining(self) -> Optional[int]:
        if self.total_bytes is None:
            return None
        return max(self.total_bytes - self.snd_nxt, 0)

    def _fill_window(self) -> None:
        if self.closed:
            return
        window_bytes = int(min(self.cwnd, self.p.max_cwnd_segments) * self.p.mss)
        while self.flight_bytes + self.p.mss <= window_bytes:
            remaining = self._remaining()
            if remaining is not None and remaining <= 0:
                break
            length = self.p.mss if remaining is None else min(self.p.mss, remaining)
            # After an RTO rewinds snd_nxt (go-back-N), bytes below the
            # high-water mark are retransmissions.
            self._send_segment(
                self.snd_nxt, length, retransmit=self.snd_nxt < self._max_sent
            )
            self.snd_nxt += length
            self._max_sent = max(self._max_sent, self.snd_nxt)
        if self.flight_bytes > 0:
            self._ensure_timer()

    def _send_segment(self, seq: int, length: int, retransmit: bool) -> None:
        segment = TcpSegment(
            flow_id=self.flow_id,
            src_ip=self.src_ip,
            dst_ip=self.dst_ip,
            seq=seq,
            payload_bytes=length,
            sent_at=self.sim.now,
            retransmit=retransmit,
        )
        self.segments_sent += 1
        if not retransmit and self._rtt_probe_ack is None:
            self._rtt_probe_ack = seq + length
            self._rtt_probe_sent_at = self.sim.now
        self.transmit(segment)

    # ------------------------------------------------------------------
    # Timer
    # ------------------------------------------------------------------
    def _ensure_timer(self) -> None:
        if self._rto_deadline == math.inf:
            self._arm(self.sim.now + self.rto)

    def _restart_timer(self) -> None:
        if self.flight_bytes > 0:
            self._arm(self.sim.now + self.rto)
        else:
            # Logical disarm; a standing engine event (if any) fires as a
            # no-op.
            self._rto_deadline = math.inf

    def _arm(self, deadline: float) -> None:
        self._rto_deadline = deadline
        timer = self._timer
        sim = self.sim
        if timer is not None and sim.pending(timer):
            if sim.time_of(timer) <= deadline:
                return  # standing event fires first and re-arms itself
            # RTO shrank below the standing event (fresh RTT sample after
            # a backoff): the event would fire too late, so move it.
            sim.cancel(timer)
        self._timer = sim.schedule_at(deadline, self._on_timer)

    def _cancel_timer(self) -> None:
        self._rto_deadline = math.inf
        if self._timer is not None:
            self.sim.cancel(self._timer)
            self._timer = None

    def _on_timer(self) -> None:
        self._timer = None
        if self.closed:
            return
        deadline = self._rto_deadline
        if deadline == math.inf or self.flight_bytes == 0:
            return
        if self.sim.now < deadline:
            # The deadline moved while this event was in flight (new ACKs
            # pushed it out); chase it.
            self._timer = self.sim.schedule_at(deadline, self._on_timer)
            return
        self._on_rto()

    def _on_rto(self) -> None:
        self._rto_deadline = math.inf
        self.timeouts += 1
        self._obs_rto.inc()
        if self._obs_cc_rto is not None:
            self._obs_cc_rto.inc()
            self._obs_cc_cwnd_at_loss.observe(self.cc.cwnd)
        self.cc.on_rto(self.flight_segments, self.sim.now)
        self.rto = min(self.rto * 2.0, self.p.rto_max_s)
        self.dupacks = 0
        self._rtt_probe_ack = None  # Karn: no samples from retransmits
        # Go-back-N: rewind and let the window refill from snd_una, so a
        # burst loss recovers via slow start rather than one RTO per hole.
        self.snd_nxt = self.snd_una
        self._fill_window()

    # ------------------------------------------------------------------
    # ACK processing
    # ------------------------------------------------------------------
    def on_ack(self, segment: TcpSegment) -> None:
        """Process an incoming ACK segment."""
        if self.closed:
            return
        ack = segment.ack
        if ack > self._max_sent:
            return  # acking data never sent: ignore
        if ack > self.snd_una:
            # A late cumulative ACK can exceed a go-back-N-rewound snd_nxt;
            # it is still valid (the bytes were sent before the rewind).
            self.snd_nxt = max(self.snd_nxt, ack)
            self._on_new_ack(ack)
        elif ack == self.snd_una and self.flight_bytes > 0:
            self.dupacks += 1
            if self.dupacks == self.p.dupack_threshold:
                self._fast_retransmit()

    def _on_new_ack(self, ack: int) -> None:
        acked_bytes = ack - self.snd_una
        self.bytes_acked += acked_bytes
        self.dupacks = 0
        if self._rtt_probe_ack is not None and ack >= self._rtt_probe_ack:
            self._take_rtt_sample(self.sim.now - self._rtt_probe_sent_at)
            self._rtt_probe_ack = None
        acked_segments = acked_bytes / self.p.mss
        self.cc.on_ack(acked_segments, self.flight_segments, self.sim.now)
        self.snd_una = ack
        self._restart_timer()
        if self._check_complete():
            return
        self._fill_window()

    def _check_complete(self) -> bool:
        """Close and fire ``on_complete`` once all bytes are ACKed.

        Split out (and overridable) so relay senders with a dynamically
        growing ``total_bytes`` can defer completion until their upstream
        signals EOF.
        """
        if self.total_bytes is not None and self.snd_una >= self.total_bytes:
            finished_cb = self.on_complete
            self.close()
            if finished_cb is not None:
                finished_cb()
            return True
        return False

    def _fast_retransmit(self) -> None:
        self.fast_retransmits += 1
        self._obs_fast_rtx.inc()
        if self._obs_cc_fast_rtx is not None:
            self._obs_cc_fast_rtx.inc()
            self._obs_cc_cwnd_at_loss.observe(self.cc.cwnd)
        self.cc.on_fast_retransmit(self.flight_segments, self.sim.now)
        self._rtt_probe_ack = None
        length = min(self.p.mss, self.flight_bytes)
        self._send_segment(self.snd_una, length, retransmit=True)
        self._restart_timer()

    def _take_rtt_sample(self, sample: float) -> None:
        self.cc.on_rtt_sample(sample, self.sim.now)
        if self.srtt is None:
            self.srtt = sample
            self.rttvar = sample / 2.0
        else:
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - sample)
            self.srtt = 0.875 * self.srtt + 0.125 * sample
        self.rto = min(
            max(self.srtt + 4.0 * self.rttvar, self.p.rto_min_s), self.p.rto_max_s
        )


class TcpReceiver:
    """Cumulative-ACK receiver with out-of-order reassembly.

    ``send_ack(segment)`` transmits an ACK back toward the sender;
    ``on_deliver(byte_count)`` reports bytes newly delivered *in order*
    (the number the throughput metrics count).
    """

    def __init__(
        self,
        sim: Simulator,
        flow_id: str,
        src_ip: str,
        dst_ip: str,
        send_ack: Callable[[TcpSegment], None],
        on_deliver: Optional[Callable[[int], None]] = None,
    ):
        self.sim = sim
        self.flow_id = flow_id
        self.src_ip = src_ip
        self.dst_ip = dst_ip
        self.send_ack = send_ack
        self.on_deliver = on_deliver
        self.rcv_nxt = 0
        self.bytes_delivered = 0
        self.duplicate_segments = 0
        self._out_of_order: Dict[int, int] = {}  # seq -> length

    def on_segment(self, segment: TcpSegment) -> None:
        """Process an incoming data segment."""
        seq, length = segment.seq, segment.payload_bytes
        if length <= 0:
            return
        if seq + length <= self.rcv_nxt:
            self.duplicate_segments += 1
        elif seq <= self.rcv_nxt:
            advanced = seq + length - self.rcv_nxt
            self.rcv_nxt = seq + length
            if self._out_of_order:
                # Reassembly only when there are holes; the in-order common
                # case stays allocation-free.
                advanced += self._drain_out_of_order()
            self.bytes_delivered += advanced
            if self.on_deliver is not None:
                self.on_deliver(advanced)
        else:
            self._out_of_order[seq] = max(self._out_of_order.get(seq, 0), length)
        self._emit_ack()

    def _drain_out_of_order(self) -> int:
        advanced = 0
        while True:
            matched = None
            for seq, length in self._out_of_order.items():
                if seq <= self.rcv_nxt < seq + length:
                    matched = (seq, length)
                    break
            if matched is None:
                break
            seq, length = matched
            del self._out_of_order[seq]
            gain = seq + length - self.rcv_nxt
            if gain > 0:
                self.rcv_nxt += gain
                advanced += gain
        # Discard stale holes fully below rcv_nxt.
        if self._out_of_order:
            self._out_of_order = {
                s: l for s, l in self._out_of_order.items() if s + l > self.rcv_nxt
            }
        return advanced

    def _emit_ack(self) -> None:
        self.send_ack(
            TcpSegment(
                flow_id=self.flow_id,
                src_ip=self.src_ip,
                dst_ip=self.dst_ip,
                ack=self.rcv_nxt,
                is_ack=True,
                sent_at=self.sim.now,
            )
        )
