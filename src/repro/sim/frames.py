"""Frame and packet types exchanged over the simulated network.

Wireless frames (:class:`Frame`) travel over the :class:`~repro.sim.radio.Medium`;
wired packets reuse the same class and travel over AP backhauls.  Sizes are in
bytes and include a nominal header overhead so that airtime computations are
sensible without modelling each 802.11 header field.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = [
    "FrameKind",
    "Frame",
    "DhcpMessage",
    "TcpSegment",
    "BROADCAST",
    "MGMT_FRAME_BYTES",
    "ACK_FRAME_BYTES",
    "DHCP_FRAME_BYTES",
    "PING_FRAME_BYTES",
]

#: Destination address meaning "all stations on the channel".
BROADCAST = "ff:ff"

#: Nominal size of a management frame (beacon/probe/auth/assoc/psm), bytes.
MGMT_FRAME_BYTES = 80
#: Nominal size of a bare TCP ACK on the air, bytes.
ACK_FRAME_BYTES = 90
#: Nominal size of a DHCP message on the air, bytes.
DHCP_FRAME_BYTES = 350
#: Nominal size of an ICMP echo frame, bytes.
PING_FRAME_BYTES = 98

_frame_ids = itertools.count(1)


class FrameKind(enum.Enum):
    """Discriminator for everything that can cross a link."""

    BEACON = "beacon"
    PROBE_REQUEST = "probe_request"
    PROBE_RESPONSE = "probe_response"
    AUTH_REQUEST = "auth_request"
    AUTH_RESPONSE = "auth_response"
    ASSOC_REQUEST = "assoc_request"
    ASSOC_RESPONSE = "assoc_response"
    PSM = "psm"          # "entering power-save mode" null frame
    PS_POLL = "ps_poll"  # "I am back, flush your buffer" poll
    DISASSOC = "disassoc"
    DHCP = "dhcp"
    DATA = "data"        # carries a TcpSegment or opaque payload
    PING_REQUEST = "ping_request"
    PING_REPLY = "ping_reply"


class DhcpType(enum.Enum):
    """DHCP message types used by the join pipeline."""

    DISCOVER = "discover"
    OFFER = "offer"
    REQUEST = "request"
    ACK = "ack"
    NAK = "nak"


@dataclass
class DhcpMessage:
    """Payload of a ``FrameKind.DHCP`` frame."""

    dhcp_type: DhcpType
    transaction_id: int
    client_mac: str
    offered_ip: Optional[str] = None
    server_id: Optional[str] = None
    gateway_ip: Optional[str] = None
    lease_time: float = 3600.0


@dataclass
class TcpSegment:
    """Payload of a ``FrameKind.DATA`` frame carrying TCP.

    ``seq``/``ack`` are byte offsets (cumulative ACK semantics).  ``flow_id``
    identifies the connection; simulated hosts demultiplex on it the way a
    real stack demultiplexes on the 4-tuple.
    """

    flow_id: str
    src_ip: str
    dst_ip: str
    seq: int = 0
    ack: int = 0
    payload_bytes: int = 0
    is_ack: bool = False
    is_syn: bool = False
    is_fin: bool = False
    sent_at: float = 0.0
    retransmit: bool = False


@dataclass
class Frame:
    """A unit of transmission.

    ``src``/``dst`` are station identifiers (virtual-interface MACs, AP
    BSSIDs, or wired host ids).  ``bssid`` names the AP a managed frame
    belongs to, which lets overhearing stations do opportunistic scanning.
    """

    kind: FrameKind
    src: str
    dst: str
    size: int
    channel: int = 0
    bssid: Optional[str] = None
    payload: Any = None
    frame_id: int = field(default_factory=_frame_ids.__next__)

    @property
    def is_broadcast(self) -> bool:
        """Whether this frame is addressed to all stations."""
        return self.dst == BROADCAST

    def __repr__(self) -> str:  # compact, log-friendly
        return (
            f"Frame({self.kind.value} #{self.frame_id} {self.src}->{self.dst} "
            f"ch{self.channel} {self.size}B)"
        )
