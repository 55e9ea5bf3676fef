"""DHCP over the simulated link: server, client state machine, lease cache.

DHCP is the villain of the paper: join-time is dominated by the wait for the
server's OFFER, that wait cannot be covered by PSM buffering (the client has
no address yet), and default client timers (3 s of attempts, then 60 s of
idling) are hopeless at vehicular speeds.  The pieces here:

* :class:`DhcpServer` — per-AP server whose OFFER is delayed by a draw from
  the configured response-time distribution: this is the ``β ~ U[βmin, βmax]``
  of the analytical model (Eq. 4).
* :class:`DhcpClient` — DISCOVER/OFFER/REQUEST/ACK state machine with a
  configurable retransmission timeout and total attempt budget, plus the
  fast re-REQUEST path used when a cached lease exists.
* :class:`LeaseCache` — Spider's per-BSSID lease memory (Design §3.1:
  "per-BSSID dhcp caches are used to speed up the process of obtaining a
  lease").
"""

from __future__ import annotations

import enum
import itertools
import logging
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from .engine import Event, Simulator
from .frames import DHCP_FRAME_BYTES, DhcpMessage, DhcpType, Frame, FrameKind
from .nic import VirtualInterface

__all__ = [
    "DhcpServer",
    "DhcpClient",
    "DhcpClientState",
    "LeaseCache",
    "DEFAULT_DHCP_TIMEOUT_S",
    "DEFAULT_ATTEMPT_BUDGET_S",
    "DEFAULT_IDLE_AFTER_FAILURE_S",
]

logger = logging.getLogger(__name__)

#: Stock client retransmission timeout, seconds.
DEFAULT_DHCP_TIMEOUT_S = 1.0
#: Stock client total attempt budget ("the client attempts to acquire a
#: lease for 3 seconds").
DEFAULT_ATTEMPT_BUDGET_S = 3.0
#: Stock client idle period after a failed attempt ("it is idle for 60
#: seconds if it fails").  Enforced by the caller (link manager), surfaced
#: here as the canonical constant.
DEFAULT_IDLE_AFTER_FAILURE_S = 60.0

_xids = itertools.count(1)


@dataclass
class Lease:
    """One remembered DHCP lease."""
    ip: str
    gateway_ip: str
    expires_at: float


class DhcpServer:
    """The DHCP service an AP offers.

    ``response_delay`` is a zero-argument callable returning the OFFER delay
    in seconds; the default town workloads wire it to ``U[βmin, βmax]``
    minus a small association allowance.  ACK and NAK are fast (the heavy
    lifting — relay round-trips, address-pool checks — happens before the
    OFFER in real deployments).
    """

    def __init__(
        self,
        sim: Simulator,
        subnet: str,
        response_delay: Callable[[], float],
        ack_delay_s: float = 0.05,
        pool_size: int = 200,
        lease_time_s: float = 3600.0,
    ):
        self.sim = sim
        self.subnet = subnet
        self.response_delay = response_delay
        self.ack_delay_s = ack_delay_s
        self.pool_size = pool_size
        self.lease_time_s = lease_time_s
        self.gateway_ip = f"{subnet}.1"
        self._next_host = 10
        self._leases: Dict[str, str] = {}  # client_mac -> ip
        self._ips_in_use: Dict[str, str] = {self.gateway_ip: "gateway"}
        #: Per-transaction readiness time.  A server's slowness is a
        #: property of the transaction (relay round-trips, pool checks):
        #: the first DISCOVER starts the clock, and every DISCOVER —
        #: including retransmissions covering a lost OFFER — is answered no
        #: earlier than that readiness time.
        self._ready_at: Dict[tuple, float] = {}
        self.offers_sent = 0
        self.acks_sent = 0
        self.naks_sent = 0
        # Fault-injection windows (absolute sim times; 0 = inactive).
        self.offline_until = 0.0
        self.nak_until = 0.0
        self.exhausted_until = 0.0
        self.requests_dropped = 0

    # ------------------------------------------------------------------
    # Fault-injection windows
    # ------------------------------------------------------------------
    def stall(self, until_s: float) -> None:
        """Drop every message until ``until_s`` (upstream relay outage)."""
        self.offline_until = max(self.offline_until, until_s)

    def force_nak(self, until_s: float) -> None:
        """NAK every REQUEST until ``until_s``, forgetting the binding.

        Models a server that lost its lease database: the stale binding a
        client re-REQUESTs (cached or just-offered) is refused and purged.
        """
        self.nak_until = max(self.nak_until, until_s)

    def exhaust(self, until_s: float) -> None:
        """Refuse allocations to *new* clients until ``until_s``."""
        self.exhausted_until = max(self.exhausted_until, until_s)

    # ------------------------------------------------------------------
    def _allocate(self, client_mac: str) -> Optional[str]:
        existing = self._leases.get(client_mac)
        if existing is not None:
            return existing
        if len(self._leases) >= self.pool_size:
            return None
        if self.sim.now < self.exhausted_until:
            return None  # injected exhaustion: nothing for new clients
        ip = f"{self.subnet}.{self._next_host}"
        self._next_host += 1
        self._leases[client_mac] = ip
        self._ips_in_use[ip] = client_mac
        return ip

    def lease_for(self, client_mac: str) -> Optional[str]:
        """IP currently leased to the client MAC, if any."""
        return self._leases.get(client_mac)

    def mac_for_ip(self, ip: str) -> Optional[str]:
        """Reverse lookup used by the AP's downlink bridge."""
        owner = self._ips_in_use.get(ip)
        return None if owner in (None, "gateway") else owner

    # ------------------------------------------------------------------
    def handle(self, message: DhcpMessage, reply: Callable[[DhcpMessage, float], None]) -> None:
        """Process a client message; ``reply(msg, delay)`` sends the answer.

        The AP supplies ``reply`` so that the server stays transport-
        agnostic (answers go back over the air through the AP).
        """
        if self.sim.now < self.offline_until:
            self.requests_dropped += 1
            return  # stalled: a dead relay answers nothing at all
        if message.dhcp_type is DhcpType.DISCOVER:
            key = (message.client_mac, message.transaction_id)
            ready_at = self._ready_at.get(key)
            if ready_at is None:
                ready_at = self.sim.now + max(self.response_delay(), 0.0)
                self._ready_at[key] = ready_at
            ip = self._allocate(message.client_mac)
            if ip is None:
                return  # pool exhausted: silence, like a real busy server
            self.offers_sent += 1
            reply(
                DhcpMessage(
                    dhcp_type=DhcpType.OFFER,
                    transaction_id=message.transaction_id,
                    client_mac=message.client_mac,
                    offered_ip=ip,
                    gateway_ip=self.gateway_ip,
                    lease_time=self.lease_time_s,
                ),
                max(ready_at - self.sim.now, self.ack_delay_s),
            )
        elif message.dhcp_type is DhcpType.REQUEST:
            self._ready_at.pop((message.client_mac, message.transaction_id), None)
            requested = message.offered_ip
            if self.sim.now < self.nak_until:
                # Injected NAK burst: the lease database is gone.  Purge
                # whatever binding the client thinks it has and refuse.
                stale = self._leases.pop(message.client_mac, None)
                if stale is not None:
                    self._ips_in_use.pop(stale, None)
                self.naks_sent += 1
                reply(
                    DhcpMessage(
                        dhcp_type=DhcpType.NAK,
                        transaction_id=message.transaction_id,
                        client_mac=message.client_mac,
                    ),
                    self.ack_delay_s,
                )
                return
            valid = (
                requested is not None
                and self._ips_in_use.get(requested) == message.client_mac
            )
            if not valid and requested is not None:
                # Unknown binding (e.g., cached lease from a prior epoch):
                # re-admit it when the address is free, else NAK.
                if requested not in self._ips_in_use and requested.startswith(self.subnet + "."):
                    self._leases[message.client_mac] = requested
                    self._ips_in_use[requested] = message.client_mac
                    valid = True
            if valid:
                self.acks_sent += 1
                reply(
                    DhcpMessage(
                        dhcp_type=DhcpType.ACK,
                        transaction_id=message.transaction_id,
                        client_mac=message.client_mac,
                        offered_ip=requested,
                        gateway_ip=self.gateway_ip,
                        lease_time=self.lease_time_s,
                    ),
                    self.ack_delay_s,
                )
            else:
                self.naks_sent += 1
                reply(
                    DhcpMessage(
                        dhcp_type=DhcpType.NAK,
                        transaction_id=message.transaction_id,
                        client_mac=message.client_mac,
                    ),
                    self.ack_delay_s,
                )


class LeaseCache:
    """Per-BSSID remembered leases (client side)."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._cache: Dict[str, Lease] = {}
        self.hits = 0
        self.misses = 0

    def put(self, bssid: str, ip: str, gateway_ip: str, lease_time_s: float) -> None:
        """Store a lease for the BSSID."""
        self._cache[bssid] = Lease(ip, gateway_ip, self.sim.now + lease_time_s)

    def get(self, bssid: str) -> Optional[Lease]:
        """Fetch a valid (unexpired) lease for the BSSID, if cached."""
        lease = self._cache.get(bssid)
        if lease is None:
            self.misses += 1
            return None
        if lease.expires_at <= self.sim.now:
            del self._cache[bssid]
            self.misses += 1
            return None
        self.hits += 1
        return lease

    def invalidate(self, bssid: str) -> None:
        """Drop any cached lease for the BSSID."""
        self._cache.pop(bssid, None)

    def __len__(self) -> int:
        return len(self._cache)


class DhcpClientState(enum.Enum):
    """DHCP client state machine states."""
    IDLE = "idle"
    SELECTING = "selecting"    # DISCOVER sent, waiting for OFFER
    REQUESTING = "requesting"  # REQUEST sent, waiting for ACK
    BOUND = "bound"
    FAILED = "failed"


class DhcpClient:
    """One lease-acquisition attempt on one interface.

    Callbacks:

    ``on_success(ip, gateway_ip, elapsed_s, used_cache)``
    ``on_failure(reason)``

    A cached lease (``cached``) short-circuits to the REQUEST step; a NAK
    falls back to the full DISCOVER exchange within the same attempt budget.
    """

    def __init__(
        self,
        sim: Simulator,
        iface: VirtualInterface,
        server_bssid: str,
        timeout_s: float = DEFAULT_DHCP_TIMEOUT_S,
        attempt_budget_s: float = DEFAULT_ATTEMPT_BUDGET_S,
        cached: Optional[Lease] = None,
        on_success: Optional[Callable[[str, str, float, bool], None]] = None,
        on_failure: Optional[Callable[[str], None]] = None,
        on_nak: Optional[Callable[[], None]] = None,
        telemetry=None,
    ):
        if timeout_s <= 0 or attempt_budget_s <= 0:
            raise ValueError("timeout_s and attempt_budget_s must be positive")
        self.sim = sim
        # Telemetry: callers (the link manager) pass their own scope so
        # attempts land under e.g. "veh0.dhcp.*"; standalone clients write
        # the simulator-global registry.  Instruments are cached here so a
        # disabled registry costs a no-op call on the rare paths only.
        tele = telemetry if telemetry is not None else sim.telemetry
        self._obs = tele
        self._obs_retransmits = tele.counter("dhcp.retransmits")
        self._obs_naks = tele.counter("dhcp.naks")
        self._obs_lease_time = tele.histogram("dhcp.lease_time_s")
        self._obs_span = None
        self.iface = iface
        self.server_bssid = server_bssid
        self.timeout_s = timeout_s
        self.attempt_budget_s = attempt_budget_s
        self.cached = cached
        self.on_success = on_success
        self.on_failure = on_failure
        self.on_nak = on_nak
        self.naks_received = 0
        self.state = DhcpClientState.IDLE
        self.xid = next(_xids)
        self.started_at: Optional[float] = None
        self.used_cache = False
        self.retransmits = 0
        self._timer: Optional[Event] = None
        self._budget_timer: Optional[Event] = None
        self._requested_ip: Optional[str] = None

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the component."""
        if self.state is not DhcpClientState.IDLE:
            raise RuntimeError(f"dhcp client already started (state={self.state})")
        self.started_at = self.sim.now
        self._obs_span = self._obs.begin_span(
            "dhcp.attempt", bssid=self.server_bssid, cached=self.cached is not None
        )
        self.iface.handlers[FrameKind.DHCP] = self._on_frame
        self._budget_timer = self.sim.schedule(self.attempt_budget_s, self._on_budget_exhausted)
        if self.cached is not None:
            self.used_cache = True
            self._requested_ip = self.cached.ip
            self.state = DhcpClientState.REQUESTING
        else:
            self.state = DhcpClientState.SELECTING
        self._send_current_step()

    def abort(self) -> None:
        """Abort without invoking completion callbacks."""
        self._teardown()
        self.state = DhcpClientState.FAILED
        if self._obs_span is not None:
            self._obs_span.end("cancelled")

    # ------------------------------------------------------------------
    def _send_current_step(self) -> None:
        if self.state is DhcpClientState.SELECTING:
            message = DhcpMessage(
                dhcp_type=DhcpType.DISCOVER,
                transaction_id=self.xid,
                client_mac=self.iface.mac,
            )
        elif self.state is DhcpClientState.REQUESTING:
            message = DhcpMessage(
                dhcp_type=DhcpType.REQUEST,
                transaction_id=self.xid,
                client_mac=self.iface.mac,
                offered_ip=self._requested_ip,
            )
        else:
            return
        self.iface.send(
            Frame(
                kind=FrameKind.DHCP,
                src=self.iface.mac,
                dst=self.server_bssid,
                size=DHCP_FRAME_BYTES,
                bssid=self.server_bssid,
                payload=message,
            )
        )
        self._arm_timer()

    def _arm_timer(self) -> None:
        if self._timer is not None:
            self.sim.cancel(self._timer)
        self._timer = self.sim.schedule(self.timeout_s, self._on_timeout)

    def _on_timeout(self) -> None:
        self._timer = None
        if self.state in (DhcpClientState.BOUND, DhcpClientState.FAILED):
            return
        self.retransmits += 1
        self._obs_retransmits.inc()
        self._send_current_step()

    def _on_budget_exhausted(self) -> None:
        self._budget_timer = None
        if self.state in (DhcpClientState.BOUND, DhcpClientState.FAILED):
            return
        self._fail(f"attempt budget {self.attempt_budget_s}s exhausted in {self.state.value}")

    # ------------------------------------------------------------------
    def _on_frame(self, frame: Frame, rssi: float) -> None:
        message = frame.payload
        if not isinstance(message, DhcpMessage):
            return
        if message.transaction_id != self.xid or message.client_mac != self.iface.mac:
            return
        if message.dhcp_type is DhcpType.OFFER and self.state is DhcpClientState.SELECTING:
            self._requested_ip = message.offered_ip
            self.state = DhcpClientState.REQUESTING
            self._send_current_step()
        elif message.dhcp_type is DhcpType.ACK and self.state is DhcpClientState.REQUESTING:
            self._complete(message)
        elif message.dhcp_type is DhcpType.NAK and self.state is DhcpClientState.REQUESTING:
            # Cached address rejected: restart with a full DISCOVER.
            self.naks_received += 1
            self._obs_naks.inc()
            if self.on_nak is not None:
                self.on_nak()
            self.used_cache = False
            self._requested_ip = None
            self.state = DhcpClientState.SELECTING
            self._send_current_step()

    def _complete(self, message: DhcpMessage) -> None:
        self._teardown()
        self.state = DhcpClientState.BOUND
        started = self.started_at if self.started_at is not None else self.sim.now
        elapsed = self.sim.now - started
        ip = message.offered_ip or ""
        gateway = message.gateway_ip or ""
        self.iface.ip = ip
        self.iface.gateway_ip = gateway
        logger.debug(
            "%s leased %s from %s in %.3fs (cache=%s)",
            self.iface.mac, ip, self.server_bssid, elapsed, self.used_cache,
        )
        self._obs_lease_time.observe(elapsed)
        if self._obs_span is not None:
            self._obs_span.end("ok", used_cache=self.used_cache)
        if self.on_success is not None:
            self.on_success(ip, gateway, elapsed, self.used_cache)

    def _fail(self, reason: str) -> None:
        self._teardown()
        self.state = DhcpClientState.FAILED
        logger.debug("%s dhcp via %s failed: %s", self.iface.mac, self.server_bssid, reason)
        if self._obs_span is not None:
            self._obs_span.end("failed", reason=reason)
        if self.on_failure is not None:
            self.on_failure(reason)

    def _teardown(self) -> None:
        if self._timer is not None:
            self.sim.cancel(self._timer)
            self._timer = None
        if self._budget_timer is not None:
            self.sim.cancel(self._budget_timer)
            self._budget_timer = None
        if self.iface.handlers.get(FrameKind.DHCP) == self._on_frame:
            del self.iface.handlers[FrameKind.DHCP]
