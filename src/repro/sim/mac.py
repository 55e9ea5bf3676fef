"""Client-side 802.11 link-layer association state machine.

The paper emphasises that a Wi-Fi join is a *multi-phase* handshake, not the
one-shot exchange its analytical model assumes: authentication request and
response, then association request and response, each step governed by its
own link-layer timeout ("the link-layer timeout reflects a timer for each
message in a multi-step protocol and not a timeout for the entire
request-response process", §2.2.1).  This module implements that four-way
handshake with per-step timeouts and retry budgets.

Reducing the per-step timeout from the stock 1 s to 100 ms is one of the
knobs Figs. 5/14/15 sweep.
"""

from __future__ import annotations

import enum
import logging
from typing import Callable, Optional

from .engine import Event, Simulator
from .frames import Frame, FrameKind
from .nic import VirtualInterface

__all__ = ["AssociationState", "Associator", "DEFAULT_LL_TIMEOUT_S", "REDUCED_LL_TIMEOUT_S"]

logger = logging.getLogger(__name__)

#: Stock link-layer per-message timeout (seconds).
DEFAULT_LL_TIMEOUT_S = 1.0
#: The reduced timeout Eriksson et al. recommend and Spider adopts.
REDUCED_LL_TIMEOUT_S = 0.1
#: Retries per handshake step before the attempt is declared failed.
DEFAULT_MAX_RETRIES = 3


class AssociationState(enum.Enum):
    """Association state machine states."""
    IDLE = "idle"
    AUTHENTICATING = "authenticating"
    ASSOCIATING = "associating"
    ASSOCIATED = "associated"
    FAILED = "failed"


class Associator:
    """Drives one association attempt of one interface to one AP.

    Callbacks:

    ``on_success(elapsed_s)``
        The ASSOC_RESPONSE arrived; the interface is link-layer associated.
    ``on_failure(reason)``
        A step exhausted its retries (or the attempt was aborted).
    """

    def __init__(
        self,
        sim: Simulator,
        iface: VirtualInterface,
        bssid: str,
        channel: int,
        timeout_s: float = DEFAULT_LL_TIMEOUT_S,
        max_retries: int = DEFAULT_MAX_RETRIES,
        on_success: Optional[Callable[[float], None]] = None,
        on_failure: Optional[Callable[[str], None]] = None,
    ):
        if timeout_s <= 0:
            raise ValueError(f"timeout must be positive: {timeout_s!r}")
        self.sim = sim
        self.iface = iface
        self.bssid = bssid
        self.channel = channel
        self.timeout_s = timeout_s
        self.max_retries = max_retries
        self.on_success = on_success
        self.on_failure = on_failure
        self.state = AssociationState.IDLE
        self.started_at: Optional[float] = None
        self.retries_used = 0
        self._timer: Optional[Event] = None

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin the handshake (binds the interface to the AP's channel)."""
        if self.state is not AssociationState.IDLE:
            raise RuntimeError(f"associator already started (state={self.state})")
        self.started_at = self.sim.now
        self.iface.channel = self.channel
        self.iface.bssid = self.bssid
        self.iface.handlers[FrameKind.AUTH_RESPONSE] = self._on_auth_response
        self.iface.handlers[FrameKind.ASSOC_RESPONSE] = self._on_assoc_response
        self.state = AssociationState.AUTHENTICATING
        self.retries_used = 0
        self._send_current_step()

    def abort(self) -> None:
        """Cancel the attempt without invoking callbacks."""
        self._cancel_timer()
        self._detach_handlers()
        self.state = AssociationState.FAILED

    # ------------------------------------------------------------------
    def _send_current_step(self) -> None:
        if self.state is AssociationState.AUTHENTICATING:
            self.iface.send_mgmt(FrameKind.AUTH_REQUEST, self.bssid)
        elif self.state is AssociationState.ASSOCIATING:
            self.iface.send_mgmt(FrameKind.ASSOC_REQUEST, self.bssid)
        else:
            return
        self._arm_timer()

    def _arm_timer(self) -> None:
        self._cancel_timer()
        self._timer = self.sim.schedule(self.timeout_s, self._on_timeout)

    def _cancel_timer(self) -> None:
        if self._timer is not None:
            self.sim.cancel(self._timer)
            self._timer = None

    def _on_timeout(self) -> None:
        self._timer = None
        if self.state in (AssociationState.ASSOCIATED, AssociationState.FAILED):
            return
        if self.retries_used >= self.max_retries:
            self._fail(f"{self.state.value} timed out after {self.retries_used} retries")
            return
        self.retries_used += 1
        self._send_current_step()

    # ------------------------------------------------------------------
    def _on_auth_response(self, frame: Frame, rssi: float) -> None:
        if self.state is not AssociationState.AUTHENTICATING:
            return
        if frame.src != self.bssid:
            return
        self._cancel_timer()
        self.state = AssociationState.ASSOCIATING
        self.retries_used = 0
        self._send_current_step()

    def _on_assoc_response(self, frame: Frame, rssi: float) -> None:
        if self.state is not AssociationState.ASSOCIATING:
            return
        if frame.src != self.bssid:
            return
        accepted = True
        if isinstance(frame.payload, dict):
            accepted = frame.payload.get("accepted", True)
        self._cancel_timer()
        if not accepted:
            self._fail("association rejected by AP")
            return
        self.state = AssociationState.ASSOCIATED
        self._detach_handlers()
        started = self.started_at if self.started_at is not None else self.sim.now
        elapsed = self.sim.now - started
        logger.debug("%s associated to %s in %.3fs", self.iface.mac, self.bssid, elapsed)
        if self.on_success is not None:
            self.on_success(elapsed)

    # ------------------------------------------------------------------
    def _detach_handlers(self) -> None:
        self.iface.handlers.pop(FrameKind.AUTH_RESPONSE, None)
        self.iface.handlers.pop(FrameKind.ASSOC_RESPONSE, None)

    def _fail(self, reason: str) -> None:
        self._cancel_timer()
        self._detach_handlers()
        self.state = AssociationState.FAILED
        logger.debug("%s association to %s failed: %s", self.iface.mac, self.bssid, reason)
        if self.on_failure is not None:
            self.on_failure(reason)
