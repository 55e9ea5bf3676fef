"""Pluggable congestion control for the TCP model.

The paper's headline TCP pathology — an off-channel dwell longer than the
RTO collapsing cwnd to one segment (Figs. 7/8) — was measured under Reno.
This module makes the congestion controller a strategy object so the same
sender machinery (timers, ACK clocking, go-back-N, Karn's algorithm) can
drive modern controllers, letting experiments ask whether the "dividing
speed" moves under CUBIC/BBR or when the lossy last hop is split at the AP.

Contents:

* :class:`CongestionController` — the strategy interface.  The sender owns
  sequence state and timers; the controller owns ``cwnd``/``ssthresh`` and
  reacts to ``on_ack`` / ``on_rto`` / ``on_fast_retransmit`` /
  ``on_rtt_sample`` callbacks.
* :class:`RenoCC` — bit-for-bit the arithmetic previously inlined in
  :class:`repro.sim.tcp.TcpSender`; the default, and byte-identical to the
  pre-refactor traces (CI cmp-enforces this).
* :class:`CubicCC` — RFC 8312-style cubic window growth.
* :class:`BbrLiteCC` — a small model of BBR: windowed min-RTT and max
  delivery-rate filters, cwnd pinned to ``gain * BDP``.
* :class:`QuicZeroRttCC` — Reno window dynamics plus a QUIC-style 0-RTT
  session-resumption hint: the join pipeline skips its verify phase when
  rejoining an AP this client has verified before.
* :class:`TransportSpec` — a frozen, picklable bundle of the TCP knobs
  (:class:`TcpParams` fields) plus the CC/split selection, carried on
  ``ExperimentSpec`` and threaded through worlds and flows.

``TcpParams`` lives here (re-exported from :mod:`repro.sim.tcp` for
compatibility) so the sender module can depend on this one without cycles.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from typing import Callable, Deque, Dict, Optional, Tuple

from collections import deque

__all__ = [
    "TcpParams",
    "TransportSpec",
    "CongestionController",
    "RenoCC",
    "CubicCC",
    "BbrLiteCC",
    "QuicZeroRttCC",
    "CC_NAMES",
    "make_controller",
    "resolve_transport",
]


@dataclass
class TcpParams:
    """The numeric TCP knobs, as senders and controllers read them.

    Built by :meth:`TransportSpec.params`; a flow is configured through its
    :class:`TransportSpec`.
    """

    mss: int = 1400
    initial_cwnd_segments: float = 2.0
    initial_ssthresh_segments: float = 64.0
    max_cwnd_segments: float = 128.0  # models the receiver window
    #: Linux's RTO floor (200 ms), the value that makes off-channel gaps
    #: longer than ~2 RTTs expensive — the mechanism behind Figs. 7/8.
    rto_min_s: float = 0.2
    rto_max_s: float = 60.0
    rto_initial_s: float = 1.0
    dupack_threshold: int = 3


class CongestionController:
    """Strategy interface driven by :class:`repro.sim.tcp.TcpSender`.

    The sender computes ``acked_segments`` / ``flight_segments`` from its
    sequence state and calls the hooks below; the controller updates
    ``cwnd`` and ``ssthresh`` (both in segments).  Hooks receive ``now``
    (sim time, seconds) so time-based controllers need no engine handle.
    """

    #: Registry key; also used to namespace per-CC telemetry.
    name = "base"
    #: When True, the join pipeline may skip its verify phase on rejoin
    #: (QUIC-style 0-RTT session resumption).
    zero_rtt_resume = False

    def __init__(self, params: Optional[TcpParams] = None):
        self.p = params or TcpParams()
        self.cwnd: float = self.p.initial_cwnd_segments
        self.ssthresh: float = self.p.initial_ssthresh_segments

    def on_ack(self, acked_segments: float, flight_segments: float, now: float) -> None:
        """A cumulative ACK advanced ``snd_una`` by ``acked_segments``."""
        raise NotImplementedError

    def on_rto(self, flight_segments: float, now: float) -> None:
        """The retransmission timer fired (loss signalled by timeout)."""
        raise NotImplementedError

    def on_fast_retransmit(self, flight_segments: float, now: float) -> None:
        """Triple duplicate ACKs triggered a fast retransmit."""
        raise NotImplementedError

    def on_rtt_sample(self, sample: float, now: float) -> None:
        """A Karn-valid RTT sample was taken (default: ignored)."""


class RenoCC(CongestionController):
    """RFC 5681 Reno — the exact arithmetic the sender used pre-refactor.

    Every expression below is kept operation-for-operation identical to the
    historical inline code so Reno behind the interface is byte-identical
    to the seed's traces (asserted by ``tests/test_transport_identity.py``
    and cmp-enforced in CI).
    """

    name = "reno"

    def on_ack(self, acked_segments: float, flight_segments: float, now: float) -> None:
        if self.cwnd < self.ssthresh:
            self.cwnd = min(self.cwnd + acked_segments, self.p.max_cwnd_segments)
        else:
            self.cwnd = min(
                self.cwnd + acked_segments / max(self.cwnd, 1.0),
                self.p.max_cwnd_segments,
            )

    def on_rto(self, flight_segments: float, now: float) -> None:
        self.ssthresh = max(flight_segments / 2.0, 2.0)
        self.cwnd = 1.0

    def on_fast_retransmit(self, flight_segments: float, now: float) -> None:
        self.ssthresh = max(flight_segments / 2.0, 2.0)
        self.cwnd = self.ssthresh


class CubicCC(CongestionController):
    """RFC 8312-style CUBIC.

    After a loss at window ``w_max`` the window grows along
    ``W(t) = C * (t - K)^3 + w_max`` with ``K = cbrt(w_max * (1-beta) / C)``:
    a fast initial recovery, a plateau near ``w_max``, then probing beyond.
    Slow start below ``ssthresh`` matches Reno.
    """

    name = "cubic"
    C = 0.4
    BETA = 0.7

    def __init__(self, params: Optional[TcpParams] = None):
        super().__init__(params)
        self._w_max: float = 0.0
        self._k: float = 0.0
        self._epoch_start: Optional[float] = None

    def _enter_recovery(self, now: float) -> None:
        self._w_max = max(self.cwnd, 1.0)
        self._k = ((self._w_max * (1.0 - self.BETA)) / self.C) ** (1.0 / 3.0)
        self._epoch_start = None  # restarts on the next congestion-avoidance ACK
        self.ssthresh = max(self.cwnd * self.BETA, 2.0)

    def on_ack(self, acked_segments: float, flight_segments: float, now: float) -> None:
        if self.cwnd < self.ssthresh:
            self.cwnd = min(self.cwnd + acked_segments, self.p.max_cwnd_segments)
            return
        if self._epoch_start is None:
            self._epoch_start = now
            if self._w_max < self.cwnd:
                # No loss yet (or we grew past the old plateau): treat the
                # current window as the origin so W(t) probes upward.
                self._w_max = self.cwnd
                self._k = 0.0
        t = now - self._epoch_start
        target = self.C * (t - self._k) ** 3 + self._w_max
        if target > self.cwnd:
            step = (target - self.cwnd) * (acked_segments / max(self.cwnd, 1.0))
            self.cwnd = min(self.cwnd + step, self.p.max_cwnd_segments)
        else:
            # TCP-friendly floor: creep ~Reno-slow while below the curve.
            self.cwnd = min(
                self.cwnd + 0.01 * acked_segments / max(self.cwnd, 1.0),
                self.p.max_cwnd_segments,
            )

    def on_rto(self, flight_segments: float, now: float) -> None:
        self._enter_recovery(now)
        self.cwnd = 1.0

    def on_fast_retransmit(self, flight_segments: float, now: float) -> None:
        self._enter_recovery(now)
        self.cwnd = self.ssthresh


class BbrLiteCC(CongestionController):
    """A compact BBR model: rate- and RTT-filtered, mostly loss-blind.

    Keeps a windowed minimum of RTT samples and a windowed maximum of ACK
    delivery rate; once both filters have data the window is pinned to
    ``CWND_GAIN * BDP`` (bounded to ``[MIN_CWND, max_cwnd_segments]``).
    Before the filters fill it grows like slow start.  Loss signals barely
    dent it: an RTO floors the window at ``MIN_CWND`` instead of 1 segment
    — which is exactly the behavior the transport-matrix experiment probes
    against the paper's off-channel RTO pathology.

    Invariants (asserted by the unit suite):

    * ``MIN_CWND <= cwnd <= max_cwnd_segments`` always;
    * once the filters have data, ``cwnd <= max(CWND_GAIN * BDP_estimate,
      MIN_CWND)`` — the pacing bound.
    """

    name = "bbr"
    CWND_GAIN = 2.0
    MIN_CWND = 4.0
    RTT_WINDOW_S = 10.0
    BW_SAMPLES = 16

    def __init__(self, params: Optional[TcpParams] = None):
        super().__init__(params)
        self.cwnd = max(self.cwnd, self.MIN_CWND)
        self._rtt_samples: Deque[Tuple[float, float]] = deque()  # (now, rtt)
        self._bw_samples: Deque[float] = deque(maxlen=self.BW_SAMPLES)
        self._last_ack_at: Optional[float] = None

    # -- filters -------------------------------------------------------
    @property
    def min_rtt(self) -> Optional[float]:
        return min((s for _, s in self._rtt_samples), default=None)

    @property
    def btl_bw(self) -> Optional[float]:
        """Max observed delivery rate, segments/second."""
        return max(self._bw_samples, default=None)

    @property
    def bdp(self) -> Optional[float]:
        rtt, bw = self.min_rtt, self.btl_bw
        if rtt is None or bw is None:
            return None
        return bw * rtt

    def on_rtt_sample(self, sample: float, now: float) -> None:
        self._rtt_samples.append((now, sample))
        horizon = now - self.RTT_WINDOW_S
        while self._rtt_samples and self._rtt_samples[0][0] < horizon:
            self._rtt_samples.popleft()

    # -- window --------------------------------------------------------
    def on_ack(self, acked_segments: float, flight_segments: float, now: float) -> None:
        if self._last_ack_at is not None and now > self._last_ack_at:
            self._bw_samples.append(acked_segments / (now - self._last_ack_at))
        self._last_ack_at = now
        bdp = self.bdp
        if bdp is None:
            # Startup: filters empty, grow like slow start.
            self.cwnd = min(self.cwnd + acked_segments, self.p.max_cwnd_segments)
            return
        target = min(
            max(self.CWND_GAIN * bdp, self.MIN_CWND), self.p.max_cwnd_segments
        )
        if target > self.cwnd:
            self.cwnd = min(self.cwnd + acked_segments, target)
        else:
            self.cwnd = target

    def on_rto(self, flight_segments: float, now: float) -> None:
        # BBR is not loss-driven; an RTO merely floors the window (the pipe
        # estimate survives the off-channel gap).
        self.ssthresh = max(flight_segments / 2.0, 2.0)
        self.cwnd = max(min(self.cwnd, self.MIN_CWND), self.MIN_CWND)
        self._last_ack_at = None  # the gap would poison the rate filter

    def on_fast_retransmit(self, flight_segments: float, now: float) -> None:
        self.ssthresh = max(flight_segments / 2.0, 2.0)
        self.cwnd = max(self.cwnd * 0.85, self.MIN_CWND)


class QuicZeroRttCC(RenoCC):
    """QUIC-style transport: Reno window dynamics + 0-RTT resumption.

    The window arithmetic is Reno's; what changes is the join pipeline —
    with this controller selected, a client rejoining an AP it has verified
    before skips the verify phase entirely (see
    :class:`repro.core.link_manager.LinkManager`), modelling a resumed
    QUIC session that needs no connectivity probe before first payload.
    """

    name = "quic0rtt"
    zero_rtt_resume = True


#: Registry of selectable controllers, keyed by CLI/env name.
_CC_REGISTRY: Dict[str, Callable[[Optional[TcpParams]], CongestionController]] = {
    RenoCC.name: RenoCC,
    CubicCC.name: CubicCC,
    BbrLiteCC.name: BbrLiteCC,
    QuicZeroRttCC.name: QuicZeroRttCC,
}

CC_NAMES: Tuple[str, ...] = tuple(_CC_REGISTRY)


def make_controller(
    name: str, params: Optional[TcpParams] = None
) -> CongestionController:
    """Instantiate the controller registered under ``name``."""
    try:
        factory = _CC_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown congestion controller {name!r}; expected one of {CC_NAMES}"
        ) from None
    return factory(params)


_TCP_PARAM_FIELDS = tuple(f.name for f in fields(TcpParams))


@dataclass(frozen=True)
class TransportSpec:
    """Frozen, picklable transport configuration for a world or a flow.

    Folds the :class:`TcpParams` numeric knobs together with the two new
    selections — congestion controller and AP connection-splitting — into
    one value that rides ``ExperimentSpec``/``TownTrialSpec`` envelopes and
    hashes cleanly into the trial cache's canonical token.  The default
    instance reproduces the historical behavior exactly (Reno, no split).
    """

    cc: str = "reno"
    split: bool = False
    mss: int = 1400
    initial_cwnd_segments: float = 2.0
    initial_ssthresh_segments: float = 64.0
    max_cwnd_segments: float = 128.0
    rto_min_s: float = 0.2
    rto_max_s: float = 60.0
    rto_initial_s: float = 1.0
    dupack_threshold: int = 3

    def __post_init__(self) -> None:
        if self.cc not in _CC_REGISTRY:
            raise ValueError(
                f"unknown congestion controller {self.cc!r}; "
                f"expected one of {CC_NAMES}"
            )

    # -- conversions ---------------------------------------------------
    def params(self) -> TcpParams:
        """The :class:`TcpParams` view of the numeric knobs."""
        return TcpParams(**{f: getattr(self, f) for f in _TCP_PARAM_FIELDS})

    def controller(self) -> CongestionController:
        """A fresh controller instance for one sender."""
        return make_controller(self.cc, self.params())

    @property
    def zero_rtt(self) -> bool:
        """True when the selected CC allows 0-RTT join resumption."""
        return bool(getattr(_CC_REGISTRY[self.cc], "zero_rtt_resume", False))


_FALSEY = ("", "0", "false", "no", "off")


def resolve_transport(
    cc: Optional[str] = None, split: Optional[bool] = None
) -> Optional[TransportSpec]:
    """Resolve CLI/env transport selection into a spec, or None.

    ``cc``/``split`` (CLI flags) win over the ``REPRO_CC`` / ``REPRO_SPLIT``
    environment knobs.  Returns ``None`` when nothing was requested so the
    default (Reno, no split, spec unset) produces results byte-identical
    to runs that predate this subsystem.
    """
    if cc is None:
        cc = os.environ.get("REPRO_CC") or None
    if split is None:
        env = os.environ.get("REPRO_SPLIT")
        if env is not None:
            split = env.strip().lower() not in _FALSEY
    if cc is None and split is None:
        return None
    return TransportSpec(cc=cc or "reno", split=bool(split))
