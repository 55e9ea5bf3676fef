"""Wireless medium: channels, range, airtime serialization, and loss.

The model is deliberately at the granularity the paper's analysis needs:

* **Channels** are orthogonal; a frame on channel 6 is invisible on 1 and 11.
* **Airtime** on a channel is serialized FIFO — a transmission begins when the
  channel is free, so stations sharing a channel share its capacity.  This is
  a first-order stand-in for CSMA/CA that preserves the "wireless bandwidth
  Bw is split among users of the channel" behaviour Eq. 8 assumes.  The
  serialization is *global* per channel; pass a
  :class:`~repro.sim.contention.ContentionSpec` to replace it with CSMA/CA
  per-cell spatial reuse (carrier-sense domains, backoff, hidden-terminal
  collisions) for dense multi-cell worlds.
* **Range** is a disk of radius ``range_m`` (the paper assumes 100 m).
* **Loss** is i.i.d. per delivery with probability ``loss_rate`` (the model's
  ``h``) for management-plane frames — beacons, probes, the association
  handshake, DHCP — matching the per-message loss the join model assumes.
  Unicast *data* frames (TCP segments, pings) additionally benefit from
  802.11 link-layer retransmission: their residual loss is
  ``h^(1+retry_limit)`` and their airtime is inflated by the expected
  number of transmissions ``1/(1-h)``.
* **RSSI** follows a log-distance path-loss curve and is reported to
  receivers so AP selection can break ties on signal strength.

Stations are any objects satisfying :class:`Station`; mobile clients and APs
both register with the medium.

Observability: delivered frames are visible to ``delivery_hooks``
subscribers such as :class:`repro.sim.tracing.FrameTrace`; frames killed by
the loss draw never reach the hooks and surface only through the
``medium.drops`` counter in :mod:`repro.obs` (mirroring ``frames_lost``).
"""

from __future__ import annotations

import logging
import math
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Protocol, Tuple

from .contention import ContentionSpec, ContentionState
from .engine import Simulator
from .frames import BROADCAST, Frame, FrameKind

__all__ = [
    "Station",
    "Medium",
    "rssi_from_distance",
    "BACKLOG_WARN_S",
]

logger = logging.getLogger(__name__)

#: Frame kinds that enjoy 802.11 link-layer retransmission (data plane).
_RETRIED_KINDS = frozenset(
    {FrameKind.DATA, FrameKind.PING_REQUEST, FrameKind.PING_REPLY}
)

#: 802.11 retry limit applied to data-plane unicast frames.
DATA_RETRY_LIMIT = 3

#: Per-frame fixed MAC/PHY overhead added to airtime, seconds (preamble,
#: DIFS/SIFS, link-layer ACK).  A round number in the right regime.
FRAME_OVERHEAD_S = 3.0e-4

#: One-way propagation delay, seconds.  Negligible at Wi-Fi ranges but kept
#: non-zero so event ordering between tx and rx is unambiguous.
PROPAGATION_DELAY_S = 1.0e-6

#: A channel backlog (time a new frame waits for the air) beyond this many
#: seconds of sim time indicates the medium is saturated — the dense-world
#: failure mode the contention model exists to fix.  Crossing it bumps the
#: ``medium.backlog_warnings`` counter (once per channel) and logs.
BACKLOG_WARN_S = 1.0

#: Station count from which deliveries resolve receivers through
#: :class:`~repro.sim.medium_vec.VectorIndex`: zero, because every world
#: does — a per-frame candidate walk measured slower than the index's
#: cached broadcast plans at every world size, single-vehicle towns
#: included.  The name stays for readers that compare a world against it.
VECTOR_MIN_STATIONS = 0


def rssi_from_distance(distance_m: float) -> float:
    """Log-distance path-loss RSSI estimate in dBm.

    Calibrated so that ~1 m gives -40 dBm and 100 m (edge of the paper's
    assumed range) gives roughly -90 dBm.
    """
    d = max(distance_m, 1.0)
    return -40.0 - 25.0 * math.log10(d)


class Station(Protocol):
    """What the medium requires of a registered radio endpoint.

    Stations may additionally expose ``is_static = True`` to promise that
    their position *and* tuned channel never change after registration
    (true of access points).  The medium indexes static stations by channel
    and coarse spatial bin so delivery never iterates the whole town.

    A station may also declare ``max_speed_mps``, read when it registers:
    a finite bound on how fast its position can change (Euclidean
    displacement over ``dt`` never exceeds ``max_speed_mps * dt``).  The
    medium trusts a declared bound at every world size — it skips the
    station on a static sender's broadcasts until the station could first
    be in range, and large fleets prune receivers with it — so a station
    that can move faster, or teleport, must declare no bound (absent,
    ``None`` or ``inf``); it is then checked on every frame.
    """

    station_id: str

    def position(self) -> Tuple[float, float]:
        """Current (x, y) coordinates in metres."""
        ...

    def tuned_channel(self) -> Optional[int]:
        """Channel the radio is listening on, or None if off/resetting."""
        ...

    def accepts(self, dst: str) -> bool:
        """True if a unicast frame addressed to ``dst`` is for this station.

        A physical client NIC accepts the MAC of every virtual interface it
        hosts; an AP accepts its BSSID.
        """
        ...

    def on_frame(self, frame: Frame, rssi: float) -> None:
        """Deliver a received frame."""
        ...


class Medium:
    """The shared wireless medium.

    Parameters
    ----------
    sim:
        Owning simulator.
    data_rate_bps:
        Channel bit rate; the paper's Bw = 11 Mb/s by default.
    range_m:
        Radio range (disk model); 100 m per the paper.
    loss_rate:
        i.i.d. per-delivery frame-loss probability ``h``.
    contention:
        CSMA/CA configuration; ``None`` or a disabled spec keeps the
        global per-channel FIFO.
    """

    def __init__(
        self,
        sim: Simulator,
        data_rate_bps: float = 11e6,
        range_m: float = 100.0,
        loss_rate: float = 0.1,
        contention: Optional[ContentionSpec] = None,
    ):
        # ``isfinite`` guards are explicit: ``nan`` slips through plain
        # ``<=`` comparisons (every comparison with nan is False) and
        # ``inf`` satisfies ``> 0``, yet both poison airtime and range
        # arithmetic far from here.
        if not math.isfinite(loss_rate) or not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1): {loss_rate!r}")
        if not math.isfinite(data_rate_bps) or data_rate_bps <= 0:
            raise ValueError(
                f"data_rate_bps must be positive and finite: {data_rate_bps!r}"
            )
        if not math.isfinite(range_m) or range_m <= 0:
            raise ValueError(f"range_m must be positive and finite: {range_m!r}")
        self.sim = sim
        self.data_rate_bps = data_rate_bps
        self.range_m = range_m
        self.loss_rate = loss_rate
        self._one_minus_loss = 1.0 - loss_rate
        self._stations: Dict[str, Station] = {}
        self._busy_until: Dict[int, float] = {}
        self._rng = sim.rng("medium.loss")
        # Optional bursty-loss override (Gilbert–Elliott chain installed by
        # the fault injector).  None means the i.i.d. ``loss_rate`` applies.
        self._bursty = None
        # Spatial cell edge shared by the receiver index and the contention
        # state: with edge >= range_m, any in-range station sits in the 3x3
        # cells around the sender.
        self._bin_m = max(range_m, 1.0)
        # Frame-event batching: instead of one engine event per frame, each
        # channel keeps a FIFO of (deliver_time, sender_id, frame) and a
        # single in-flight drain event.  The drain delivers every queued
        # frame that falls inside the current event horizon (see
        # Simulator.peek_next_event_time) by warping the clock to each
        # frame's true completion time, so back-to-back bursts on a busy
        # channel cost one engine event instead of one per frame while
        # remaining byte-identical to per-frame scheduling.
        # Per-channel [pending deque of (deliver_time, sender_id, frame),
        # drain-event-in-flight flag] — one dict lookup on the transmit
        # hot path covers both.
        self._chan_state: Dict[int, List] = {}
        #: Optional observers called as fn(frame, receiver_id) on delivery.
        self.delivery_hooks: List[Callable[[Frame, str], None]] = []
        self.frames_sent = 0
        self.frames_delivered = 0
        self.frames_lost = 0
        # Lost frames never reach delivery_hooks, so FrameTrace
        # (sim/tracing.py) cannot see them; the obs counter is the only
        # place drops surface.  Cached here so the disabled path pays a
        # single no-op call on the (rare) loss branch.
        self._obs_drops = sim.telemetry.counter("medium.drops")
        # Channel backlog diagnosis: ``channel_busy_until`` was consulted
        # internally but never exposed, so a saturated channel (the dense
        # world's 10+ s beacon backlogs) was invisible from telemetry.  The
        # gauge tracks the high-water wait a frame saw before its airtime
        # began; the counter trips once per channel past BACKLOG_WARN_S.
        # Both are created unconditionally (like ``medium.drops``) so every
        # telemetry export carries them and A/B runs stay byte-comparable.
        self._obs_backlog = sim.telemetry.gauge("medium.backlog_s")
        self._obs_backlog_warnings = sim.telemetry.counter("medium.backlog_warnings")
        self._backlog_warned: set = set()
        # Largest backlog noted so far: a smaller wait cannot move the
        # gauge, so ``transmit`` skips the call for it.
        self._backlog_high = 0.0
        # Receiver resolution (repro.sim.medium_vec): cached broadcast
        # plans, a BSSID index and mobile horizons or snapshots, answering
        # with the exact receivers in registration order so the draw loops
        # below consume the loss stream exactly like a walk over every
        # station.  Built through the module attribute so tests can
        # install a reference walk in its place.  The fallback counter is
        # created unconditionally so every telemetry export carries it; it
        # is nondeterministic because its value reflects the host's
        # installed packages, not the seed.
        from . import medium_vec

        fallbacks = sim.telemetry.counter(
            "medium.vector_fallbacks", deterministic=False
        )
        if medium_vec._np is None:
            fallbacks.inc()  # no numpy: large fleets lose the mobile snapshot
        self._vec = medium_vec.VectorIndex(self)
        # CSMA/CA contention with per-cell spatial reuse (see
        # repro.sim.contention).  Built last: the state machine reuses the
        # spatial binning configured above.  ``None`` and a disabled spec
        # are byte-identical — the state (and its dedicated RNG stream)
        # only exists when the model is actually on.
        self.contention_spec = contention
        self.contention: Optional[ContentionState] = None
        if contention is not None and contention.enabled:
            self.contention = ContentionState(self, contention)
        #: Frames destroyed by hidden-terminal collisions (contention mode
        #: only; mirrored by the ``contention.collisions`` obs counter).
        self.frames_collided = 0
        # Contention mode models each sender as a NIC with a FIFO transmit
        # queue whose *head* frame contends for the air; frames arriving
        # while the head is contending or in flight wait their turn.  A
        # sender_id key exists exactly while that sender has a head frame
        # outstanding.  (The legacy path needs none of this — its global
        # per-channel FIFO orders everything.)
        self._tx_queues: Dict[str, Deque[Frame]] = {}
        # Head frame currently *deferring* (contending but not yet
        # granted), per sender.  A management frame may preempt a
        # deferring data head — the NIC's internal priority scheduler —
        # whereas a granted head is already on the air and cannot be
        # recalled.
        self._tx_contending: Dict[str, Frame] = {}
        # Per-sender contention-chain generation, bumped on every
        # _transmit_contended entry.  Pending retry events carry the
        # generation they were scheduled under and no-op on mismatch.
        # Frame identity is not enough: a preempted head can be
        # re-promoted from the queue and defer again *before* its old
        # retry event fires, and that event would then see the same
        # frame object contending and fork a second concurrent chain.
        # Entries are never removed — monotonicity is the safety
        # property, and a re-registered sender id must not restart at a
        # generation an orphaned event might still carry.
        self._tx_gen: Dict[str, int] = {}

    @property
    def vector_delivery(self) -> bool:
        """Always True: every delivery resolves receivers through the index.

        Kept for callers that record which delivery path a world took.
        """
        return True

    # ------------------------------------------------------------------
    def register(self, station: Station) -> None:
        """Add a station; id collisions are programming errors."""
        if station.station_id in self._stations:
            raise ValueError(f"duplicate station id {station.station_id!r}")
        self._stations[station.station_id] = station
        self._vec.add(station)

    def unregister(self, station_id: str) -> None:
        """Remove a station from the medium."""
        if self._stations.pop(station_id, None) is not None:
            self._vec.remove(station_id)

    def stations(self) -> List[Station]:
        """All registered stations."""
        return list(self._stations.values())

    # ------------------------------------------------------------------
    def _is_retried(self, frame: Frame) -> bool:
        # Identity comparisons: enum members are singletons and the
        # frozenset-membership version spent measurable time in
        # ``Enum.__hash__`` on the delivery hot path.
        kind = frame.kind
        return (
            kind is FrameKind.DATA
            or kind is FrameKind.PING_REQUEST
            or kind is FrameKind.PING_REPLY
        ) and frame.dst != BROADCAST

    def airtime(self, frame: Frame) -> float:
        """Seconds of channel time a frame occupies.

        Data-plane unicast frames include the expected cost of link-layer
        retransmissions (``1/(1-h)`` transmissions on average).
        """
        base = frame.size * 8.0 / self.data_rate_bps + FRAME_OVERHEAD_S
        kind = frame.kind
        if (
            self.loss_rate > 0.0
            and (
                kind is FrameKind.DATA
                or kind is FrameKind.PING_REQUEST
                or kind is FrameKind.PING_REPLY
            )
            and frame.dst != BROADCAST
        ):
            # Division (not multiply-by-reciprocal) keeps the result
            # bit-identical to the historical ``base / (1 - h)``.
            return base / self._one_minus_loss
        return base

    def delivery_loss_probability(self, frame: Frame) -> float:
        """Residual loss probability after any link-layer retries.

        Reports the *stationary* (i.i.d. ``loss_rate``) figure; when a
        bursty model is installed the delivery path evaluates the
        time-varying rate via :meth:`_effective_loss` instead.
        """
        if self._is_retried(frame):
            return self.loss_rate ** (1 + DATA_RETRY_LIMIT)
        return self.loss_rate

    # ------------------------------------------------------------------
    # Bursty-loss override (fault injection)
    # ------------------------------------------------------------------
    def set_bursty_loss(self, model) -> None:
        """Route per-delivery loss through ``model.loss_rate_at(now)``.

        ``airtime`` keeps using the stationary ``loss_rate`` (it models the
        *average* retry cost); only the delivery coin-flip goes bursty.
        """
        self._bursty = model

    def clear_bursty_loss(self) -> None:
        """Return to the i.i.d. ``loss_rate`` model."""
        self._bursty = None

    @property
    def bursty_loss(self):
        """The installed bursty-loss model, if any."""
        return self._bursty

    def _effective_loss(self, frame: Frame) -> float:
        if self._bursty is None:
            h = self.loss_rate
        else:
            h = self._bursty.loss_rate_at(self.sim.now)
        kind = frame.kind
        if (
            kind is FrameKind.DATA
            or kind is FrameKind.PING_REQUEST
            or kind is FrameKind.PING_REPLY
        ) and frame.dst != BROADCAST:
            return h ** (1 + DATA_RETRY_LIMIT)
        return h

    def channel_busy_until(self, channel: int) -> float:
        """Absolute time the channel's current transmissions end.

        Under contention this is the latest busy horizon over the
        channel's carrier-sense cells — a diagnosis aid, not a sense
        point (sensing is per-cell).
        """
        if self.contention is not None:
            return self.contention.busy_until(channel)
        return self._busy_until.get(channel, 0.0)

    def _note_backlog(self, channel: int, wait_s: float) -> None:
        """Record the airtime wait a frame saw before transmitting."""
        if wait_s > self._backlog_high:
            self._backlog_high = wait_s
            self._obs_backlog.set_max(wait_s)
        if wait_s > BACKLOG_WARN_S and channel not in self._backlog_warned:
            self._backlog_warned.add(channel)
            self._obs_backlog_warnings.inc()
            logger.warning(
                "channel %d backlog %.2fs of sim time exceeds %.1fs: "
                "the medium is saturated (consider the contention model)",
                channel,
                wait_s,
                BACKLOG_WARN_S,
            )

    def transmit(self, sender: Station, frame: Frame) -> float:
        """Queue a frame for transmission on ``frame.channel``.

        Without contention, returns the absolute time at which the
        transmission completes.  The channel is serialized: the frame
        starts when the channel frees up.  Delivery (including the
        in-range and tuned checks) happens at completion time, so
        stations that moved away or retuned mid-flight miss the frame —
        exactly the hazard the join model studies.

        With contention enabled, serialization is per carrier-sense cell
        instead of global: the frame contends via CSMA/CA (DIFS + slotted
        backoff), may collide with hidden terminals, and is scheduled as
        its own engine event — concurrent cells complete out of FIFO
        order, which the per-channel drain queue cannot represent.  The
        completion time is then unknowable at transmit time (it depends
        on future backoff draws and queue preemption), so the return
        value is only a lower-bound *estimate* — do not pace off it.
        """
        now = self.sim.now
        channel = frame.channel
        if self.contention is not None:
            queue = self._tx_queues.get(sender.station_id)
            if queue is not None:
                # A frame from this sender is already contending or in
                # flight: queue behind it (one head frame per NIC, like
                # real hardware — also what keeps a TCP burst in order).
                # Management frames jump ahead of queued data (WMM-style
                # access categories): an AP mid-download must still answer
                # probes and handshakes before draining a ~30 ms TCP
                # burst, or every join under load times out.
                kind = frame.kind
                if (
                    kind is FrameKind.DATA
                    or kind is FrameKind.PING_REQUEST
                    or kind is FrameKind.PING_REPLY
                ):
                    queue.append(frame)
                    return now + self.airtime(frame)
                index = len(queue)
                for i, queued in enumerate(queue):
                    qk = queued.kind
                    if (
                        qk is FrameKind.DATA
                        or qk is FrameKind.PING_REQUEST
                        or qk is FrameKind.PING_REPLY
                    ):
                        index = i
                        break
                head = self._tx_contending.get(sender.station_id)
                hk = head.kind if head is not None else None
                if (
                    hk is FrameKind.DATA
                    or hk is FrameKind.PING_REQUEST
                    or hk is FrameKind.PING_REPLY
                ):
                    # The head is a data frame still *deferring* (its
                    # airtime is not booked): preempt it.  The handshake
                    # contends now (bumping the sender's chain
                    # generation, which orphans the data head's pending
                    # retry event); the data frame re-queues ahead of
                    # the other data.  A granted head is on the air and
                    # cannot be recalled.
                    queue.insert(index, head)
                    return self._transmit_contended(sender, frame, now)
                queue.insert(index, frame)
                return now + self.airtime(frame)
            self._tx_queues[sender.station_id] = deque()
            return self._transmit_contended(sender, frame, now)
        start = max(now, self._busy_until.get(channel, 0.0))
        done = start + self.airtime(frame)
        self._busy_until[channel] = done
        self.frames_sent += 1
        wait = start - now
        if wait > self._backlog_high or wait > BACKLOG_WARN_S:
            self._note_backlog(channel, wait)
        deliver_at = done + PROPAGATION_DELAY_S
        state = self._chan_state.get(channel)
        if state is None:
            state = self._chan_state[channel] = [deque(), False]
        state[0].append((deliver_at, sender.station_id, frame))
        if not state[1]:
            # The drain event is scheduled eagerly at transmit time so its
            # heap position (and hence same-instant tie-breaking) matches
            # the per-frame event a one-event-per-frame medium would create.
            state[1] = True
            self.sim.schedule_fire(deliver_at, self._drain, channel)
        return done

    def _drain(self, channel: int) -> None:
        """Deliver queued frames for ``channel`` up to the event horizon.

        Frames are delivered strictly in completion-time order with the
        clock warped to each frame's own arrival time, so receivers observe
        positions, tuned channels, and timestamps exactly as they would
        under per-frame scheduling.  The loop stops at the first frame due
        beyond the horizon — the next live engine event or the active
        ``run(until=...)`` bound — because state may change there; a
        follow-up drain is scheduled for that frame instead.
        """
        state = self._chan_state[channel]
        pending = state[0]
        sim = self.sim
        first = True
        while pending:
            deliver_at = pending[0][0]
            if deliver_at > sim.now:
                # The horizon is re-read every iteration: a delivery's
                # callbacks may have scheduled new events inside the span
                # we measured before.
                horizon = sim.peek_next_event_time()
                bound = sim.run_until_bound()
                if bound < horizon:
                    horizon = bound
                if deliver_at > horizon:
                    sim.schedule_fire(deliver_at, self._drain, channel)
                    return
                sim.advance_clock(deliver_at)
            _, sender_id, frame = pending.popleft()
            if first:
                first = False  # the dispatching engine event counted itself
            else:
                sim.count_logical_event()
            self._deliver(sender_id, frame)
        state[1] = False

    def _transmit_contended(
        self,
        sender: Station,
        frame: Frame,
        first_attempt_s: float,
        airtime: Optional[float] = None,
        priority: bool = False,
    ) -> float:
        """CSMA/CA transmit for a sender's head frame: book or retry.

        An idle-medium grant books the frame's airtime and schedules its
        delivery; a busy medium books nothing and schedules a fresh
        attempt (re-sensing at the sender's then-current position) when
        the sensed air frees up.  ``first_attempt_s`` rides along so the
        backlog gauge reports the wait since the frame *first* tried,
        across every retry.  Each entry here starts a new contention
        chain for the sender: the generation bump invalidates any retry
        event still pending from a previous chain.  Returns the
        (possibly estimated) completion time; callers ignore it.
        """
        sender_id = sender.station_id
        gen = self._tx_gen.get(sender_id, 0) + 1
        self._tx_gen[sender_id] = gen
        sx, sy = sender.position()
        if airtime is None:
            # Computed once per frame and carried through every retry —
            # frame size never changes mid-chain.  (The position *is*
            # re-read per attempt: the sender may have moved.)
            airtime = self.airtime(frame)
            kind = frame.kind
            priority = not (
                kind is FrameKind.DATA
                or kind is FrameKind.PING_REQUEST
                or kind is FrameKind.PING_REPLY
            )
        granted, a, b = self.contention.acquire(
            sender_id, frame.channel, sx, sy, airtime, priority=priority
        )
        if not granted:
            self._tx_contending[sender_id] = frame
            # Fire-and-forget: stale retries are invalidated by the
            # generation token, never cancelled, so no handle is needed.
            self.sim.schedule_fire(
                a,
                self._retry_contended,
                sender_id,
                frame,
                first_attempt_s,
                gen,
                airtime,
                priority,
            )
            return a + airtime
        self._tx_contending.pop(sender_id, None)
        start, done = a, b
        self.frames_sent += 1
        if start > first_attempt_s:
            self._note_backlog(frame.channel, start - first_attempt_s)
        self.sim.schedule_fire(
            done + PROPAGATION_DELAY_S,
            self._deliver_contended,
            sender_id,
            frame,
            start,
            done,
        )
        return done

    def _retry_contended(
        self,
        sender_id: str,
        frame: Frame,
        first_attempt_s: float,
        gen: int,
        airtime: Optional[float] = None,
        priority: bool = False,
    ) -> None:
        """Re-contend for a deferred head frame."""
        if self._tx_gen.get(sender_id) != gen:
            # The sender's chain moved on while this retry sat in the
            # heap — a management frame preempted the head (it went back
            # into the queue), or the head was already re-promoted and
            # is contending under a newer generation.  Frame identity
            # cannot distinguish those cases (the same frame object may
            # legitimately be deferring again), so stale events check
            # the generation and no-op.
            return
        sender = self._stations.get(sender_id)
        if sender is None:
            # Sender vanished while waiting (e.g., torn down): its queued
            # frames die with it.
            self._tx_queues.pop(sender_id, None)
            self._tx_contending.pop(sender_id, None)
            return
        self._transmit_contended(sender, frame, first_attempt_s, airtime, priority)

    def _advance_tx_queue(self, sender_id: str) -> None:
        """The head frame finished: promote the next queued frame, if any."""
        queue = self._tx_queues.get(sender_id)
        if queue is None:
            return
        if not queue:
            del self._tx_queues[sender_id]
            return
        sender = self._stations.get(sender_id)
        if sender is None:
            del self._tx_queues[sender_id]
            return
        self._transmit_contended(sender, queue.popleft(), self.sim.now)

    def _deliver_contended(
        self, sender_id: str, frame: Frame, start: float, done: float
    ) -> None:
        """Delivery tail for the contention path: :meth:`_deliver` plus
        the receiver-side hidden-terminal check.

        A receiver whose own cell saw a foreign flight overlap
        ``[start, done)`` misses the frame without consuming a loss draw —
        interference destroyed it before channel noise got a say.
        Receivers outside the interferer's footprint still hear it.  A
        unicast frame whose destination was wiped fails exactly like an
        out-of-range one (the ACK never comes back), and additionally
        widens the sender's contention window.  The survivor rows carry
        each receiver's position and exact distance, which is all the
        per-receiver interference geometry needs.
        """
        sender = self._stations.get(sender_id)
        if sender is None:
            # Sender vanished mid-flight (e.g., torn down): its queued
            # frames die with it.
            self._tx_queues.pop(sender_id, None)
            self._tx_contending.pop(sender_id, None)
            return
        contention = self.contention
        channel = frame.channel
        broadcast = frame.dst == BROADCAST
        sx, sy = sender.position()
        survivors = self._vec.survivors(sender_id, frame, sx, sy)
        loss_p = self._effective_loss(frame)
        rng_random = self._rng.random
        hooks = self.delivery_hooks
        beacon = frame.kind is FrameKind.BEACON
        # Flags are precomputed per delivery (one batched state call):
        # they consume no randomness and mid-delivery bookings can never
        # overlap this delivery, so the early evaluation is invisible to
        # the draw stream.
        wiped = (
            contention.interfered_rows(sender_id, channel, survivors, start, done)
            if survivors
            else ()
        )
        receiver_reachable = False
        interfered_any = False
        for hit, (_seq, station, rssi, ignores_beacons, _rx, _ry, _dist) in zip(
            wiped, survivors
        ):
            if hit:
                interfered_any = True
                continue
            receiver_reachable = True
            if rng_random() < loss_p:
                self.frames_lost += 1
                self._obs_drops.inc()
                continue
            self.frames_delivered += 1
            for hook in hooks:
                hook(frame, station.station_id)
            if beacon and ignores_beacons:
                continue
            station.on_frame(frame, rssi)
        if interfered_any:
            self.frames_collided += 1
            contention.note_collision(
                sender_id, frame_failed=not broadcast and not receiver_reachable
            )
        if not broadcast and not receiver_reachable:
            failed = getattr(sender, "on_delivery_failed", None)
            if failed is not None:
                failed(frame)
        self._advance_tx_queue(sender_id)

    def _deliver(self, sender_id: str, frame: Frame) -> None:
        """Hand a frame to its receivers at its completion time.

        :meth:`VectorIndex.survivors` resolves the receivers, in
        registration order; each takes one loss draw from the
        ``medium.loss`` stream, interleaved with the receiver callbacks.
        Beacon deliveries to stations declaring ``ignores_beacons`` skip
        the no-op ``on_frame`` call — counters, hooks and the loss draw
        still happen, keeping every observable identical.
        """
        sender = self._stations.get(sender_id)
        if sender is None:
            return  # sender vanished mid-flight (e.g., torn down)
        sx, sy = sender.position()
        survivors = self._vec.survivors(sender_id, frame, sx, sy)
        loss_p = self._effective_loss(frame)
        rng_random = self._rng.random
        hooks = self.delivery_hooks
        beacon = frame.kind is FrameKind.BEACON
        lost = 0
        for _seq, station, rssi, ignores_beacons, _rx, _ry, _dist in survivors:
            if rng_random() < loss_p:
                lost += 1
                continue
            if hooks:
                for hook in hooks:
                    hook(frame, station.station_id)
            if beacon and ignores_beacons:
                continue
            station.on_frame(frame, rssi)
        self.frames_delivered += len(survivors) - lost
        if lost:
            self.frames_lost += lost
            self._obs_drops.inc(lost)
        if not survivors and frame.dst != BROADCAST:
            # No eligible receiver: the link-layer ACK never comes back.
            # Senders that care (APs re-queueing toward sleeping clients)
            # implement on_delivery_failed.
            failed = getattr(sender, "on_delivery_failed", None)
            if failed is not None:
                failed(frame)
