"""CSMA/CA contention with per-cell spatial airtime reuse.

The base :class:`~repro.sim.radio.Medium` serializes airtime *globally*
per channel — every co-channel station in the world shares one FIFO, so
the ``city`` world saturates on beacon load alone (10+ s channel
backlogs, starved joins, ~0 goodput).  Real 802.11 serializes only
within a carrier-sense domain: two APs ten blocks apart reuse the same
channel concurrently, which is what makes dense-urban deployments work
at all (cf. "Modeling Multi-Cell IEEE 802.11 WLANs with Application to
Channel Assignment", PAPERS.md).

This module supplies that model as an opt-in layer on the medium:

* **Carrier-sense domains** reuse the medium's per-channel spatial bins
  (cell edge = ``range_m``): a sender senses the busy horizon of its 3x3
  cell neighbourhood (802.11's sense range exceeds its data range) but
  busy-marks only its *own* cell, so nearby stations serialize while
  distant cells transmit concurrently and busy horizons stay bounded by
  local load.  A per-channel grid of sensed horizons (booking writes the
  3x3 footprint) makes a sense one cell read: O(1), never O(world).
* **Slotted binary-exponential backoff**: every access attempt pays DIFS
  plus a uniform draw from ``[0, cw)`` slots off the dedicated seeded
  ``medium.contention`` stream.  A busy medium defers the sender to the
  sensed release plus a fresh backoff, where it re-contends from
  scratch; waiters and new arrivals race backoff-ordered for each idle
  period (DCF's fairness), so nobody reserves future airtime and busy
  horizons stay one frame deep.  A station's ``cw`` doubles (up to
  ``cw_max``) when its unicast frame was wiped by interference (the
  missed-ACK signal) and resets to ``cw_min`` on an idle grant.
* **Hidden-terminal collisions are receiver-side**: senders too far
  apart to sense each other may still cover a common receiver.  Each
  granted flight is recorded once, under its sender's cell; at delivery
  time each candidate receiver checks the flights sent from the 3x3
  cells around *its own* cell for a foreign one overlapping the frame's
  airtime and, when one exists, misses the frame (no loss draw is
  consumed — the frame was destroyed by interference, not channel
  noise).  Receivers outside the interferer's footprint still hear the
  frame, so one hidden terminal damages a pocket of the coverage area
  rather than the whole transmission.  The sense grid gates the scan: a
  cell's sensed horizon is already the latest end of any flight sent
  from its neighbourhood, and the grid also keeps who set it and the
  runner-up, so a receiver cell whose latest foreign flight ended by the
  frame's start is clean after one read.  Each delivery screens the
  remaining cells' flights once (foreign sender, overlapping airtime)
  and re-checks only the survivors' positions per receiver.  A unicast
  sender whose destination was wiped gets the missing-ACK signal and
  doubles its window.
* **Accounting**: per-channel and per-sender airtime, deferral, and
  collision tallies, plus :mod:`repro.obs` counters and an
  :meth:`ContentionState.export_telemetry` hook that publishes per-AP /
  per-channel airtime-share and collision-rate gauges.

The layer is **off by default**.  ``ContentionSpec(enabled=False)`` (what
``--contention off`` builds) and the absent spec are byte-identical: the
``medium.contention`` RNG stream is only created when the model engages,
so default runs consume randomness exactly as before.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from time import perf_counter
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (radio imports us)
    from .radio import Medium, Station
    from .frames import Frame

__all__ = [
    "ContentionSpec",
    "ContentionState",
    "resolve_contention",
    "DEFAULT_SLOT_TIME_S",
    "DEFAULT_DIFS_S",
]

#: 802.11b slot time (long preamble), seconds.
DEFAULT_SLOT_TIME_S = 20e-6

#: DCF inter-frame space for 802.11b, seconds.
DEFAULT_DIFS_S = 50e-6

_FALSEY = ("0", "false", "no", "off")
_TRUTHY = ("1", "true", "yes", "on", "csma")

#: Cells shorter than this skip the expired-flight prune on booking; the
#: overlap predicates already exclude stale flights (see _record), so the
#: only cost of keeping them briefly is a slightly longer exact scan.
_PRUNE_MIN = 16


@dataclass(frozen=True)
class ContentionSpec:
    """Frozen, picklable contention configuration for a world.

    Carried on ``ExperimentSpec`` and, inside a
    :class:`~repro.sim.world.StackSpec`, down to the
    :class:`~repro.sim.radio.Medium` (hashing cleanly into the trial
    cache's canonical token).  ``enabled=False`` keeps the
    historical global-FIFO medium byte-identical to runs that predate the
    subsystem; ``beacon_stagger`` independently switches APs to per-BSSID
    seeded beacon phases (see :class:`~repro.sim.ap.AccessPoint`).
    """

    enabled: bool = True
    slot_time_s: float = DEFAULT_SLOT_TIME_S
    difs_s: float = DEFAULT_DIFS_S
    cw_min: int = 16
    cw_max: int = 1024
    #: EDCA-style priority access for management frames (beacons, probes,
    #: association/DHCP handshakes): they contend with this shorter
    #: inter-frame space (PIFS < DIFS) and a small *fixed* window
    #: ``cw_mgmt``, so a deferred handshake wakes earlier than deferred
    #: data senders and wins the next idle period far more often.  Without
    #: this, TCP bursts from saturated cells starve the very joins that
    #: Spider's control plane depends on.
    pifs_s: float = 30e-6
    cw_mgmt: int = 8
    #: Physical-layer capture: a receiver decodes its frame through an
    #: overlapping transmission when the interferer is at least this many
    #: times *farther* away than the wanted sender (~10 dB SIR at the
    #: medium's 25 dB/decade path loss).  Interference therefore wipes a
    #: receiver only when the interferer sits within ``capture_ratio``
    #: times the sender distance (and within radio range at all).
    capture_ratio: float = 2.5
    beacon_stagger: bool = False

    def __post_init__(self) -> None:
        for name in ("cw_min", "cw_max", "cw_mgmt"):
            # Windows are slot counts and the backoff draw needs a Python
            # int: a float passes the range checks below and fails only
            # at the first draw that uses it.
            value = getattr(self, name)
            if type(value) is not int:
                raise ValueError(f"{name} must be an int: {value!r}")
        if not math.isfinite(self.slot_time_s) or self.slot_time_s <= 0:
            raise ValueError(f"slot_time_s must be positive: {self.slot_time_s!r}")
        if not math.isfinite(self.difs_s) or self.difs_s < 0:
            raise ValueError(f"difs_s must be non-negative: {self.difs_s!r}")
        if not math.isfinite(self.pifs_s) or self.pifs_s < 0:
            raise ValueError(f"pifs_s must be non-negative: {self.pifs_s!r}")
        if self.cw_mgmt < 1:
            raise ValueError(f"cw_mgmt must be >= 1: {self.cw_mgmt!r}")
        if not self.capture_ratio >= 1.0:  # also rejects nan
            raise ValueError(f"capture_ratio must be >= 1: {self.capture_ratio!r}")
        if self.cw_min < 1:
            raise ValueError(f"cw_min must be >= 1: {self.cw_min!r}")
        if self.cw_max < self.cw_min:
            raise ValueError(
                f"cw_max ({self.cw_max!r}) must be >= cw_min ({self.cw_min!r})"
            )


def resolve_contention(mode: Optional[str] = None) -> Optional[ContentionSpec]:
    """Resolve the ``--contention`` flag into a spec, or ``None``.

    Accepted tokens (comma-separable): ``on``/``1``/
    ``true``/``yes``/``csma`` enable the CSMA/CA model, ``off``/``0``/
    ``false``/``no`` disable it, ``stagger`` additionally staggers beacon
    phases per AP.  ``stagger`` is a modifier, not a mode: it must be
    paired with an explicit on/off token (``on,stagger`` for CSMA/CA
    plus stagger, ``off,stagger`` for stagger alone) so asking for
    beacon stagger never switches the whole contention model on as a
    side effect.  Returns ``None`` when nothing was requested so the
    default path stays byte-identical to runs predating the subsystem.
    """
    text = (mode or "").strip().lower()
    if not text:
        return None
    enabled: Optional[bool] = None
    stagger = False
    for token in text.split(","):
        token = token.strip()
        if token in _FALSEY:
            enabled = False
        elif token in _TRUTHY:
            enabled = True
        elif token == "stagger":
            stagger = True
        else:
            raise ValueError(
                f"bad contention mode {token!r}; expected on/off/stagger "
                "(comma-separable)"
            )
    if enabled is None:
        # Only reachable for a bare "stagger": without an explicit
        # on/off it is ambiguous whether CSMA/CA itself was requested,
        # and ContentionSpec documents the two as independent.
        raise ValueError(
            "'stagger' is a modifier; pair it with on/off "
            "('on,stagger' or 'off,stagger')"
        )
    return ContentionSpec(enabled=enabled, beacon_stagger=stagger)


#: One in-flight transmission: (start, end, sender_id, x, y).  The
#: transmit position feeds the receiver-side capture check.
_Flight = Tuple[float, float, str, float, float]

#: Cells beyond a sense grid's edge trigger a regrow with this much
#: padding on the far side, so a fleet sweeping along a loop reallocates
#: rarely.
_GRID_PAD = 8


class _SenseGrid:
    """One channel's dense grid of *sensed* busy horizons.

    ``rows[cx - x0][cy - y0]`` holds the horizon any station in cell
    ``(cx, cy)`` senses: the latest ``done`` of any flight whose sender
    cell lies in its 3x3 neighbourhood.  Booking writes ``max(cell,
    done)`` over the 3x3 footprint, so sensing reads exactly one element;
    bookings are ~4x rarer than senses in contended city runs (most
    acquires defer), so the neighbourhood work sits on the cheaper side.
    ``horizon`` is the channel-wide max, which makes ``busy_until`` O(1).

    Each cell also keeps ``owners`` (the sender whose flight set its
    horizon) and ``seconds`` (the latest ``done`` of any *other*
    sender's flight in the neighbourhood), so :meth:`foreign` answers
    "when does the last flight not sent by ``sender_id`` end?" in one
    read — the hidden-terminal scan's gate.

    The backing store is nested Python lists: access is always a single
    scalar element, where list indexing beats any array read and yields
    genuine Python floats.  The grid grows on demand with padding; cells
    outside it are idle air (0.0).
    """

    __slots__ = ("x0", "y0", "w", "h", "rows", "owners", "seconds", "horizon")

    def __init__(self, cx: int, cy: int) -> None:
        self.x0 = cx - _GRID_PAD
        self.y0 = cy - _GRID_PAD
        side = 2 * _GRID_PAD + 1
        self.w = side
        self.h = side
        self.rows = [[0.0] * side for _ in range(side)]
        self.owners: List[List[Optional[str]]] = [[None] * side for _ in range(side)]
        self.seconds = [[0.0] * side for _ in range(side)]
        self.horizon = 0.0

    def book(self, cx: int, cy: int, done: float, sender_id: str) -> None:
        ix = cx - self.x0
        iy = cy - self.y0
        if not (1 <= ix < self.w - 1 and 1 <= iy < self.h - 1):
            self._grow(cx, cy)
            ix = cx - self.x0
            iy = cy - self.y0
        rows = self.rows
        owners = self.owners
        seconds = self.seconds
        for i in (ix - 1, ix, ix + 1):
            row = rows[i]
            own = owners[i]
            sec = seconds[i]
            for j in (iy - 1, iy, iy + 1):
                top = row[j]
                if done > top:
                    if own[j] != sender_id:
                        # A new owner: the old one's horizon is now the
                        # latest flight by anyone else (it bounds the old
                        # runner-up).
                        sec[j] = top
                        own[j] = sender_id
                    row[j] = done
                elif own[j] != sender_id and done > sec[j]:
                    sec[j] = done
        if done > self.horizon:
            self.horizon = done

    def foreign(self, cx: int, cy: int, sender_id: str) -> float:
        """Latest ``done`` over cell ``(cx, cy)``'s neighbourhood flights
        not sent by ``sender_id`` (0.0 outside the grid)."""
        ix = cx - self.x0
        iy = cy - self.y0
        if 0 <= ix < self.w and 0 <= iy < self.h:
            if self.owners[ix][iy] == sender_id:
                return self.seconds[ix][iy]
            return self.rows[ix][iy]
        return 0.0

    def _grow(self, cx: int, cy: int) -> None:
        """Reallocate to cover ``(cx, cy)`` with a 1-cell write margin."""
        x0 = min(self.x0, cx - _GRID_PAD)
        y0 = min(self.y0, cy - _GRID_PAD)
        x1 = max(self.x0 + self.w, cx + _GRID_PAD + 1)
        y1 = max(self.y0 + self.h, cy + _GRID_PAD + 1)
        w = x1 - x0
        h = y1 - y0
        ox = self.x0 - x0
        oy = self.y0 - y0

        def regrown(old, fill):
            new = [[fill] * h for _ in range(w)]
            for i, old_row in enumerate(old):
                new[ox + i][oy : oy + self.h] = old_row
            return new

        self.rows = regrown(self.rows, 0.0)
        self.owners = regrown(self.owners, None)
        self.seconds = regrown(self.seconds, 0.0)
        self.x0 = x0
        self.y0 = y0
        self.w = w
        self.h = h


class ContentionState:
    """Per-medium CSMA/CA machinery (only built when the model is on).

    The medium calls :meth:`acquire` instead of consulting its global
    ``_busy_until`` FIFO; everything here is keyed by the medium's own
    ``(channel, cell)`` bins so domain work stays O(cell).

    Carrier sense reads one cell of a per-channel :class:`_SenseGrid`.
    Each granted flight is recorded once, under its sender's cell
    (:meth:`_record`).  The hidden-terminal scan first reads a receiver
    cell's foreign horizon off the same grid; only when a foreign flight
    in its neighbourhood ends after the delivery's start does it gather
    the flights of the 3x3 sender cells around it (:meth:`_screened`),
    and it confirms the survivors per receiver with the exact capture
    predicate.
    """

    def __init__(self, medium: "Medium", spec: ContentionSpec):
        self.medium = medium
        self.spec = spec
        self.sim = medium.sim
        #: Dedicated stream: created lazily *here* so contention-off runs
        #: never touch it and stay byte-identical to the seed.
        self._rng = medium.sim.rng("medium.contention")
        self._bin_m = medium._bin_m
        #: channel -> sense grid (built on first booking).
        self._grids: Dict[int, _SenseGrid] = {}
        #: (channel, cx, cy) -> flights granted to senders in that cell.
        self._inflight: Dict[Tuple[int, int, int], List[_Flight]] = {}
        #: One delivery's screened flight scans: the key identifies the
        #: delivery, the dict maps receiver cells to the positions of their
        #: foreign overlapping flights.
        self._scan_key: Optional[Tuple[int, str, float, float]] = None
        self._scan_cells: Dict[Tuple[int, int], List[Tuple[float, float]]] = {}
        #: Per-sender contention window (absent -> ``cw_min``).
        self._cw: Dict[str, int] = {}
        # Hot-path caches: ``acquire`` runs a few hundred thousand times
        # per contended city trial, so the frozen spec's fields and the
        # RNG's bound method are hoisted out of the per-call attribute
        # chains.
        self._slot_s = spec.slot_time_s
        self._difs_s = spec.difs_s
        self._pifs_s = spec.pifs_s
        self._cw_min = spec.cw_min
        self._cw_mgmt = spec.cw_mgmt
        # ``randrange(cw)`` with a positive int ``cw`` reduces to
        # ``_randbelow(cw)`` after argument normalisation; binding the
        # inner method draws the identical bit stream while skipping the
        # wrapper frame on every backoff draw.
        self._randrange = self._rng._randbelow
        #: Largest airtime granted so far; bounds how long a finished
        #: flight can still matter to a pending delivery's overlap check.
        self._max_airtime = 0.0
        # -- deterministic accounting (pure functions of the sim) --------
        self.grants = 0
        self.deferrals = 0
        self.collisions = 0
        self.airtime_s_by_channel: Dict[int, float] = {}
        self.airtime_s_by_sender: Dict[str, float] = {}
        self.collisions_by_sender: Dict[str, int] = {}
        tele = medium.sim.telemetry
        self._obs_grants = tele.counter("contention.grants")
        self._obs_deferrals = tele.counter("contention.deferrals")
        self._obs_collisions = tele.counter("contention.collisions")
        # Per-phase dispatch counters (deterministic — pure functions of
        # the event sequence, so the golden fingerprints cover them) plus
        # wall-clock twins: ``contention.wall.*`` attribute contended wall
        # time per phase and are flagged ``deterministic=False`` so they
        # never leak into the deterministic snapshot projection.
        self._obs_sense = tele.counter("contention.sense")
        self._obs_defer = tele.counter("contention.defer")
        self._profile = bool(tele.enabled)
        self._wall_sense = tele.counter("contention.wall.sense", deterministic=False)
        self._wall_defer = tele.counter("contention.wall.defer", deterministic=False)
        if self._profile:
            # Telemetry wraps the one scan on this instance; with it off
            # the medium calls the method itself.
            scan = self.interfered_rows
            count = tele.counter("contention.collision_scan").inc
            wall = tele.counter(
                "contention.wall.collision_scan", deterministic=False
            ).inc

            def interfered_rows(sender_id, channel, rows, start, done):
                count(len(rows))
                t0 = perf_counter()
                flags = scan(sender_id, channel, rows, start, done)
                wall(perf_counter() - t0)
                return flags

            self.interfered_rows = interfered_rows  # type: ignore[method-assign]

    # ------------------------------------------------------------------
    def acquire(
        self,
        sender_id: str,
        channel: int,
        x: float,
        y: float,
        airtime: float,
        priority: bool = False,
    ) -> Tuple[bool, float, float]:
        """Contend for the air around ``(x, y)``.

        Returns ``(True, start, done)`` when the sensed medium was idle
        and the frame's airtime is booked, or ``(False, retry_at, 0.0)``
        when it was busy — the sender booked nothing and must re-contend
        (a fresh :meth:`acquire`) at ``retry_at``.  The medium re-checks
        interference per receiver at delivery time via
        :meth:`interfered_rows`.

        ``priority`` marks management-plane access (EDCA-style): the
        frame waits only PIFS plus a draw from the small fixed
        ``cw_mgmt`` window, and leaves the sender's data-plane backoff
        state untouched.
        """
        profile = self._profile
        t0 = perf_counter() if profile else 0.0
        now = self.sim.now
        bin_m = self._bin_m
        cx = int(x // bin_m)
        cy = int(y // bin_m)
        sensed = self._sense(channel, cx, cy)
        if priority:
            ifs = self._pifs_s
            cw = self._cw_mgmt
        else:
            ifs = self._difs_s
            cw = self._cw.get(sender_id, self._cw_min)
        if sensed > now:
            # Deferral: the sender books *nothing* and re-contends (a
            # fresh sense, a fresh draw) when the sensed air frees up.
            # Reserving a future slot instead would build a FIFO queue
            # that couples across neighbouring cells — each deferral
            # re-extends the horizon its neighbours sense — and merge a
            # dense corridor into one global serialized queue; the
            # retry race also gives waiters and fresh arrivals the same
            # backoff-ordered shot at the next idle period, which is
            # DCF's fairness (priority frames wake earlier: PIFS plus a
            # small fixed window).  The window stays as-is: only
            # collisions widen it (802.11's missed-ACK signal; see
            # note_collision).
            self.deferrals += 1
            backoff = self._randrange(cw) * self._slot_s
            if profile:
                # The obs counters are null instruments whenever
                # telemetry is disabled (``_profile`` is exactly
                # ``telemetry.enabled``), so the hot path skips even the
                # no-op calls.
                self._obs_sense.inc()
                self._obs_deferrals.inc()
                self._obs_defer.inc()
                self._wall_defer.inc(perf_counter() - t0)
            return False, sensed + ifs + backoff, 0.0
        if not priority:
            # A station that found the medium idle starts a fresh
            # exchange: its previous collision penalty has served its
            # purpose.  (Management access never touches the data cw.)
            self._cw[sender_id] = cw = self._cw_min
        backoff = self._randrange(cw) * self._slot_s
        start = now + ifs + backoff
        done = start + airtime
        if airtime > self._max_airtime:
            self._max_airtime = airtime
        self._record(channel, cx, cy, (start, done, sender_id, x, y))
        self.grants += 1
        self.airtime_s_by_channel[channel] = (
            self.airtime_s_by_channel.get(channel, 0.0) + airtime
        )
        self.airtime_s_by_sender[sender_id] = (
            self.airtime_s_by_sender.get(sender_id, 0.0) + airtime
        )
        if profile:
            self._obs_sense.inc()
            self._obs_grants.inc()
            self._wall_sense.inc(perf_counter() - t0)
        return True, start, done

    # -- carrier sense -------------------------------------------------
    def _sense(self, channel: int, cx: int, cy: int) -> float:
        """Busy horizon sensed from cell ``(cx, cy)``: the max over its
        3x3 neighbourhood, precomputed by :meth:`_SenseGrid.book`.

        Carrier sense covers the whole neighbourhood — 802.11's sense
        range exceeds its data range, so a station hears (and defers to)
        transmitters it could never decode.  This is what protects a
        nearby receiver from one-cell-away interferers; only true hidden
        terminals (two or more cells out) remain.
        """
        grid = self._grids.get(channel)
        if grid is None:
            return 0.0
        ix = cx - grid.x0
        iy = cy - grid.y0
        if 0 <= ix < grid.w and 0 <= iy < grid.h:
            return grid.rows[ix][iy]
        return 0.0

    def _record(self, channel: int, cx: int, cy: int, flight: _Flight) -> None:
        """Book a granted flight from sender cell ``(cx, cy)``.

        The flight busy-marks the sender's *own* cell until its end, and
        the grid spreads that booking over the 3x3 footprint *as sensed
        horizons*: a neighbour hears the transmission, but a booking never
        becomes a neighbour's own.  Charging every frame's airtime to nine
        cells' own horizons instead would couple them, and the busy
        horizons then grow without bound under beacon load (deferred
        sends re-extend their neighbours, dominoing into worse-than-
        global serialization).  The flight itself is kept once, in the
        sender cell's list, for the hidden-terminal scan.
        """
        grid = self._grids.get(channel)
        if grid is None:
            grid = self._grids[channel] = _SenseGrid(cx, cy)
        grid.book(cx, cy, flight[1], flight[2])
        # Flights must outlive their own delivery events: an overlap is
        # re-checked per receiver at delivery time, so prune only what
        # ended more than a max-airtime (plus slack) ago.  Pruning is
        # lazy — it waits until a cell holds _PRUNE_MIN flights — which
        # is invisible to :meth:`interfered_rows`: a stale flight has
        # ``f_end <= now - max_airtime - 1e-3``, while any later-checked
        # delivery has ``start >= done - max_airtime > now - 1us -
        # max_airtime``, so ``start < f_end`` can never hold for it.
        key = (channel, cx, cy)
        flights = self._inflight.get(key)
        if flights is None:
            self._inflight[key] = [flight]
            return
        cutoff = self.sim.now - self._max_airtime - 1e-3
        if flights[0][1] <= cutoff and len(flights) >= _PRUNE_MIN:
            flights[:] = [f for f in flights if f[1] > cutoff]
        flights.append(flight)

    # -- hidden-terminal scan ------------------------------------------
    def interfered_rows(
        self,
        sender_id: str,
        channel: int,
        rows: List[Tuple],
        start: float,
        done: float,
    ) -> List[bool]:
        """Receiver-side hidden-terminal checks with physical capture, one
        flag per survivor of a delivery.

        ``rows`` are the medium's survivor 6-tuples ``(seq, station,
        rssi, rx, ry, distance)``.  A row's flag is True
        if a foreign flight overlapped ``[start, done)`` close enough to
        the receiver at ``(rx, ry)`` to actually damage it: the
        interferer must be within radio range *and* within
        ``capture_ratio`` times the wanted sender's ``distance`` — a
        receiver near its sender decodes straight through a far-off
        interferer.  Interference flags consume no randomness, so
        evaluating them up front cannot perturb the draw stream.  With
        telemetry on, the constructor wraps this method on the instance
        to add ``len(rows)`` to the deterministic ``contention.
        collision_scan`` counter and time each call.
        """
        bin_m = self._bin_m
        range_m = self.medium.range_m
        ratio = self.spec.capture_ratio
        hypot = math.hypot
        screened = self._screened
        grid = self._grids.get(channel)
        if grid is None:
            return [False] * len(rows)
        foreign = grid.foreign
        flags = []
        append = flags.append
        # Receivers arrive in registration order, so spatial neighbours
        # (co-located AP radios, a vehicle's own NICs) are adjacent; the
        # one-entry memo skips the cache round-trip for those runs.
        last_x = last_y = None
        pts = None
        for row in rows:
            rx = row[3]
            ry = row[4]
            cell_x = int(rx // bin_m)
            cell_y = int(ry // bin_m)
            if cell_x != last_x or cell_y != last_y:
                last_x = cell_x
                last_y = cell_y
                pts = (
                    screened(channel, cell_x, cell_y, sender_id, start, done)
                    if foreign(cell_x, cell_y, sender_id) > start
                    else ()
                )
            hit = False
            if pts:
                capture = ratio * row[5]
                reach = range_m if capture > range_m else capture
                for f_x, f_y in pts:
                    if hypot(rx - f_x, ry - f_y) <= reach:
                        hit = True
                        break
            append(hit)
        return flags

    def _screened(
        self,
        channel: int,
        cx: int,
        cy: int,
        sender_id: str,
        start: float,
        done: float,
    ) -> List[Tuple[float, float]]:
        """Positions of the foreign flights overlapping ``[start, done)``
        whose senders sit in receiver cell ``(cx, cy)``'s 3x3
        neighbourhood.

        Callers gate first: the grid's foreign horizon for the cell
        (:meth:`_SenseGrid.foreign`) is the latest end of any such flight
        not sent by ``sender_id``, so a cell whose horizon is not after
        ``start`` would screen empty and is never gathered.

        The receiver-independent predicates run once per cell and
        delivery.  Reusing them across one delivery's receivers is exact:
        a flight booked *during* the delivery (a receiver's ``on_frame``
        transmitting synchronously) starts at ``now + ifs + backoff >=
        now``, while the delivery ended at ``done = now - propagation
        delay < now``, so it can never satisfy ``f_start < done``.
        """
        key = (channel, sender_id, start, done)
        if key != self._scan_key:
            self._scan_key = key
            self._scan_cells = {}
        cell = (cx, cy)
        pts = self._scan_cells.get(cell)
        if pts is None:
            pts = self._scan_cells[cell] = []
            inflight = self._inflight
            for nx in (cx - 1, cx, cx + 1):
                for ny in (cy - 1, cy, cy + 1):
                    flights = inflight.get((channel, nx, ny))
                    if flights:
                        pts += [
                            (f_x, f_y)
                            for f_start, f_end, f_sender, f_x, f_y in flights
                            if f_sender != sender_id
                            and f_start < done
                            and start < f_end
                        ]
        return pts

    def note_collision(self, sender_id: str, frame_failed: bool) -> None:
        """Record that a frame lost at least one receiver to interference.

        ``frame_failed`` — the unicast destination itself was wiped, i.e.
        the sender misses its ACK — is the 802.11 signal that widens the
        contention window; broadcast senders never learn and keep theirs.
        """
        self.collisions += 1
        self._obs_collisions.inc()
        self.collisions_by_sender[sender_id] = (
            self.collisions_by_sender.get(sender_id, 0) + 1
        )
        if frame_failed:
            cw = self._cw.get(sender_id, self.spec.cw_min)
            self._cw[sender_id] = min(cw * 2, self.spec.cw_max)

    # ------------------------------------------------------------------
    def busy_until(self, channel: int) -> float:
        """Latest busy horizon over every cell of ``channel`` (diagnosis).

        O(1): the grid keeps the running per-channel max, so telemetry
        exports (``medium.backlog_s`` samples every channel) never pay an
        O(cells) scan.
        """
        grid = self._grids.get(channel)
        return grid.horizon if grid is not None else 0.0

    def collision_rate(self) -> float:
        """Collided fraction of all granted transmissions."""
        return self.collisions / self.grants if self.grants else 0.0

    # ------------------------------------------------------------------
    def export_telemetry(self, duration_s: float) -> None:
        """Publish airtime-share and collision-rate gauges to the registry.

        Per-channel airtime share is channel airtime over the run length;
        per-sender share is that sender's slice of its channel's run
        length.  The two live under distinct ``channel.``/``sender.``
        prefixes so a station id can never shadow a channel gauge.
        Every value is a pure function of (spec, seed), so the gauges
        survive the deterministic-telemetry byte-identity gates.
        """
        tele = self.sim.telemetry
        span = max(duration_s, 1e-9)
        for channel in sorted(self.airtime_s_by_channel):
            tele.gauge(f"contention.airtime_share.channel.{channel}").set(
                self.airtime_s_by_channel[channel] / span
            )
        for sender_id in sorted(self.airtime_s_by_sender):
            tele.gauge(f"contention.airtime_share.sender.{sender_id}").set(
                self.airtime_s_by_sender[sender_id] / span
            )
        for sender_id in sorted(self.collisions_by_sender):
            tele.gauge(f"contention.collisions.{sender_id}").set(
                float(self.collisions_by_sender[sender_id])
            )
        tele.gauge("contention.collision_rate").set(self.collision_rate())
