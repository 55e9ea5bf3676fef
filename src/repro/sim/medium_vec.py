"""Receiver index for the wireless medium: cached plans and exact checks.

Every delivery in :mod:`repro.sim.radio`, on every world size and with or
without numpy, asks :meth:`VectorIndex.survivors` for its receivers.  The
answer is exactly what a walk over every registered station would keep —
not the sender, tuned to the frame's channel, accepting the destination,
within ``range_m`` by ``math.hypot``, and for a beacon, acting on it (a
station declaring ``ignores_beacons``, as access points do, is no
beacon's receiver) — in registration order, so the loss draws the medium
takes from its seeded stream line up one-for-one with that walk and every
trial result is byte-identical.  What the index caches, and why each
cache stays exact:

* **Static stations** (``is_static``: APs, fixed position and channel)
  are binned per channel by spatial cell (edge = ``range_m``), so every
  in-range static lies in the 3x3 cells around a point.  A beacon from a
  static sender — most frames of any run — resolves to a cached *plan*:
  the in-range statics that act on beacons, in registration order with
  their RSSI precomputed.  Geometry between statics never changes, so
  plans (and the merged 3x3 neighbourhoods they are built from) only drop
  when a station (un)registers.
* **Unicast to a static** resolves through a BSSID index when every
  static on the channel promises ``accepts_only_own_id`` (true of
  :class:`~repro.sim.ap.AccessPoint`).
* **Mobile stations in small fleets** (fewer than
  ``SNAPSHOT_MIN_MOBILES``, or no numpy): a static sender skips each
  mobile until an exact out-of-range *horizon* has passed.  A mobile
  found ``d0 > range_m`` away at ``t0`` cannot come in range before
  ``t0 + (d0 - range_m - PREFILTER_MARGIN_M) / max_speed_mps``.  A
  beacon plan with no rows, due before every horizon, has no receiver
  at all: :meth:`VectorIndex.unheard` tells the medium so at transmit
  time, and the beacon's delivery takes no event.
* **Mobile stations in large fleets** (numpy installed) are snapshotted
  into position arrays with a drift allowance: a snapshot taken at
  ``t0`` stays valid while ``v_max * (now - t0)`` is under a slack
  budget, and each sender's candidate list is pruned once per snapshot
  with a radius covering that drift, so it never drops a station the
  exact check would keep.

Both mobile shortcuts trust the ``max_speed_mps`` bound a station
declares when it registers (see :class:`~repro.sim.radio.Station`); a
station without a finite bound is checked on every frame, and one such
station keeps its whole fleet off the snapshot.  Every candidate that
survives a shortcut is re-checked with the exact predicates, and RSSI
uses :func:`~repro.sim.radio.rssi_from_distance` on the same ``hypot``
distance.

One behavioural assumption is relied on: a receiver's ``on_frame``
callback never *synchronously* mutates another station's position or
tuned channel (all cross-station interaction in this codebase goes
through ``Medium.transmit`` or the event queue), so resolving a frame's
receivers before running their callbacks changes nothing.  The suites
compare the index against a test-only oracle that walks every candidate
per frame (``tests/reference_delivery.py``), whole trials and fault plans
included.

numpy is optional (the ``perf`` extra) and only backs the mobile
snapshot; a medium built without it counts itself on the
``medium.vector_fallbacks`` obs counter.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from .frames import BROADCAST, Frame, FrameKind

try:  # pragma: no cover - both branches run in CI (numpy on and hidden)
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

from .radio import rssi_from_distance

__all__ = ["VectorIndex", "argsort_scan"]

#: Absolute slack subtracted from every out-of-range distance before it
#: becomes a horizon or a snapshot's pruning radius, metres.  Coordinates
#: in any world we simulate are O(10^4) m, where float64 distance error is
#: O(10^-10) m — a micron of margin buries it while provably never
#: skipping a station that the exact check would keep.
PREFILTER_MARGIN_M = 1e-6

#: Mobile-position snapshots are rebuilt once accumulated drift
#: (``v_max * elapsed``) exceeds this budget, metres.  At vehicular speeds
#: (~10 m/s) that is one rebuild every couple of simulated seconds.
SNAPSHOT_SLACK_M = 25.0

#: From this many mobile stations on (and with numpy), the snapshot prunes
#: mobile receivers; smaller fleets use per-sender horizons.
SNAPSHOT_MIN_MOBILES = 12

#: Sentinel snapshot meaning "some mobile has no usable speed bound".
_UNBOUNDED = object()


def argsort_scan(rssis: Sequence[float], bssids: Sequence[str]):
    """Sort order for scan entries: descending RSSI, BSSID tie-break.

    Returns index positions matching ``sorted(key=(-rssi, bssid))`` —
    ``lexsort`` keys compare exactly like Python's tuple sort here (float
    and unicode comparisons are identical) — or ``None`` when numpy is
    unavailable and the caller should sort in Python.
    """
    if _np is None:
        return None
    neg_rssi = _np.array([-r for r in rssis], dtype=float)
    return _np.lexsort((_np.array(bssids), neg_rssi))


def _speed_bound(station) -> Optional[float]:
    """The station's declared finite, non-negative speed bound, if any."""
    speed = getattr(station, "max_speed_mps", None)
    if isinstance(speed, (int, float)) and math.isfinite(speed) and speed >= 0:
        return float(speed)
    return None


def _merge(stat: List[Tuple], mob: List[Tuple]) -> List[Tuple]:
    """Merge two registration-ordered row lists."""
    if not mob:
        return stat
    if not stat:
        return mob
    if stat[-1][0] < mob[0][0]:
        return stat + mob
    merged: List[Tuple] = []
    i = j = 0
    ns, nm = len(stat), len(mob)
    while i < ns and j < nm:
        if stat[i][0] < mob[j][0]:
            merged.append(stat[i])
            i += 1
        else:
            merged.append(mob[j])
            j += 1
    merged.extend(stat[i:])
    merged.extend(mob[j:])
    return merged


class _ChannelStatics:
    """The static stations tuned to one channel."""

    __slots__ = ("bins", "near", "by_id", "all_own_id", "plans")

    def __init__(self) -> None:
        #: (cx, cy) -> entries ``(seq, station, x, y, ignores_beacons)``.
        #: Registration sequence numbers only ever grow, so appends keep
        #: each bin in registration order across AP fail/recover cycles.
        self.bins: Dict[Tuple[int, int], List[Tuple]] = {}
        #: (cx, cy) -> the entries of the 3x3 cells around it, merged in
        #: registration order.
        self.near: Dict[Tuple[int, int], List[Tuple]] = {}
        self.by_id: Dict[str, Tuple] = {}
        self.all_own_id = True
        #: Beacon plans, keyed by static sender id.
        self.plans: Dict[str, "_Plan"] = {}


class _Plan:
    """A static sender's beacon receivers, exact until an (un)register."""

    __slots__ = ("rows", "horizons", "next_check")

    def __init__(self, rows: List[Tuple], n_mobiles: int) -> None:
        #: The in-range statics that act on beacons, as survivor rows in
        #: registration order.
        self.rows = rows
        #: Per mobile, in registration order: the simulated time before
        #: which that mobile is provably out of this sender's range
        #: (``inf`` for a mobile that ignores beacons).  Allocated on
        #: first use; fleets on the snapshot never need it.
        self.horizons: Optional[List[float]] = None
        #: The earliest horizon: until then no mobile can hear the sender.
        self.next_check = -math.inf if n_mobiles else math.inf


class _MobileSnapshot:
    """Mobile positions frozen at ``t0`` with a worst-case speed bound."""

    __slots__ = ("xs", "ys", "t0", "v_max", "cand")

    def __init__(self, xs, ys, t0, v_max):
        self.xs = xs
        self.ys = ys
        self.t0 = t0
        self.v_max = v_max
        #: Per-sender candidate lists pruned once for the snapshot's whole
        #: validity window (see :meth:`VectorIndex._prune_mobiles`).
        self.cand: Dict[str, Tuple] = {}


class VectorIndex:
    """Receiver resolution for one :class:`~repro.sim.radio.Medium`.

    The medium forwards every ``register``/``unregister`` to :meth:`add`
    and :meth:`remove` and asks :meth:`survivors` for the exact,
    registration-ordered receivers of each delivery; its draw loop then
    consumes loss draws and invokes callbacks in that order.
    """

    def __init__(self, medium) -> None:
        self._medium = medium
        self._sim = medium.sim
        self._np = _np
        self._bin_m = medium._bin_m
        #: Stations registered so far: the next one gets this sequence
        #: number, so a station registered after the counter read ``n``
        #: is exactly one with ``seq >= n``.
        self.registrations = 0
        self._chan: Dict[int, _ChannelStatics] = {}
        #: Static station id -> the channel it is binned under.
        self._static_channel: Dict[str, int] = {}
        #: Mobile station id -> ``(station, seq, speed bound,
        #: ignores_beacons)``, in registration order.
        self._mobiles: Dict[str, Tuple] = {}
        self._mob: Tuple = ()
        self._snapshots = False
        self._snap = None

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def add(self, station) -> None:
        """Index a newly registered station."""
        sid = station.station_id
        seq = self.registrations
        self.registrations += 1
        ignores = bool(getattr(station, "ignores_beacons", False))
        channel = station.tuned_channel()
        if getattr(station, "is_static", False) and channel is not None:
            x, y = station.position()
            cs = self._chan.get(channel)
            if cs is None:
                cs = self._chan[channel] = _ChannelStatics()
            entry = (seq, station, x, y, ignores)
            cell = (int(x // self._bin_m), int(y // self._bin_m))
            cs.bins.setdefault(cell, []).append(entry)
            cs.by_id[sid] = entry
            if not getattr(station, "accepts_only_own_id", False):
                cs.all_own_id = False
            self._static_channel[sid] = channel
        else:
            self._mobiles[sid] = (station, seq, _speed_bound(station), ignores)
        self._changed()

    def remove(self, station_id: str) -> None:
        """Forget an unregistered station."""
        channel = self._static_channel.pop(station_id, None)
        if channel is not None:
            cs = self._chan[channel]
            entry = cs.by_id.pop(station_id)
            cell = (int(entry[2] // self._bin_m), int(entry[3] // self._bin_m))
            cs.bins[cell] = [e for e in cs.bins[cell] if e is not entry]
            cs.all_own_id = all(
                getattr(e[1], "accepts_only_own_id", False) for e in cs.by_id.values()
            )
        else:
            self._mobiles.pop(station_id, None)
        self._changed()

    def _changed(self) -> None:
        """Drop every cached answer: neighbourhoods, plans, horizons, snapshot."""
        for cs in self._chan.values():
            cs.near.clear()
            cs.plans.clear()
        self._mob = tuple(self._mobiles.values())
        self._snapshots = (
            self._np is not None and len(self._mob) >= SNAPSHOT_MIN_MOBILES
        )
        self._snap = None

    # ------------------------------------------------------------------
    # Delivery-time receiver resolution
    # ------------------------------------------------------------------
    def survivors(
        self, sender_id: str, frame: Frame, sx: float, sy: float
    ) -> List[Tuple]:
        """Exact receivers of ``frame``, in registration order.

        Each element is ``(seq, station, rssi, rx, ry, distance)``; every
        listed station is not the sender, is tuned to the frame's
        channel, accepts its destination, lies within range by the exact
        ``hypot`` distance and, if the frame is a beacon, does not declare
        ``ignores_beacons``.  ``(rx, ry)`` is the receiver position and
        ``distance`` the distance the RSSI came from — the contended
        delivery tail feeds both to the receiver-side interference check.
        The list may be a cached plan's: callers must not mutate it.
        """
        channel = frame.channel
        cs = self._chan.get(channel)
        dst = frame.dst
        beacon = frame.kind is FrameKind.BEACON
        if dst == BROADCAST:
            dst = None
            plan = None
            if beacon and cs is not None:
                plan = cs.plans.get(sender_id)
                if plan is None and sender_id in cs.by_id:
                    plan = cs.plans[sender_id] = _Plan(
                        self._static_rows(
                            self._near(cs, sx, sy), sender_id, None, True, sx, sy
                        ),
                        len(self._mob),
                    )
            if plan is not None:
                # A static sender's beacon: the hot case by far.
                if self._sim.now < plan.next_check:
                    return plan.rows
                snap = self._snapshot() if self._snapshots else None
                if snap is None:
                    mob = self._beyond_horizons(plan, channel, sx, sy)
                else:
                    mob = self._scan_mobiles(
                        self._prune_mobiles(snap, sender_id, sx, sy),
                        sender_id,
                        channel,
                        None,
                        True,
                        sx,
                        sy,
                    )
                return _merge(plan.rows, mob)
            stat = (
                []
                if cs is None
                else self._static_rows(
                    self._near(cs, sx, sy), sender_id, None, beacon, sx, sy
                )
            )
        else:
            stat = (
                []
                if cs is None
                else self._unicast_statics(cs, sender_id, dst, beacon, sx, sy)
            )
        mob = self._mob
        if not mob:
            return stat
        snap = self._snapshot() if self._snapshots else None
        if snap is not None:
            mob = self._prune_mobiles(snap, sender_id, sx, sy)
        return _merge(
            stat, self._scan_mobiles(mob, sender_id, channel, dst, beacon, sx, sy)
        )

    def unheard(self, sender_id: str, frame: Frame, at: float) -> bool:
        """Whether nobody can hear ``frame``, a beacon, delivered at ``at``.

        True only for a broadcast, from the static sender's cached plan:
        no static that acts on beacons is in range, and ``at`` is before
        every mobile's horizon, so :meth:`survivors` would return the
        plan's empty rows.  (A unicast frame nobody hears still reports
        its failure to the sender.)  A station registering before ``at``
        hears only later frames, and one unregistering leaves no row
        behind, so the answer holds whatever (un)registers in between.
        False when no plan is cached, and on the mobile snapshot, which
        keeps no horizons.
        """
        if frame.dst != BROADCAST:
            return False
        cs = self._chan.get(frame.channel)
        plan = None if cs is None else cs.plans.get(sender_id)
        return plan is not None and not plan.rows and at < plan.next_check

    # ------------------------------------------------------------------
    # Static side
    # ------------------------------------------------------------------
    def _near(self, cs: _ChannelStatics, x: float, y: float) -> List[Tuple]:
        """The channel's statics in the 3x3 cells around ``(x, y)``."""
        bx = int(x // self._bin_m)
        by = int(y // self._bin_m)
        near = cs.near.get((bx, by))
        if near is None:
            bins = cs.bins
            near = [
                entry
                for cx in (bx - 1, bx, bx + 1)
                for cy in (by - 1, by, by + 1)
                for entry in bins.get((cx, cy), ())
            ]
            near.sort(key=lambda entry: entry[0])
            cs.near[(bx, by)] = near
        return near

    def _static_rows(
        self,
        entries: List[Tuple],
        sender_id: str,
        dst: Optional[str],
        beacon: bool,
        sx: float,
        sy: float,
    ) -> List[Tuple]:
        range_m = self._medium.range_m
        hypot = math.hypot
        out: List[Tuple] = []
        for seq, station, x, y, ignores in entries:
            if station.station_id == sender_id or (beacon and ignores):
                continue
            if dst is not None and not station.accepts(dst):
                continue
            distance = hypot(sx - x, sy - y)
            if distance > range_m:
                continue
            out.append((seq, station, rssi_from_distance(distance), x, y, distance))
        return out

    def _unicast_statics(
        self,
        cs: _ChannelStatics,
        sender_id: str,
        dst: str,
        beacon: bool,
        sx: float,
        sy: float,
    ) -> List[Tuple]:
        if not cs.all_own_id:
            return self._static_rows(
                self._near(cs, sx, sy), sender_id, dst, beacon, sx, sy
            )
        entry = cs.by_id.get(dst)
        if entry is None:
            return []
        return self._static_rows((entry,), sender_id, None, beacon, sx, sy)

    # ------------------------------------------------------------------
    # Mobile side
    # ------------------------------------------------------------------
    def _beyond_horizons(
        self, plan: _Plan, channel: int, sx: float, sy: float
    ) -> List[Tuple]:
        """Mobile receivers of a static sender's beacon, via horizons.

        A mobile whose horizon has not passed is skipped without a
        position read; one that ignores beacons has an infinite horizon.
        A mobile found out of range gets a new horizon from its distance
        and declared speed bound, whatever channel it is tuned to; one
        without a bound keeps a horizon of ``-inf`` and is checked on
        every frame.
        """
        now = self._sim.now
        range_m = self._medium.range_m
        horizons = plan.horizons
        if horizons is None:
            horizons = plan.horizons = [
                math.inf if ignores else -math.inf
                for _station, _seq, _v_max, ignores in self._mob
            ]
        out: List[Tuple] = []
        for i, (station, seq, v_max, _ignores) in enumerate(self._mob):
            if now < horizons[i]:
                continue
            rx, ry = station.position()
            distance = math.hypot(sx - rx, sy - ry)
            if distance > range_m:
                if v_max is not None:
                    slack = distance - range_m - PREFILTER_MARGIN_M
                    horizons[i] = now + slack / v_max if v_max > 0 else math.inf
                continue
            if station.tuned_channel() != channel:
                continue
            out.append((seq, station, rssi_from_distance(distance), rx, ry, distance))
        plan.next_check = min(horizons)
        return out

    def _scan_mobiles(
        self,
        candidates,
        sender_id: str,
        channel: int,
        dst: Optional[str],
        beacon: bool,
        sx: float,
        sy: float,
    ) -> List[Tuple]:
        range_m = self._medium.range_m
        hypot = math.hypot
        out: List[Tuple] = []
        for station, seq, _v_max, ignores in candidates:
            if station.station_id == sender_id or (beacon and ignores):
                continue
            if station.tuned_channel() != channel:
                continue
            if dst is not None and not station.accepts(dst):
                continue
            rx, ry = station.position()
            distance = hypot(sx - rx, sy - ry)
            if distance > range_m:
                continue
            out.append((seq, station, rssi_from_distance(distance), rx, ry, distance))
        return out

    def _prune_mobiles(
        self, snap: _MobileSnapshot, sender_id: str, sx: float, sy: float
    ) -> Tuple:
        """The sender's mobile candidate list for ``snap``.

        Pruned once per (sender, snapshot) with a radius that covers the
        snapshot's whole validity window: receivers drift at most
        ``SNAPSHOT_SLACK_M`` before a rebuild forces a fresh snapshot, and
        a mobile sender moves at most another slack's worth from where it
        stood when this list was built.  The cached list is therefore a
        superset of every per-delivery prefilter until the snapshot rolls
        over; the exact scan keeps the survivor set bit-identical.
        """
        candidates = snap.cand.get(sender_id)
        if candidates is not None:
            return candidates
        np = self._np
        r = self._medium.range_m + SNAPSHOT_SLACK_M + PREFILTER_MARGIN_M
        if sender_id in self._mobiles:
            r += SNAPSHOT_SLACK_M
        dx = snap.xs - sx
        dy = snap.ys - sy
        hits = np.nonzero(dx * dx + dy * dy <= r * r)[0]
        mob = self._mob
        candidates = tuple(mob[i] for i in hits)
        snap.cand[sender_id] = candidates
        return candidates

    def _snapshot(self) -> Optional[_MobileSnapshot]:
        """The current mobile snapshot, rebuilt once its drift budget is spent.

        ``None`` while some mobile declares no usable speed bound: the
        drift allowance would be unsound, so that membership falls back to
        horizons for static senders and the exact scan for the rest.
        """
        now = self._sim.now
        snap = self._snap
        if snap is _UNBOUNDED:
            return None
        if snap is not None and snap.v_max * (now - snap.t0) <= SNAPSHOT_SLACK_M:
            return snap
        v_max = 0.0
        for _station, _seq, speed, _ignores in self._mob:
            if speed is None:
                self._snap = _UNBOUNDED
                return None
            if speed > v_max:
                v_max = speed
        np = self._np
        n = len(self._mob)
        xs = np.empty(n, dtype=float)
        ys = np.empty(n, dtype=float)
        for i, (station, _seq, _speed, _ignores) in enumerate(self._mob):
            x, y = station.position()
            xs[i] = x
            ys[i] = y
        snap = self._snap = _MobileSnapshot(xs, ys, now, v_max)
        return snap
