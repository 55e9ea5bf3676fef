"""The scalar candidate walk, kept as a test-only oracle for receiver lookup.

The medium used to find a frame's receivers by walking a candidate list
per frame: every mobile station plus the static stations binned in the
3x3 cells around the sender, sorted by registration order, each checked
against the exact predicates — not the sender, tuned to the frame's
channel (statics are binned by channel), accepting the destination, within
``range_m`` by ``math.hypot``, and for a beacon, not declaring
``ignores_beacons``.  :class:`ReferenceDelivery` is that walk.  It keeps
the index's registration bookkeeping and replaces only :meth:`survivors`.

Tests install it by monkeypatching ``repro.sim.medium_vec.VectorIndex``,
the name the medium builds its index through (:func:`delivery_path`).
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import pytest

from repro.sim import medium_vec
from repro.sim.frames import BROADCAST, FrameKind
from repro.sim.radio import rssi_from_distance

#: The receiver lookups a medium can be built on: the oracle, the index,
#: and the index without numpy (the no-numpy platform: horizons instead of
#: the mobile snapshot).
PATHS = ("reference", "index", "index-no-numpy")


class ReferenceDelivery(medium_vec.VectorIndex):
    """Every candidate, every frame, in registration order."""

    def survivors(self, sender_id, frame, sx, sy):
        channel = frame.channel
        dst = frame.dst
        broadcast = dst == BROADCAST
        beacon = frame.kind is FrameKind.BEACON
        range_m = self._medium.range_m
        candidates = [
            (seq, station, None, ignores)
            for station, seq, _v, ignores in self._mobiles.values()
        ]
        statics = self._chan.get(channel)
        if statics is not None:
            bx = int(sx // self._bin_m)
            by = int(sy // self._bin_m)
            for cx in (bx - 1, bx, bx + 1):
                for cy in (by - 1, by, by + 1):
                    for seq, station, x, y, ignores in statics.bins.get((cx, cy), ()):
                        candidates.append((seq, station, (x, y), ignores))
        candidates.sort(key=lambda candidate: candidate[0])
        rows = []
        for seq, station, static_pos, ignores in candidates:
            if station.station_id == sender_id or (beacon and ignores):
                continue
            if static_pos is None:
                if station.tuned_channel() != channel:
                    continue
                if not broadcast and not station.accepts(dst):
                    continue
                rx, ry = station.position()
            else:
                if not broadcast and not station.accepts(dst):
                    continue
                rx, ry = static_pos
            distance = math.hypot(sx - rx, sy - ry)
            if distance > range_m:
                continue
            rows.append((seq, station, rssi_from_distance(distance), rx, ry, distance))
        return rows


@contextmanager
def delivery_path(path):
    """Build media inside the block on one of :data:`PATHS`.

    The reference walk also runs without numpy, so it shares nothing
    optional with the default platform.
    """
    with pytest.MonkeyPatch.context() as mp:
        if path == "reference":
            mp.setattr(medium_vec, "VectorIndex", ReferenceDelivery)
        if path != "index":
            mp.setattr(medium_vec, "_np", None)
        yield
