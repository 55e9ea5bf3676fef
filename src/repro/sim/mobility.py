"""Mobility models: where a node is at any simulation time.

Two models cover the paper's scenarios:

* :class:`StaticPosition` — APs and the indoor-testbed client.
* :class:`LinearMobility` — a vehicle moving along a straight road at
  constant speed (the analytical model's setting: time in range
  ``t = 2 * range / speed`` for an AP on the road).
* :class:`LoopMobility` — a vehicle repeatedly driving a closed circuit,
  the "same route multiple times" protocol of §4.1.

Positions are 2-D metres; roads are laid along the x axis and APs may be
offset in y to shorten their effective in-range window.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

__all__ = [
    "MobilityModel",
    "StaticPosition",
    "LinearMobility",
    "LoopMobility",
    "VariableSpeedLoopMobility",
    "circle_point",
    "ring_distance",
]


class MobilityModel:
    """Interface: ``position_at(t)`` in metres."""

    #: Upper bound on instantaneous speed, m/s, or ``None`` when the model
    #: declares no bound.  The medium's receiver index skips a station
    #: until it could first reach a beaconing AP, and snapshots large
    #: fleets with a drift allowance of ``max_speed_mps * elapsed``; a
    #: model without a bound keeps its stations on the exact per-delivery
    #: check.  Subclasses must guarantee the bound is a
    #: Lipschitz constant of ``position_at`` (Euclidean displacement over
    #: ``dt`` never exceeds ``max_speed_mps * dt``).
    max_speed_mps: Optional[float] = None

    def position_at(self, t: float) -> Tuple[float, float]:
        """Position (x, y) in metres at simulation time ``t``."""
        raise NotImplementedError

    def positions_at(self, ts: Sequence[float]) -> List[Tuple[float, float]]:
        """Positions for a whole time vector — one call per tick batch.

        The default delegates to ``position_at`` per element, so results
        are bit-identical to scalar sampling by construction; array-backed
        consumers (trajectory precomputation, the dense-world bench) get
        the batch API without every model reimplementing it.
        """
        return [self.position_at(t) for t in ts]


class StaticPosition(MobilityModel):
    """A node that never moves."""

    max_speed_mps = 0.0

    def __init__(self, x: float, y: float = 0.0):
        self.x = x
        self.y = y

    def position_at(self, t: float) -> Tuple[float, float]:
        """Position (x, y) in metres at simulation time ``t``."""
        return (self.x, self.y)

    def __repr__(self) -> str:
        return f"StaticPosition({self.x}, {self.y})"


class LinearMobility(MobilityModel):
    """Constant-speed motion along the x axis starting at ``start_x``."""

    def __init__(self, speed_mps: float, start_x: float = 0.0, y: float = 0.0):
        if speed_mps < 0:
            raise ValueError(f"speed must be non-negative: {speed_mps!r}")
        self.speed_mps = speed_mps
        self.max_speed_mps = speed_mps
        self.start_x = start_x
        self.y = y

    def position_at(self, t: float) -> Tuple[float, float]:
        """Position (x, y) in metres at simulation time ``t``."""
        return (self.start_x + self.speed_mps * t, self.y)

    def time_in_range_of(self, ap_x: float, range_m: float) -> float:
        """Seconds this trajectory spends within ``range_m`` of x=``ap_x``.

        With the AP on the road (y offset 0) this is ``2 * range / speed``,
        the ``T`` of the paper's optimization framework.
        """
        if self.speed_mps == 0:
            return math.inf if abs(self.start_x - ap_x) <= range_m else 0.0
        return 2.0 * range_m / self.speed_mps

    def __repr__(self) -> str:
        return f"LinearMobility({self.speed_mps} m/s from x={self.start_x})"


def circle_point(arc_position_m: float, loop_length_m: float) -> Tuple[float, float]:
    """Map an arc-length position on a circuit to 2-D coordinates.

    The circuit is embedded as a circle of circumference ``loop_length_m``,
    so Euclidean distances between nearby arc positions approximate arc
    distances and the geometry is continuous across lap boundaries.  AP
    placement along a loop route uses the same mapping (see
    :mod:`repro.workloads.town`).
    """
    radius = loop_length_m / (2.0 * math.pi)
    theta = 2.0 * math.pi * (arc_position_m % loop_length_m) / loop_length_m
    return (radius * math.cos(theta), radius * math.sin(theta))


class LoopMobility(MobilityModel):
    """Motion around a closed circuit of length ``loop_length_m``.

    The circuit is embedded as a circle (see :func:`circle_point`), the
    "same route multiple times" protocol of §4.1.
    """

    def __init__(self, speed_mps: float, loop_length_m: float, start_arc_m: float = 0.0):
        if speed_mps < 0:
            raise ValueError(f"speed must be non-negative: {speed_mps!r}")
        if loop_length_m <= 0:
            raise ValueError(f"loop length must be positive: {loop_length_m!r}")
        self.speed_mps = speed_mps
        # Chord displacement on the circle embedding never exceeds arc
        # displacement, so the cruise speed is a valid Lipschitz bound.
        self.max_speed_mps = speed_mps
        self.loop_length_m = loop_length_m
        self.start_arc_m = start_arc_m

    def arc_position_at(self, t: float) -> float:
        """Arc-length position (metres along the route, wrapped)."""
        return (self.start_arc_m + self.speed_mps * t) % self.loop_length_m

    def position_at(self, t: float) -> Tuple[float, float]:
        """Position (x, y) in metres at simulation time ``t``."""
        return circle_point(self.arc_position_at(t), self.loop_length_m)

    def lap_time(self) -> float:
        """Seconds per full circuit."""
        if self.speed_mps == 0:
            return math.inf
        return self.loop_length_m / self.speed_mps

    def __repr__(self) -> str:
        return (
            f"LoopMobility({self.speed_mps} m/s, loop {self.loop_length_m} m)"
        )


class VariableSpeedLoopMobility(MobilityModel):
    """Loop motion with a piecewise-constant speed profile.

    ``profile`` is a sequence of ``(duration_s, speed_mps)`` segments that
    repeats indefinitely — a commute alternating between downtown crawling
    and arterial driving, or stop-and-go traffic.  Positions integrate the
    profile exactly, so the model is deterministic and seam-free across
    profile repetitions.
    """

    def __init__(
        self,
        profile: Sequence[Tuple[float, float]],
        loop_length_m: float,
        start_arc_m: float = 0.0,
    ):
        if loop_length_m <= 0:
            raise ValueError(f"loop length must be positive: {loop_length_m!r}")
        if not profile:
            raise ValueError("profile needs at least one segment")
        for duration, speed in profile:
            if duration <= 0:
                raise ValueError(f"segment duration must be positive: {duration!r}")
            if speed < 0:
                raise ValueError(f"segment speed must be non-negative: {speed!r}")
        self.profile = list(profile)
        self.max_speed_mps = max(speed for _, speed in self.profile)
        self.loop_length_m = loop_length_m
        self.start_arc_m = start_arc_m
        self._cycle_s = sum(d for d, _ in self.profile)
        self._cycle_arc_m = sum(d * v for d, v in self.profile)

    def speed_at(self, t: float) -> float:
        """Instantaneous speed at simulation time ``t``."""
        offset = t % self._cycle_s
        for duration, speed in self.profile:
            if offset < duration:
                return speed
            offset -= duration
        return self.profile[-1][1]

    def arc_position_at(self, t: float) -> float:
        """Arc-length position along the loop at time ``t``."""
        cycles, offset = divmod(t, self._cycle_s)
        arc = cycles * self._cycle_arc_m
        for duration, speed in self.profile:
            step = min(offset, duration)
            arc += step * speed
            offset -= step
            if offset <= 0:
                break
        return (self.start_arc_m + arc) % self.loop_length_m

    def position_at(self, t: float) -> Tuple[float, float]:
        """Position (x, y) in metres at simulation time ``t``."""
        return circle_point(self.arc_position_at(t), self.loop_length_m)

    def __repr__(self) -> str:
        return (
            f"VariableSpeedLoopMobility({len(self.profile)} segments, "
            f"loop {self.loop_length_m} m)"
        )


def ring_distance(a: float, b: float, loop_length_m: float) -> float:
    """Shortest distance between two arc positions on the circuit."""
    d = abs(a - b) % loop_length_m
    return min(d, loop_length_m - d)
