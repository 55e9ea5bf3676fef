"""Deterministic fault injection: scheduled and stochastic failure events.

Real vehicular Wi-Fi fails in correlated bursts — APs power-cycle, DHCP
servers stall or NAK storms of stale bindings, lease pools run dry, and
the channel itself alternates between clean and terrible (measurement
studies consistently reject the i.i.d.-loss picture).  This module turns
those hazards into first-class, *reproducible* simulation inputs:

* a :class:`FaultPlan` is a frozen, picklable tuple of fault events, so it
  can ride inside a trial spec across process boundaries and participate
  in spec equality;
* :func:`install_faults` expands the plan against a built world, scheduling
  every action off the engine clock.  All randomness (stochastic outage
  arrival times, unspecified targets) is drawn at install time from the
  dedicated ``faults.*`` streams of :meth:`Simulator.rng`, so a faulted run
  is bit-identical for the same seed and a fault-free run consumes *zero*
  extra randomness;
* :class:`GilbertElliottLoss` is a lazy continuous-time two-state loss
  model the :class:`~repro.sim.radio.Medium` consults per delivery —
  bursty ``h`` alongside the default i.i.d. one.

Events target a specific AP by BSSID, or pass ``bssid=None``: AP-level
events then draw a victim from the ``faults.target`` stream, while
DHCP-level events apply to **every** server (the common failure domain —
many open APs behind one flaky upstream relay).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from .engine import Simulator
from .world import World

__all__ = [
    "ApOutage",
    "ApFlap",
    "DhcpStall",
    "DhcpNakBurst",
    "LeaseExhaustion",
    "BurstyLoss",
    "RandomOutages",
    "FaultEvent",
    "FaultPlan",
    "GilbertElliottLoss",
    "FaultInjector",
    "install_faults",
]


# ----------------------------------------------------------------------
# Event vocabulary (all frozen + picklable: they live inside trial specs)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ApOutage:
    """Take one AP off the air at ``at_s``; recover after ``duration_s``.

    ``duration_s=math.inf`` kills the AP for good.  ``bssid=None`` draws
    the victim from the ``faults.target`` stream at install time.
    """

    at_s: float
    duration_s: float = math.inf
    bssid: Optional[str] = None


@dataclass(frozen=True)
class ApFlap:
    """Power-cycle one AP ``count`` times: down ``down_s``, up ``up_s``."""

    start_s: float
    count: int = 3
    down_s: float = 2.0
    up_s: float = 3.0
    bssid: Optional[str] = None


@dataclass(frozen=True)
class DhcpStall:
    """DHCP servers drop every message in the window (relay outage)."""

    at_s: float
    duration_s: float
    bssid: Optional[str] = None  # None: every server in the world


@dataclass(frozen=True)
class DhcpNakBurst:
    """Servers forget bindings and NAK every REQUEST in the window."""

    at_s: float
    duration_s: float
    bssid: Optional[str] = None  # None: every server in the world


@dataclass(frozen=True)
class LeaseExhaustion:
    """Servers stop allocating to *new* clients in the window."""

    at_s: float
    duration_s: float
    bssid: Optional[str] = None  # None: every server in the world


@dataclass(frozen=True)
class BurstyLoss:
    """Switch the medium to a Gilbert–Elliott loss chain for the window."""

    at_s: float
    duration_s: float = math.inf
    h_good: float = 0.02
    h_bad: float = 0.6
    mean_good_s: float = 4.0
    mean_bad_s: float = 1.0


@dataclass(frozen=True)
class RandomOutages:
    """Poisson-arriving AP outages over ``[start_s, end_s)``.

    Arrival times, outage durations (exponential around ``mean_down_s``),
    and victims are all drawn at install time from the ``faults.schedule``
    and ``faults.target`` streams, so the realized schedule is a pure
    function of the simulator seed.
    """

    start_s: float
    end_s: float
    rate_per_min: float = 2.0
    mean_down_s: float = 4.0


FaultEvent = Union[
    ApOutage, ApFlap, DhcpStall, DhcpNakBurst, LeaseExhaustion,
    BurstyLoss, RandomOutages,
]


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, picklable schedule of fault events."""

    events: Tuple[FaultEvent, ...] = ()

    @classmethod
    def of(cls, *events: FaultEvent) -> "FaultPlan":
        """Build a plan from positional events."""
        return cls(events=tuple(events))

    def __bool__(self) -> bool:
        return bool(self.events)


# ----------------------------------------------------------------------
# Bursty loss: lazy continuous-time Gilbert–Elliott chain
# ----------------------------------------------------------------------
class GilbertElliottLoss:
    """Two-state loss chain evaluated lazily in event time.

    State sojourns are exponential; the chain only advances when a
    delivery asks for the loss rate, and deliveries are processed in
    event order, so the trajectory is deterministic for a given RNG
    stream even though no per-state events are ever scheduled.
    """

    def __init__(
        self,
        rng: random.Random,
        h_good: float,
        h_bad: float,
        mean_good_s: float,
        mean_bad_s: float,
        start_s: float = 0.0,
    ):
        if not (0.0 <= h_good < 1.0 and 0.0 <= h_bad < 1.0):
            raise ValueError("loss rates must be in [0, 1)")
        if mean_good_s <= 0 or mean_bad_s <= 0:
            raise ValueError("state sojourn means must be positive")
        self._rng = rng
        self.h_good = h_good
        self.h_bad = h_bad
        self.mean_good_s = mean_good_s
        self.mean_bad_s = mean_bad_s
        self.in_bad = False
        self.transitions = 0
        self._until = start_s + rng.expovariate(1.0 / mean_good_s)

    def loss_rate_at(self, now: float) -> float:
        """Advance the chain to ``now`` and return the current loss rate."""
        while now >= self._until:
            self.in_bad = not self.in_bad
            self.transitions += 1
            mean = self.mean_bad_s if self.in_bad else self.mean_good_s
            self._until += self._rng.expovariate(1.0 / mean)
        return self.h_bad if self.in_bad else self.h_good


# ----------------------------------------------------------------------
# The injector
# ----------------------------------------------------------------------
class FaultInjector:
    """Expands a :class:`FaultPlan` into scheduled actions on a world."""

    def __init__(self, sim: Simulator, world: World, plan: FaultPlan):
        self.sim = sim
        self.world = world
        self.plan = plan
        #: Fired actions as ``(time, action, target)`` — test/report aid.
        self.injected: List[Tuple[float, str, str]] = []
        self._installed = False
        # Mirror every activation into telemetry (no-ops when disabled):
        # a "fault" event per action plus a running count, so traces show
        # faults inline with the join spans they disrupt.
        self._obs = sim.telemetry
        self._obs_count = sim.telemetry.counter("faults.injected")

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Schedule every event in the plan (idempotence guarded)."""
        if self._installed:
            raise RuntimeError("fault plan already installed")
        self._installed = True
        for event in self.plan.events:
            self._install_event(event)

    def _install_event(self, event: FaultEvent) -> None:
        if isinstance(event, ApOutage):
            bssid = self._target_ap(event.bssid)
            self._at(event.at_s, self._fail_ap, bssid)
            if math.isfinite(event.duration_s):
                self._at(event.at_s + event.duration_s, self._recover_ap, bssid)
        elif isinstance(event, ApFlap):
            bssid = self._target_ap(event.bssid)
            t = event.start_s
            for _ in range(event.count):
                self._at(t, self._fail_ap, bssid)
                self._at(t + event.down_s, self._recover_ap, bssid)
                t += event.down_s + event.up_s
        elif isinstance(event, DhcpStall):
            self._at(
                event.at_s, self._dhcp_window, "stall", event.bssid,
                event.at_s + event.duration_s,
            )
        elif isinstance(event, DhcpNakBurst):
            self._at(
                event.at_s, self._dhcp_window, "nak", event.bssid,
                event.at_s + event.duration_s,
            )
        elif isinstance(event, LeaseExhaustion):
            self._at(
                event.at_s, self._dhcp_window, "exhaust", event.bssid,
                event.at_s + event.duration_s,
            )
        elif isinstance(event, BurstyLoss):
            self._at(event.at_s, self._bursty_on, event)
            if math.isfinite(event.duration_s):
                self._at(event.at_s + event.duration_s, self._bursty_off)
        elif isinstance(event, RandomOutages):
            self._expand_random_outages(event)
        else:
            raise TypeError(f"unknown fault event {event!r}")

    def _expand_random_outages(self, event: RandomOutages) -> None:
        if event.rate_per_min <= 0 or event.end_s <= event.start_s:
            return
        schedule_rng = self.sim.rng("faults.schedule")
        target_rng = self.sim.rng("faults.target")
        bssids = sorted(self.world.aps)
        t = event.start_s
        while True:
            t += schedule_rng.expovariate(event.rate_per_min / 60.0)
            if t >= event.end_s:
                break
            down_s = schedule_rng.expovariate(1.0 / event.mean_down_s)
            bssid = target_rng.choice(bssids) if bssids else None
            if bssid is None:
                continue
            self._at(t, self._fail_ap, bssid)
            self._at(t + down_s, self._recover_ap, bssid)

    # ------------------------------------------------------------------
    def _at(self, time_s: float, fn, *args) -> None:
        self.sim.schedule_at(max(time_s, self.sim.now), fn, *args)

    def _target_ap(self, bssid: Optional[str]) -> str:
        if bssid is not None:
            return bssid
        bssids = sorted(self.world.aps)
        if not bssids:
            raise ValueError("fault plan targets an AP but the world has none")
        return self.sim.rng("faults.target").choice(bssids)

    def _servers(self, bssid: Optional[str]):
        if bssid is not None:
            ap = self.world.aps.get(bssid)
            return [(bssid, ap.dhcp)] if ap is not None else []
        return [(b, self.world.aps[b].dhcp) for b in sorted(self.world.aps)]

    # ------------------------------------------------------------------
    # Actions (fire on the engine clock)
    # ------------------------------------------------------------------
    def _record(self, action: str, target: str) -> None:
        self.injected.append((self.sim.now, action, target))
        self._obs_count.inc()
        self._obs.event("fault", action=action, target=target)

    def _fail_ap(self, bssid: str) -> None:
        ap = self.world.aps.get(bssid)
        if ap is not None and not ap.failed:
            ap.fail()
            self._record("ap_fail", bssid)

    def _recover_ap(self, bssid: str) -> None:
        ap = self.world.aps.get(bssid)
        if ap is not None and ap.failed:
            ap.recover()
            self._record("ap_recover", bssid)

    def _dhcp_window(self, action: str, bssid: Optional[str], until_s: float) -> None:
        for target, server in self._servers(bssid):
            if action == "stall":
                server.stall(until_s)
            elif action == "nak":
                server.force_nak(until_s)
            else:
                server.exhaust(until_s)
            self._record(f"dhcp_{action}", target)

    def _bursty_on(self, event: BurstyLoss) -> None:
        self._settle_bursty()
        model = GilbertElliottLoss(
            self.sim.rng("medium.gilbert"),
            h_good=event.h_good,
            h_bad=event.h_bad,
            mean_good_s=event.mean_good_s,
            mean_bad_s=event.mean_bad_s,
            start_s=self.sim.now,
        )
        self.world.medium.set_bursty_loss(model)
        self._record("bursty_on", "medium")

    def _bursty_off(self) -> None:
        self._settle_bursty()
        self.world.medium.clear_bursty_loss()
        self._record("bursty_off", "medium")

    def _settle_bursty(self) -> None:
        """Advance the installed chain, if any, to now.

        Every window's chain draws its sojourns from the one
        ``medium.gilbert`` stream, lazily, when a delivery asks for the
        loss rate.  Advancing the outgoing chain to the end of its window
        makes the stream position the next window starts from depend on
        the windows alone, not on which deliveries queried the chain.
        """
        model = self.world.medium.bursty_loss
        if model is not None:
            model.loss_rate_at(self.sim.now)


def install_faults(
    sim: Simulator, world: World, plan: Optional[FaultPlan]
) -> Optional[FaultInjector]:
    """Install a plan against a built world; ``None``/empty plans are no-ops."""
    if not plan:
        return None
    injector = FaultInjector(sim, world, plan)
    injector.install()
    return injector
