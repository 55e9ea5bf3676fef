"""Synthetic towns: the stand-in for the paper's vehicular testbeds.

The paper's §4 experiments drive a loop through a real town where

* almost all open APs sit on channels 1/6/11 (28 % / 33 % / 34 % in their
  town; Cambridge skews toward channel 6 at 39 %),
* encounters are short — median 8 s, mean 22 s at vehicular speed — because
  APs sit off the road and behind obstructions,
* backhauls are residential-grade (around 1-5 Mb/s) and DHCP servers are
  slow and highly variable (the model's β reaches 5-10 s).

:func:`build_town` regenerates those statistics: APs are placed by a
Poisson process along a loop route, offset from the road to produce the
short-encounter distribution, with channels, backhaul rates, and DHCP
response delays drawn from the measured mixes.  :func:`lab_topology` builds
the indoor fixed-position micro-benchmark setups of Figs. 7, 8 and 10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..sim.cc import TransportSpec
from ..sim.contention import ContentionSpec
from ..sim.engine import Simulator
from ..sim.ap import AccessPoint
from ..sim.mobility import LoopMobility, StaticPosition, circle_point
from ..sim.world import World

__all__ = ["TownConfig", "TownInstance", "build_town", "lab_topology", "PRESETS"]


@dataclass(frozen=True)
class TownConfig:
    """Everything that defines a synthetic town."""

    name: str = "amherst"
    loop_length_m: float = 4000.0
    #: Open APs per kilometre of route.
    ap_density_per_km: float = 8.0
    #: Channel mix; must sum to ~1.
    channel_mix: Dict[int, float] = field(
        default_factory=lambda: {1: 0.28, 6: 0.33, 11: 0.34, 3: 0.05}
    )
    #: Perpendicular offset range from the road, metres.  Wide offsets keep
    #: encounter windows short (the paper's 8 s median at ~10 m/s).
    offset_range_m: Tuple[float, float] = (15.0, 90.0)
    #: Clustered placement: open APs concentrate in blocks (downtown cores,
    #: apartment rows), which is what creates the simultaneous multi-AP
    #: windows Spider aggregates — and the long coverage holes between
    #: blocks that Fig. 12 measures.  Cluster centres form a Poisson
    #: process; each centre hosts a Poisson-distributed number of APs
    #: spread along the route.
    clustered: bool = True
    cluster_rate_per_km: float = 1.4
    aps_per_cluster_mean: float = 6.0
    cluster_spread_m: float = 120.0
    #: Backhaul rate range (uniform draw), bits/second.
    backhaul_range_bps: Tuple[float, float] = (2.0e6, 8.0e6)
    #: DHCP OFFER delay: uniform on [beta_min, beta_max].
    dhcp_beta_s: Tuple[float, float] = (0.5, 3.4)
    #: Wireless frame-loss probability h.
    loss_rate: float = 0.1
    radio_range_m: float = 100.0
    data_rate_bps: float = 11e6
    #: One-way wired-core latency; open residential paths of the era sat
    #: around a ~150-200 ms RTT including the backhaul hops.
    wired_latency_s: float = 0.06

    def __post_init__(self) -> None:
        total = sum(self.channel_mix.values())
        if not 0.99 <= total <= 1.01:
            raise ValueError(f"channel mix sums to {total:.3f}, expected ~1")
        if self.loop_length_m <= 0 or self.ap_density_per_km < 0:
            raise ValueError("loop length must be positive, density non-negative")

    @property
    def expected_ap_count(self) -> float:
        """Mean AP count implied by density and loop length."""
        return self.ap_density_per_km * self.loop_length_m / 1000.0


@dataclass
class TownInstance:
    """A built town: the world plus placement metadata."""

    config: TownConfig
    world: World
    aps: List[AccessPoint]
    ap_arc_positions: Dict[str, float]

    def make_vehicle_mobility(self, speed_mps: float, start_arc_m: float = 0.0) -> LoopMobility:
        """A loop mobility model for this town's route."""
        return LoopMobility(speed_mps, self.config.loop_length_m, start_arc_m)

    def channel_counts(self) -> Dict[int, int]:
        """Number of placed APs per channel."""
        counts: Dict[int, int] = {}
        for ap in self.aps:
            counts[ap.channel] = counts.get(ap.channel, 0) + 1
        return counts


PRESETS: Dict[str, TownConfig] = {
    # "Our town": modest density, the measured 28/33/34 channel mix.
    "amherst": TownConfig(name="amherst"),
    # Cambridge/Boston: denser, skewed toward channel 6 (39% per Cabernet).
    "cambridge": TownConfig(
        name="cambridge",
        loop_length_m=5000.0,
        ap_density_per_km=9.0,
        channel_mix={1: 0.24, 6: 0.39, 11: 0.20, 3: 0.09, 9: 0.08},
        backhaul_range_bps=(1.5e6, 6.0e6),
    ),
    # A sparse variant for AP-density sweeps.
    "sparse": TownConfig(name="sparse", ap_density_per_km=3.0),
    # A dense downtown core.
    "dense": TownConfig(name="dense", ap_density_per_km=14.0),
    # City scale: a 10 km core loop at downtown densities — over a
    # thousand open APs in tight blocks.  This is the regime the medium's
    # mobile snapshot (repro.sim.medium_vec) exists for; the cluster
    # rate is raised so blocks stay ~10 APs rather than merging into one
    # continuous wall of radios.  DHCP is commercial-grade: downtown
    # cores run managed infrastructure, not the slow residential relays
    # behind amherst's 0.5-3.4 s tail — and with the whole tail inside
    # Spider's 2.4 s attempt budget, dense-world join completion measures
    # the *medium* (contention, interference) rather than a server
    # lottery no MAC could win.
    "city": TownConfig(
        name="city",
        loop_length_m=10_000.0,
        ap_density_per_km=120.0,
        cluster_rate_per_km=12.0,
        aps_per_cluster_mean=10.0,
        cluster_spread_m=150.0,
        backhaul_range_bps=(2.0e6, 10.0e6),
        dhcp_beta_s=(0.2, 1.8),
    ),
}


def build_town(
    sim: Simulator,
    config: Optional[TownConfig] = None,
    preset: Optional[str] = None,
    transport: Optional[TransportSpec] = None,
    contention: Optional[ContentionSpec] = None,
) -> TownInstance:
    """Instantiate a town into a fresh :class:`World`.

    AP placement uses the simulator's seeded ``town.placement`` stream, so
    the same seed reproduces the same town exactly.  ``transport`` sets the
    world-wide CC/split selection (None keeps the historical Reno default);
    ``contention`` enables the CSMA/CA multi-cell MAC (None keeps the
    global per-channel FIFO).
    """
    if config is not None and preset is not None:
        raise ValueError("pass either config or preset, not both")
    if config is None:
        config = PRESETS[preset or "amherst"]
    world = World(
        sim,
        data_rate_bps=config.data_rate_bps,
        range_m=config.radio_range_m,
        loss_rate=config.loss_rate,
        wired_latency_s=config.wired_latency_s,
        transport=transport,
        contention=contention,
    )
    rng = sim.rng("town.placement")
    channels = sorted(config.channel_mix)
    weights = [config.channel_mix[c] for c in channels]

    aps: List[AccessPoint] = []
    arc_positions: Dict[str, float] = {}
    for arc in _draw_arc_positions(config, rng):
        channel = rng.choices(channels, weights=weights)[0]
        offset = rng.uniform(*config.offset_range_m)
        # Offsets push the AP radially outward from the circular route.
        cx, cy = circle_point(arc, config.loop_length_m)
        radius = math.hypot(cx, cy)
        scale = (radius + offset) / radius
        position = (cx * scale, cy * scale)
        beta_lo, beta_hi = config.dhcp_beta_s
        ap_rng = sim.rng(f"town.dhcp.{len(aps)}")
        # A server's responsiveness is a property of the deployment (its
        # relay, uplink, load), so each AP draws a base latency once; per
        # transaction it varies only mildly around that base.  Slow APs are
        # therefore *consistently* slow — which is exactly what makes
        # Spider's join-success utility history worth keeping.
        beta_base = rng.uniform(beta_lo, beta_hi)
        ap = world.add_ap(
            channel=channel,
            position=position,
            backhaul_rate_bps=rng.uniform(*config.backhaul_range_bps),
            dhcp_response_delay=lambda r=ap_rng, b=beta_base: b * r.uniform(0.85, 1.15),
        )
        arc_positions[ap.bssid] = arc
        aps.append(ap)
    return TownInstance(config=config, world=world, aps=aps, ap_arc_positions=arc_positions)


def _draw_arc_positions(config: TownConfig, rng) -> List[float]:
    """Arc-length positions of all APs along the loop.

    Uniform mode is a homogeneous Poisson process (exponential gaps);
    clustered mode is a Matern-style cluster process whose expected total
    intensity matches ``ap_density_per_km``.
    """
    length = config.loop_length_m
    positions: List[float] = []
    if not config.clustered:
        mean_gap = 1000.0 / config.ap_density_per_km if config.ap_density_per_km > 0 else math.inf
        if mean_gap == math.inf:
            return positions
        arc = rng.expovariate(1.0 / mean_gap)
        while arc < length:
            positions.append(arc)
            arc += rng.expovariate(1.0 / mean_gap)
        return positions
    # Scale the cluster count so the expected AP total still honours the
    # configured density.
    expected_total = config.ap_density_per_km * length / 1000.0
    expected_clusters = max(config.cluster_rate_per_km * length / 1000.0, 1e-9)
    per_cluster = max(expected_total / expected_clusters, 0.0)
    mean_gap = 1000.0 / config.cluster_rate_per_km
    centre = rng.expovariate(1.0 / mean_gap)
    while centre < length:
        count = _poisson(rng, per_cluster)
        for _ in range(count):
            positions.append(
                (centre + rng.uniform(-config.cluster_spread_m, config.cluster_spread_m))
                % length
            )
        centre += rng.expovariate(1.0 / mean_gap)
    positions.sort()
    return positions


def _poisson(rng, mean: float) -> int:
    """Knuth's Poisson sampler (means here are tiny)."""
    if mean <= 0:
        return 0
    limit = math.exp(-mean)
    product = rng.random()
    count = 0
    while product > limit:
        product *= rng.random()
        count += 1
    return count


def lab_topology(
    sim: Simulator,
    ap_specs: Sequence[Tuple[int, float]],
    loss_rate: float = 0.02,
    dhcp_delay_s: float = 0.3,
    spacing_m: float = 10.0,
    wired_latency_s: float = 0.01,
    backhaul_latency_s: float = 0.02,
    data_rate_bps: float = 11e6,
    transport: Optional[TransportSpec] = None,
    contention: Optional[ContentionSpec] = None,
) -> Tuple[World, List[AccessPoint], StaticPosition]:
    """The indoor testbed: APs near a static client, clean channel.

    ``ap_specs`` is a sequence of ``(channel, backhaul_bps)``.  Returns the
    world, the APs, and a static mobility model for the client (placed at
    the origin; APs fan out at ``spacing_m`` intervals).
    """
    if not ap_specs:
        raise ValueError("need at least one AP spec")
    world = World(
        sim,
        loss_rate=loss_rate,
        wired_latency_s=wired_latency_s,
        data_rate_bps=data_rate_bps,
        transport=transport,
        contention=contention,
    )
    aps = []
    for index, (channel, backhaul) in enumerate(ap_specs):
        aps.append(
            world.add_ap(
                channel=channel,
                position=(spacing_m * (index + 1), 0.0),
                backhaul_rate_bps=backhaul,
                backhaul_latency_s=backhaul_latency_s,
                dhcp_response_delay=lambda d=dhcp_delay_s: d,
            )
        )
    return world, aps, StaticPosition(0.0, 0.0)
