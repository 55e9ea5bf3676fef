"""Channel assignment under contention: AP maps vs the client schedule.

The paper takes the town's channel map as given — Spider's answer to
spectrum is *client-side*: schedule the wireless interface across
channels 1/6/11 and aggregate whatever APs are there.  The multi-cell
contention model (:mod:`repro.sim.contention`) opens the other side of
that question: with carrier-sense domains and hidden-terminal collisions
modelled, the *AP-side* channel map now matters — co-channel clusters
serialize, spread clusters reuse the air.  This experiment crosses the
two:

* **AP channel-map strategies** rewrite a built town's channel map
  before traffic starts (:meth:`repro.sim.ap.AccessPoint.retune`):

  - ``measured``   — the town's as-built mix (the paper's 28/33/34%).
  - ``adversarial``— every AP on channel 6: one giant co-channel blob,
    the configuration that collapses spatial reuse entirely.
  - ``random``     — uniform draw over 1/6/11 per AP off the dedicated
    seeded ``channel.assign`` stream.
  - ``greedy``     — registration-order graph coloring: each AP picks
    the channel with the fewest already-assigned co-channel neighbours
    inside carrier-sense range (the classic least-congested-channel
    scan, cf. the multi-cell WLAN channel-assignment literature in
    PAPERS.md).

* **Client policies** face each map with single-channel pinning
  (``single-ch6``) or Spider's multi-channel schedule
  (``spider-3ch``, an equal 1/6/11 split).

The interesting cells: ``adversarial`` starves everyone regardless of
client policy (the medium itself is serialized); ``greedy`` beats
``random`` and both beat ``measured`` for the spider schedule, because
the client's channel diversity only pays when the air on each channel is
locally reusable.  Every trial runs with contention *on* — under the
legacy global FIFO the strategies are indistinguishable (the experiment
refuses to run without a contention spec rather than report noise).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from ..analysis.ascii_plot import heatmap
from ..analysis.reporting import format_table
from ..core.link_manager import SpiderConfig
from ..core.schedule import OperationMode
from ..core.spider import SpiderClient
from ..runner import TrialJob, run_jobs
from ..sim.contention import ContentionSpec
from ..sim.engine import Simulator
from ..workloads.town import PRESETS, TownConfig, TownInstance, build_town
from .api import ExperimentSpec, register

__all__ = [
    "ChannelAssignSpec",
    "ChannelAssignRow",
    "ChannelAssignResult",
    "STRATEGIES",
    "POLICIES",
    "apply_strategy",
    "run_assign_trial",
    "run_spec",
    "main",
]

#: AP channel-map strategies, in presentation order.
STRATEGIES: Tuple[str, ...] = ("measured", "adversarial", "random", "greedy")

#: Client-side policies: pin one channel vs Spider's 1/6/11 schedule.
POLICIES: Tuple[str, ...] = ("single-ch6", "spider-3ch")


def _policy_mode(policy: str, channels: Tuple[int, ...]) -> OperationMode:
    if policy == "single-ch6":
        return OperationMode.single_channel(6)
    if policy == "spider-3ch":
        return OperationMode.equal_split(channels, period_s=0.4)
    raise ValueError(f"unknown policy {policy!r}; known: {list(POLICIES)}")


def apply_strategy(
    town: TownInstance, strategy: str, channels: Tuple[int, ...]
) -> Dict[int, int]:
    """Rewrite the built town's channel map in place; returns the new mix.

    ``measured`` keeps the as-built map.  ``random`` draws per AP from the
    dedicated seeded ``channel.assign`` stream (same seed, same map —
    independent of placement randomness).  ``greedy`` colors APs in
    registration order, choosing the channel with the fewest
    already-colored neighbours within carrier-sense range; the scan uses
    spatial bins so the pass stays O(AP x local neighbours).
    """
    aps = town.aps
    if strategy == "measured":
        pass
    elif strategy == "adversarial":
        for ap in aps:
            ap.retune(6)
    elif strategy == "random":
        rng = town.world.sim.rng("channel.assign")
        for ap in aps:
            ap.retune(rng.choice(channels))
    elif strategy == "greedy":
        # Sense range spans the 3x3 cell neighbourhood (cell edge =
        # range_m), so two APs interact when within two cells of each
        # other; bin by range_m and scan the 5x5 neighbourhood.
        sense_m = 2.0 * town.world.medium.range_m
        bin_m = max(town.world.medium.range_m, 1.0)
        colored: Dict[Tuple[int, int], List[Tuple[float, float, int]]] = {}
        for ap in aps:
            x, y = ap.position()
            cx, cy = int(x // bin_m), int(y // bin_m)
            counts = {c: 0 for c in channels}
            for nx in range(cx - 2, cx + 3):
                for ny in range(cy - 2, cy + 3):
                    for ox, oy, och in colored.get((nx, ny), ()):
                        if och in counts and math.hypot(x - ox, y - oy) <= sense_m:
                            counts[och] += 1
            best = min(channels, key=lambda c: (counts[c], c))
            ap.retune(best)
            colored.setdefault((cx, cy), []).append((x, y, best))
    else:
        raise ValueError(f"unknown strategy {strategy!r}; known: {list(STRATEGIES)}")
    return town.channel_counts()


@dataclass(frozen=True)
class ChannelAssignSpec(ExperimentSpec):
    """Spec for the channel-assignment grid (strategy x policy x seed).

    Defaults run the ``city`` world at a fleet size where the contention
    model is the binding constraint; the town-override fields let the CI
    job and tests shrink the world without registering ad-hoc presets.
    """

    seeds: Tuple[int, ...] = (0,)
    duration_s: float = 8.0
    town: str = "city"
    n_vehicles: int = 40
    speed_mps: float = 10.0
    strategies: Tuple[str, ...] = STRATEGIES
    policies: Tuple[str, ...] = POLICIES
    channels: Tuple[int, ...] = (1, 6, 11)
    contention: Optional[ContentionSpec] = ContentionSpec()
    #: Town overrides (``None`` keeps the preset's value).
    loop_length_m: Optional[float] = None
    ap_density_per_km: Optional[float] = None

    def town_config(self) -> TownConfig:
        config = PRESETS[self.town]
        overrides = {
            name: value
            for name in ("loop_length_m", "ap_density_per_km")
            if (value := getattr(self, name)) is not None
        }
        return replace(config, **overrides) if overrides else config


@dataclass
class ChannelAssignRow:
    """One (strategy, policy, seed) cell in simulation observables."""

    strategy: str
    policy: str
    seed: int
    ap_count: int
    channel_map: Dict[int, int]
    join_attempts: int
    joins_completed: int
    aggregate_kBps: float
    mean_connectivity_pct: float
    frames_collided: int
    collision_rate: float
    airtime_share_by_channel: Dict[int, float]
    events_processed: int = 0

    @property
    def join_completion_rate(self) -> float:
        """Completed joins over attempts (0.0 when nothing was attempted)."""
        return self.joins_completed / self.join_attempts if self.join_attempts else 0.0


@dataclass
class ChannelAssignResult:
    """All cells plus rendering helpers."""

    rows: List[ChannelAssignRow]
    strategies: List[str]
    policies: List[str]
    channels: List[int]

    def cell(self, strategy: str, policy: str) -> List[ChannelAssignRow]:
        return [
            r for r in self.rows if r.strategy == strategy and r.policy == policy
        ]

    def _mean(self, strategy: str, policy: str, attr: str) -> float:
        rows = self.cell(strategy, policy)
        if not rows:
            return float("nan")
        return sum(getattr(r, attr) for r in rows) / len(rows)

    def render(self) -> str:
        """Render the result as printable text."""
        table = format_table(
            [
                "strategy",
                "policy",
                "seed",
                "APs",
                "joins",
                "aggregate",
                "connectivity",
                "collisions",
            ],
            [
                (
                    r.strategy,
                    r.policy,
                    r.seed,
                    r.ap_count,
                    f"{r.joins_completed}/{r.join_attempts}",
                    f"{r.aggregate_kBps:.1f} kB/s",
                    f"{r.mean_connectivity_pct:.1f}%",
                    f"{r.collision_rate:.3f}",
                )
                for r in self.rows
            ],
            title="Channel assignment under contention: AP map x client policy",
        )
        maps = [
            heatmap(
                list(self.strategies),
                list(self.policies),
                [
                    [
                        self._mean(strategy, policy, "aggregate_kBps")
                        for policy in self.policies
                    ]
                    for strategy in self.strategies
                ],
                title="aggregate goodput kB/s (mean over seeds)",
            ),
            heatmap(
                list(self.strategies),
                list(self.policies),
                [
                    [
                        self._mean(strategy, policy, "join_completion_rate")
                        for policy in self.policies
                    ]
                    for strategy in self.strategies
                ],
                title="join completion rate (mean over seeds)",
            ),
        ]
        # Per-strategy channel occupancy: how each map distributes APs.
        occupancy = []
        for strategy in self.strategies:
            rows = [r for r in self.rows if r.strategy == strategy]
            if rows:
                counts = rows[0].channel_map
                occupancy.append(
                    [float(counts.get(c, 0)) for c in self.channels]
                )
            else:
                occupancy.append([float("nan")] * len(self.channels))
        maps.append(
            heatmap(
                list(self.strategies),
                [f"ch{c}" for c in self.channels],
                occupancy,
                title="APs per channel by strategy",
            )
        )
        return "\n\n".join([table] + maps)


def run_assign_trial(
    spec: ChannelAssignSpec, strategy: str, policy: str, seed: int
) -> ChannelAssignRow:
    """One fleet drive on one (strategy, policy) cell — picklable."""
    contention = spec.contention
    if contention is None or not contention.enabled:
        raise ValueError(
            "channel-assign requires the contention model: under the global "
            "per-channel FIFO every channel map serializes identically"
        )
    sim = Simulator(seed=seed)
    town = build_town(
        sim,
        config=spec.town_config(),
        transport=spec.transport,
        contention=contention,
    )
    channel_map = apply_strategy(town, strategy, spec.channels)
    mode = _policy_mode(policy, spec.channels)
    spacing = town.config.loop_length_m / max(spec.n_vehicles, 1)
    clients = []
    for index in range(spec.n_vehicles):
        mobility = town.make_vehicle_mobility(
            spec.speed_mps, start_arc_m=index * spacing
        )
        config = SpiderConfig.spider_defaults(mode, num_interfaces=7)
        client = SpiderClient(
            sim, town.world, mobility, config, client_id=f"veh{index}"
        )
        client.start()
        clients.append(client)
    sim.run(until=spec.duration_s)
    n = max(spec.n_vehicles, 1)
    medium = town.world.medium
    state = medium.contention
    span = max(spec.duration_s, 1e-9)
    return ChannelAssignRow(
        strategy=strategy,
        policy=policy,
        seed=seed,
        ap_count=len(town.aps),
        channel_map=channel_map,
        join_attempts=sum(len(c.join_log.attempts) for c in clients),
        joins_completed=sum(len(c.join_log.join_times()) for c in clients),
        aggregate_kBps=sum(
            c.average_throughput_kBps(spec.duration_s) for c in clients
        ),
        mean_connectivity_pct=sum(
            c.connectivity_percent(spec.duration_s) for c in clients
        ) / n,
        frames_collided=medium.frames_collided,
        collision_rate=state.collision_rate(),
        airtime_share_by_channel={
            channel: airtime / span
            for channel, airtime in sorted(state.airtime_s_by_channel.items())
        },
        events_processed=sim.events_processed,
    )


@register(
    "channel-assign",
    ChannelAssignSpec,
    summary="AP channel maps vs the client schedule under contention",
)
def run_spec(spec: ChannelAssignSpec) -> ChannelAssignResult:
    jobs = [
        TrialJob(
            run_assign_trial,
            (spec, strategy, policy, seed),
            tag=("channel_assign", strategy, policy, seed),
        )
        for strategy in spec.strategies
        for policy in spec.policies
        for seed in spec.seeds
    ]
    envelopes = run_jobs(
        jobs, workers=spec.workers, timeout_s=spec.timeout_s, retries=spec.retries
    )
    return ChannelAssignResult(
        rows=[e.unwrap() for e in envelopes],
        strategies=list(spec.strategies),
        policies=list(spec.policies),
        channels=list(spec.channels),
    )


def main() -> None:
    """Command-line entry point."""
    result = run_spec().unwrap()
    print(result.render())


if __name__ == "__main__":
    main()
