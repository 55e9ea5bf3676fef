"""Fault sweep: the Table 3 join-failure breakdown under injected faults.

Table 3 measures DHCP failure probabilities against *naturally* flaky
municipal Wi-Fi.  This experiment recreates the comparison under
*controlled* infrastructure faults: the same town, the same drives, but
with a :class:`~repro.sim.faults.FaultPlan` flapping APs, stalling or
NAK-bursting DHCP servers, exhausting lease pools, or switching the medium
to Gilbert-Elliott bursty loss.  For each scenario it reports where join
attempts died (association / DHCP / verification), how many NAKs the
client ate, and how much connectivity survived relative to the same
client's fault-free baseline.

The paper's claim under test: Spider's many-interface, short-timeout,
lease-caching design degrades *more gracefully* than a stock client, whose
60 s idle after every DHCP failure turns each injected fault into a
minute of silence (§2.2.1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.reporting import format_table
from ..core.schedule import OperationMode
from ..sim.faults import (
    BurstyLoss,
    DhcpNakBurst,
    DhcpStall,
    FaultPlan,
    LeaseExhaustion,
    RandomOutages,
)
from ..obs.telemetry import TelemetrySnapshot
from .api import ExperimentSpec, register
from .common import AggregatedMetrics, TownTrialSpec, aggregate_town_trials
from .town_runs import spider_factory, stock_factory

__all__ = [
    "FaultSweepSpec",
    "FaultSweepRow",
    "FaultSweepResult",
    "BASELINE_SCENARIO",
    "scenarios",
    "run_spec",
]

BASELINE_SCENARIO = "no faults"

SPIDER = "Spider (ch1, 7if)"
STOCK = "stock client"


def scenarios(duration_s: float) -> Dict[str, Optional[FaultPlan]]:
    """The injected-fault scenarios, scaled to the trial duration.

    Faults start after a 20 s warm-up so every client gets a fair first
    join, and the damage window covers most of the remaining drive.  DHCP
    events carry no target BSSID, so they hit *every* server — the strong
    version of the Table 3 conditions.
    """
    warm = 20.0
    window = max(duration_s - 2 * warm, duration_s / 2)
    return {
        BASELINE_SCENARIO: None,
        "ap outages": FaultPlan.of(
            RandomOutages(
                start_s=warm, end_s=duration_s, rate_per_min=3.0, mean_down_s=6.0
            )
        ),
        "dhcp stall": FaultPlan.of(DhcpStall(at_s=warm, duration_s=window)),
        "nak burst": FaultPlan.of(DhcpNakBurst(at_s=warm, duration_s=window)),
        "lease exhaustion": FaultPlan.of(
            LeaseExhaustion(at_s=warm, duration_s=window)
        ),
        "bursty loss": FaultPlan.of(BurstyLoss(at_s=warm)),
        "full chaos": FaultPlan.of(
            RandomOutages(
                start_s=warm, end_s=duration_s, rate_per_min=2.0, mean_down_s=5.0
            ),
            DhcpNakBurst(at_s=warm, duration_s=window / 2),
            DhcpStall(at_s=warm + window / 2, duration_s=window / 2),
            BurstyLoss(at_s=warm),
        ),
    }


@dataclass
class FaultSweepRow:
    """One (scenario, client) cell: pooled join breakdown over seeds."""

    scenario: str
    client: str
    attempts: int
    verified: int
    association_failed: int
    dhcp_failed: int
    verify_failed: int
    incomplete: int
    naks: int
    connectivity_pct: float

    @property
    def dhcp_failure_pct(self) -> float:
        """Failed DHCP attempts / attempts that reached DHCP (Table 3)."""
        reached = self.verified + self.dhcp_failed + self.verify_failed
        if reached == 0:
            return math.nan
        return 100.0 * self.dhcp_failed / reached


@dataclass
class FaultSweepResult:
    """All sweep cells plus the graceful-degradation comparison."""

    rows: List[FaultSweepRow]
    duration_s: float
    seeds: Sequence[int]
    #: Per-trial telemetry snapshots in grid-then-seed order when the spec
    #: ran with ``telemetry=True`` (``None`` otherwise).  The generic
    #: ``--telemetry`` export finds these via ``repro.obs.collect_snapshots``.
    telemetry: Optional[Tuple[TelemetrySnapshot, ...]] = None

    def row(self, scenario: str, client: str) -> FaultSweepRow:
        """The cell for one (scenario, client) pair."""
        for r in self.rows:
            if r.scenario == scenario and r.client == client:
                return r
        raise KeyError((scenario, client))

    def connectivity_retention(self, scenario: str, client: str) -> float:
        """Connectivity under the scenario / the client's own baseline."""
        base = self.row(BASELINE_SCENARIO, client).connectivity_pct
        if base <= 0:
            return math.nan
        return self.row(scenario, client).connectivity_pct / base

    def spider_degrades_more_gracefully(self, scenario: str) -> bool:
        """Does Spider keep a larger share of its baseline than stock?"""
        spider = self.connectivity_retention(scenario, SPIDER)
        stock = self.connectivity_retention(scenario, STOCK)
        if math.isnan(spider) or math.isnan(stock):
            return False
        return spider >= stock

    def render(self) -> str:
        """Render the result as printable text."""
        table_rows = []
        for r in self.rows:
            retention = self.connectivity_retention(r.scenario, r.client)
            table_rows.append(
                (
                    r.scenario,
                    r.client,
                    r.attempts,
                    r.association_failed,
                    r.dhcp_failed,
                    r.verify_failed,
                    r.naks,
                    r.verified,
                    "-" if math.isnan(r.dhcp_failure_pct) else f"{r.dhcp_failure_pct:.1f}%",
                    f"{r.connectivity_pct:.1f}%",
                    "-" if math.isnan(retention) else f"{100.0 * retention:.0f}%",
                )
            )
        return format_table(
            [
                "scenario",
                "client",
                "attempts",
                "assoc fail",
                "dhcp fail",
                "verify fail",
                "naks",
                "verified",
                "dhcp fail rate",
                "connectivity",
                "vs own baseline",
            ],
            table_rows,
            title="Fault sweep: join-failure breakdown under injected faults (cf. Table 3)",
        )


def _pool_row(
    scenario: str, client: str, metrics: AggregatedMetrics
) -> FaultSweepRow:
    counts = {
        "attempts": 0,
        "verified": 0,
        "association_failed": 0,
        "dhcp_failed": 0,
        "verify_failed": 0,
        "incomplete": 0,
        "naks": 0,
    }
    for trial in metrics.trials:
        for key, value in trial.join_log.failure_breakdown().items():
            counts[key] += value
    return FaultSweepRow(
        scenario=scenario,
        client=client,
        connectivity_pct=metrics.connectivity_pct,
        **counts,
    )


@dataclass(frozen=True)
class FaultSweepSpec(ExperimentSpec):
    """Spec for the injected-fault sweep (``None`` = every scenario)."""

    scenario_names: Optional[Tuple[str, ...]] = None


@register("fault-sweep", FaultSweepSpec, summary="join failures under injected faults")
def run_spec(spec: FaultSweepSpec) -> FaultSweepResult:
    """The full ``scenario x client x seed`` grid fans out as one batch;
    trials that crash or hang are dropped with a warning (the envelope
    machinery) rather than sinking the sweep.
    """
    plans = scenarios(spec.duration_s)
    if spec.scenario_names is not None:
        missing = set(spec.scenario_names) - set(plans)
        if missing:
            raise KeyError(f"unknown scenarios: {sorted(missing)}")
        plans = {name: plans[name] for name in spec.scenario_names}
    clients: List[Tuple[str, object]] = [
        (SPIDER, spider_factory(OperationMode.single_channel(1), 7)),
        (STOCK, stock_factory()),
    ]
    grid = [
        (scenario, client_label, factory, plan)
        for scenario, plan in plans.items()
        for client_label, factory in clients
    ]
    specs = [
        TownTrialSpec(
            factory=factory,
            label=f"{scenario} / {client_label}",
            seed=seed,
            duration_s=spec.duration_s,
            town=spec.town,
            faults=plan,
            telemetry=spec.telemetry,
            stack=spec.stack,
        )
        for scenario, client_label, factory, plan in grid
        for seed in spec.seeds
    ]
    per_label = aggregate_town_trials(specs, workers=spec.workers)
    rows = [
        _pool_row(
            scenario,
            client_label,
            per_label.get(
                f"{scenario} / {client_label}",
                AggregatedMetrics(label=f"{scenario} / {client_label}", trials=[]),
            ),
        )
        for scenario, client_label, _factory, _plan in grid
    ]
    snapshots = None
    if spec.telemetry:
        # Grid-then-seed order mirrors the spec batch, so serial and
        # parallel sweeps export identical snapshot sequences.
        snapshots = tuple(
            trial.telemetry
            for scenario, client_label, _factory, _plan in grid
            for trial in per_label.get(
                f"{scenario} / {client_label}",
                AggregatedMetrics(label="", trials=[]),
            ).trials
            if trial.telemetry is not None
        )
    return FaultSweepResult(
        rows=rows, duration_s=spec.duration_s, seeds=spec.seeds, telemetry=snapshots
    )
