"""Transport matrix: scheduling policy × congestion control × split-TCP.

The paper's Table 2 fixes the transport (Reno, end-to-end) and varies the
scheduling policy.  This experiment opens the other two axes the Spider
problem actually stresses: which congestion controller carries the flows,
and whether the AP terminates the wireless connection and relays over a
split connection (:class:`repro.sim.ap.SplitTcpProxy`).  The interesting
physics is the off-channel gap: when the client leaves an AP's channel,
ACKs stall past the RTO and loss-based senders (Reno, CUBIC) collapse
their windows for damage the *wired* path never suffered.  Splitting the
connection confines that damage to the last hop; a rate-based controller
(BBR-lite) shrugs it off; 0-RTT resumption instead attacks the join
pipeline so each encounter starts carrying data sooner.

Each cell runs on the spec's stack with only ``cc`` and ``split``
replaced, so every other TCP field and the contention choice still come
from the spec.  The full ``policy × cc × split × seed`` grid flattens
into one trial batch, so it fans out through :mod:`repro.runner` (and
any active cache or sweep fabric) exactly like every other experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

from ..analysis.ascii_plot import heatmap
from ..analysis.reporting import format_table
from ..obs.telemetry import TelemetrySnapshot
from ..sim.cc import CC_NAMES
from .api import ExperimentSpec, register
from .common import AggregatedMetrics, TownTrialSpec, aggregate_town_trials
from .town_runs import (
    CONFIG_CH1_MULTI_AP,
    CONFIG_CH1_SINGLE_AP,
    CONFIG_MULTI_CH_MULTI_AP,
    CONFIG_MULTI_CH_SINGLE_AP,
    standard_factories,
)

__all__ = [
    "TransportMatrixSpec",
    "TransportCell",
    "TransportMatrixResult",
    "SPIDER_POLICIES",
    "run_spec",
]

#: The four Spider scheduling policies of Table 2 (the stock driver is
#: excluded: its single unmanaged connection makes the CC axis mostly
#: noise).
SPIDER_POLICIES: Tuple[str, ...] = (
    CONFIG_CH1_MULTI_AP,
    CONFIG_CH1_SINGLE_AP,
    CONFIG_MULTI_CH_MULTI_AP,
    CONFIG_MULTI_CH_SINGLE_AP,
)


def _cell_label(policy: str, cc: str, split: bool) -> str:
    return f"{policy} | cc={cc} | split={'on' if split else 'off'}"


@dataclass
class TransportCell:
    """One (policy, cc, split) cell of the matrix."""

    policy: str
    cc: str
    split: bool
    throughput_kBps: float
    connectivity_pct: float


@dataclass
class TransportMatrixResult:
    """The full grid plus rendering helpers."""

    cells: List[TransportCell]
    policies: List[str]
    ccs: List[str]
    splits: List[bool]
    #: Per-trial snapshots in grid-then-seed order when the spec ran with
    #: ``telemetry=True`` (``None`` otherwise); the ``--telemetry`` export
    #: picks them up via ``repro.obs.collect_snapshots``.
    telemetry: Optional[Tuple[TelemetrySnapshot, ...]] = None

    def cell(self, policy: str, cc: str, split: bool) -> TransportCell:
        """The cell for one (policy, cc, split) combination."""
        for c in self.cells:
            if c.policy == policy and c.cc == cc and c.split == split:
                return c
        raise KeyError((policy, cc, split))

    def best_cell(self) -> TransportCell:
        """The highest-throughput cell in the grid."""
        return max(self.cells, key=lambda c: c.throughput_kBps)

    def split_gain(self, policy: str, cc: str) -> float:
        """Throughput ratio split/no-split for one policy × cc pair."""
        base = self.cell(policy, cc, False).throughput_kBps
        if base <= 0:
            return float("inf")
        return self.cell(policy, cc, True).throughput_kBps / base

    def render(self) -> str:
        """Render the result as printable text."""
        rows = [
            (
                c.policy,
                c.cc,
                "on" if c.split else "off",
                f"{c.throughput_kBps:.1f}",
                f"{c.connectivity_pct:.1f}%",
            )
            for c in self.cells
        ]
        table = format_table(
            ["(Config) Parameters", "CC", "Split", "Throughput", "Connectivity"],
            rows,
            title="Transport matrix: policy x CC x split (KB/s, connectivity)",
        )
        maps = []
        for split in self.splits:
            grid = [
                [self.cell(policy, cc, split).throughput_kBps for cc in self.ccs]
                for policy in self.policies
            ]
            maps.append(
                heatmap(
                    list(self.policies),
                    list(self.ccs),
                    grid,
                    title=f"throughput KB/s, split={'on' if split else 'off'}",
                )
            )
        best = self.best_cell()
        summary = (
            f"best cell: {best.policy} cc={best.cc} "
            f"split={'on' if best.split else 'off'} ({best.throughput_kBps:.1f} KB/s)"
        )
        return "\n\n".join([table] + maps) + "\n" + summary


@dataclass(frozen=True)
class TransportMatrixSpec(ExperimentSpec):
    """Spec for the transport matrix (town drives; one batch per grid)."""

    duration_s: float = 300.0
    policies: Tuple[str, ...] = SPIDER_POLICIES
    ccs: Tuple[str, ...] = CC_NAMES
    splits: Tuple[bool, ...] = (False, True)


@register(
    "transport-matrix",
    TransportMatrixSpec,
    summary="policy x CC x split transport grid",
)
def run_spec(spec: TransportMatrixSpec) -> TransportMatrixResult:
    factories = standard_factories()
    unknown = [p for p in spec.policies if p not in factories]
    if unknown:
        raise ValueError(f"unknown policies: {unknown}; known: {list(factories)}")
    grid = [
        (policy, cc, split)
        for policy in spec.policies
        for cc in spec.ccs
        for split in spec.splits
    ]
    stack = spec.stack
    specs = [
        TownTrialSpec(
            factory=factories[policy],
            label=_cell_label(policy, cc, split),
            seed=seed,
            duration_s=spec.duration_s,
            town=spec.town,
            telemetry=spec.telemetry,
            stack=replace(
                stack, transport=replace(stack.transport, cc=cc, split=split)
            ),
        )
        for policy, cc, split in grid
        for seed in spec.seeds
    ]
    per_label = aggregate_town_trials(specs, workers=spec.workers)
    cells = []
    snapshots = []
    for policy, cc, split in grid:
        label = _cell_label(policy, cc, split)
        metrics = per_label.get(label, AggregatedMetrics(label=label, trials=[]))
        snapshots.extend(
            t.telemetry for t in metrics.trials if t.telemetry is not None
        )
        cells.append(
            TransportCell(
                policy=policy,
                cc=cc,
                split=split,
                throughput_kBps=metrics.average_throughput_kBps,
                connectivity_pct=metrics.connectivity_pct,
            )
        )
    return TransportMatrixResult(
        cells=cells,
        policies=list(spec.policies),
        ccs=list(spec.ccs),
        splits=list(spec.splits),
        telemetry=tuple(snapshots) if spec.telemetry else None,
    )
