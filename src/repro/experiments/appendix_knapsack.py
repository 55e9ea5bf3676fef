"""Appendix A: multi-AP selection as 0-1 knapsack.

The paper proves optimal AP-subset selection NP-hard by reduction to 0-1
knapsack and argues that an exact solution is "infeasible in mobile
scenarios where the node is within range of an access point for only a few
seconds."  This experiment makes that argument quantitative:

* brute force is exact but exponential,
* the DP is exact but pseudo-polynomial (cost grows with the budget grid),
* the greedy ratio heuristic is near-instant and near-optimal on realistic
  instances — the trade Spider's utility heuristic banks on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..analysis.reporting import format_table
from ..core.ap_selection import (
    ApOption,
    knapsack_select_bruteforce,
    knapsack_select_dp,
    knapsack_select_greedy,
)
from ..sim.engine import Simulator
from .api import ExperimentSpec, register

__all__ = [
    "KnapsackSpec",
    "KnapsackTrialRow",
    "KnapsackResult",
    "random_instance",
    "run_spec",
]


def random_instance(n_aps: int, seed: int = 0, budget: float = 30.0) -> List[ApOption]:
    """A road segment's worth of AP options.

    Values model ``T_i × W_i`` (seconds in range times offered Mb/s);
    costs model ``T_i + overhead`` — grid-aligned to 0.1 so the DP is exact.
    """
    rng = Simulator(seed=seed).rng("knapsack")
    options = []
    for index in range(n_aps):
        time_in_range = round(rng.uniform(2.0, 20.0), 1)
        bandwidth = rng.choice([1.0, 2.0, 4.0, 8.0])
        overhead = round(rng.uniform(0.5, 3.0), 1)
        options.append(
            ApOption(
                name=f"ap{index:02d}",
                value=time_in_range * bandwidth,
                cost=round(time_in_range + overhead, 1),
            )
        )
    return options


@dataclass
class KnapsackTrialRow:
    """One instance size's solver values and timings."""
    n_aps: int
    dp_value: float
    greedy_value: float
    brute_value: Optional[float]  # None when skipped
    dp_time_ms: float
    greedy_time_ms: float
    brute_time_ms: Optional[float]  # None when skipped


@dataclass
class KnapsackResult:
    """All knapsack instances."""
    budget: float
    rows: List[KnapsackTrialRow]

    def greedy_optimality_ratio(self) -> float:
        """Worst greedy/optimal value ratio across instances."""
        ratios = [
            r.greedy_value / r.dp_value for r in self.rows if r.dp_value > 0
        ]
        return min(ratios) if ratios else float("nan")

    def render(self) -> str:
        """Render the result as printable text."""
        table = format_table(
            ["n", "DP value", "greedy", "brute", "DP ms", "greedy ms", "brute ms"],
            [
                (
                    r.n_aps,
                    f"{r.dp_value:.1f}",
                    f"{r.greedy_value:.1f}",
                    "-" if r.brute_value is None else f"{r.brute_value:.1f}",
                    f"{r.dp_time_ms:.2f}",
                    f"{r.greedy_time_ms:.3f}",
                    "-" if r.brute_time_ms is None else f"{r.brute_time_ms:.2f}",
                )
                for r in self.rows
            ],
            title="Appendix A: exact vs heuristic multi-AP selection",
        )
        return (
            f"{table}\n"
            f"greedy/optimal worst ratio: {self.greedy_optimality_ratio():.3f}"
        )


@dataclass(frozen=True)
class KnapsackSpec(ExperimentSpec):
    """Spec for Appendix A (uses ``seeds[0]``; ``town`` unused)."""

    sizes: Tuple[int, ...] = (4, 8, 12, 16, 20, 40)
    budget: float = 30.0
    brute_force_limit: int = 16


@register("knapsack", KnapsackSpec, summary="exact vs heuristic multi-AP selection")
def run_spec(spec: KnapsackSpec) -> KnapsackResult:
    rows = []
    for n in spec.sizes:
        options = random_instance(n, seed=spec.seed, budget=spec.budget)
        t0 = time.perf_counter()
        dp_value, _ = knapsack_select_dp(options, spec.budget, resolution=0.1)
        dp_ms = 1e3 * (time.perf_counter() - t0)
        t0 = time.perf_counter()
        greedy_value, _ = knapsack_select_greedy(options, spec.budget)
        greedy_ms = 1e3 * (time.perf_counter() - t0)
        if n <= spec.brute_force_limit:
            t0 = time.perf_counter()
            brute_value, _ = knapsack_select_bruteforce(options, spec.budget)
            brute_ms = 1e3 * (time.perf_counter() - t0)
        else:
            brute_value, brute_ms = None, None
        rows.append(
            KnapsackTrialRow(
                n_aps=n,
                dp_value=dp_value,
                greedy_value=greedy_value,
                brute_value=brute_value,
                dp_time_ms=dp_ms,
                greedy_time_ms=greedy_ms,
                brute_time_ms=brute_ms,
            )
        )
    return KnapsackResult(budget=spec.budget, rows=rows)
