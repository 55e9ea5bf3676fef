"""Fault sweep bench: the Table 3 breakdown under *injected* faults.

The artifact benches reproduce the paper's numbers against naturally
imperfect infrastructure; this one turns the dials deliberately (AP
outages, DHCP stalls/NAK bursts/exhaustion, bursty loss) and checks the
paper's robustness claim end to end: Spider's many-interface short-timeout
design keeps a larger share of its fault-free connectivity than a stock
client, whose 60 s idle after every DHCP failure turns each fault into a
minute of silence (§2.2.1).

Wall time lands in ``BENCH_perf.json`` (merged, not overwritten) so the
sweep's cost is tracked alongside the perf harness numbers.
"""

from __future__ import annotations

import math
import time

from conftest import bench_duration, bench_seeds, bench_workers, merge_perf_results

from repro.experiments import fault_sweep


def _duration() -> float:
    # Floor at 300 s: the stock client needs that long for a meaningful
    # fault-free baseline (a single early DHCP failure idles it 60 s);
    # cap at 420 s to keep the full scenario grid affordable in CI.
    return min(max(bench_duration(), 300.0), 420.0)


def test_bench_fault_sweep(report):
    seeds = bench_seeds()
    t0 = time.perf_counter()
    result = fault_sweep.run_spec(
        fault_sweep.FaultSweepSpec(
            seeds=seeds, duration_s=_duration(), workers=bench_workers()
        )
    ).unwrap()
    wall = time.perf_counter() - t0
    report("fault_sweep (cf. Table 3)", result.render())

    scenario_names = sorted({r.scenario for r in result.rows})
    assert fault_sweep.BASELINE_SCENARIO in scenario_names
    assert len(scenario_names) == len(fault_sweep.scenarios(_duration()))

    # The baseline must be long enough that *both* clients get off the
    # ground — retention ratios are meaningless against a 0% baseline.
    for client in (fault_sweep.SPIDER, fault_sweep.STOCK):
        assert result.row(fault_sweep.BASELINE_SCENARIO, client).connectivity_pct > 0

    # The robustness claim, on the scenario that most directly recreates
    # Table 3's conditions: every DHCP server goes dark mid-drive.
    assert result.spider_degrades_more_gracefully("dhcp stall")

    retention = {
        name: {
            "spider": round(result.connectivity_retention(name, fault_sweep.SPIDER), 4),
            "stock": round(result.connectivity_retention(name, fault_sweep.STOCK), 4),
        }
        for name in scenario_names
        if name != fault_sweep.BASELINE_SCENARIO
        and not math.isnan(result.connectivity_retention(name, fault_sweep.SPIDER))
    }
    merge_perf_results(
        {
            "fault_sweep": {
                "wall_s": round(wall, 4),
                "trials": len(result.rows) * len(seeds),
                "duration_s": _duration(),
                "workers": bench_workers(),
                "retention": retention,
            }
        }
    )
