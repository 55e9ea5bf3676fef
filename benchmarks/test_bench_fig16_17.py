"""Bench FIG16-17: user demand vs Spider supply."""

from repro.experiments.fig16_17_usability import UsabilityResult


def test_bench_fig16_17(benchmark, report, town_suite):
    result = benchmark.pedantic(
        lambda: UsabilityResult.from_suite(town_suite), rounds=1, iterations=1
    )
    coverage = result.supply_covers_demand_fraction()
    report("Figs 16-17 (usability study)", result.render())
    # "Spider can support all the TCP flows that users need": the typical
    # Spider connection outlives the bulk of user flows.
    assert coverage > 0.6
