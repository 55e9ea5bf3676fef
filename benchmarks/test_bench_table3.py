"""Bench TAB3: DHCP failure probabilities per timeout configuration."""

from repro.experiments.table3_dhcp_failures import Table3Result


def test_bench_table3(benchmark, report, timeout_grid_results):
    result = benchmark.pedantic(
        lambda: Table3Result.from_grid(timeout_grid_results),
        rounds=1,
        iterations=1,
    )
    report("Table 3 (dhcp failure probabilities)", result.render())
    rows = {r.label: r for r in result.rows}
    reduced = rows["ch1, ll=100ms, dhcp=200ms, 7if"].failure_pct
    default = rows["ch1, default timers, 7if"].failure_pct
    multi_reduced = rows["3ch, ll=100ms, dhcp=200ms, 7if"].failure_pct
    # Giving up early can only lose patience, never gain it: reduced-timer
    # failures sit at or above the default-timer regime (the paper measures
    # roughly 2x; at bench scale the two can statistically tie).
    assert reduced > 0.6 * default
    # Channel switching while joining inflates DHCP failures — the paper's
    # "high probability of failure (as high as 30-35%)" for multi-channel.
    assert multi_reduced > reduced
    # Levels are in the paper's regime (tens of percent, not extremes).
    for row in result.rows:
        assert 2.0 < row.failure_pct < 75.0
