"""Bench FIG14: join time vs DHCP timeout."""

from repro.experiments.fig14_join_timeouts import Fig14Result


def test_bench_fig14(benchmark, report, timeout_grid_results):
    result = benchmark.pedantic(
        lambda: Fig14Result.from_grid(timeout_grid_results),
        rounds=1,
        iterations=1,
    )
    report("Fig 14 (join time vs dhcp timeout)", result.render())
    # Reduced timers improve the median join; multi-channel slows it.
    assert result.median("ch1, ll=100ms, dhcp=200ms, 7if") < result.median(
        "ch1, default timers, 7if"
    )
    assert result.median("3ch, default timers, 7if") > result.median(
        "ch1, default timers, 7if"
    )
