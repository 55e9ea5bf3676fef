"""Bench FIG15: join delay per scheduling policy."""

from repro.experiments.fig15_join_policies import Fig15Result


def test_bench_fig15(benchmark, report, timeout_grid_results):
    result = benchmark.pedantic(
        lambda: Fig15Result.from_grid(timeout_grid_results),
        rounds=1,
        iterations=1,
    )
    text = result.render()
    report("Fig 15 (join delay per policy)", text)
    assert f"fastest policy: {result.fastest_policy()}" in text
    # Single channel with reduced timeouts is the fastest join policy.
    assert result.fastest_policy() == "ch1, ll=100ms, dhcp=200ms, 7if"
