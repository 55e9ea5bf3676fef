"""Bench TAB1: channel-switch latency vs associated interfaces."""

from repro.experiments import table1_switch_latency


def test_bench_table1(benchmark, report):
    result = benchmark.pedantic(
        lambda: table1_switch_latency.run_spec().unwrap(), rounds=1, iterations=1
    )
    report("Table 1 (switch latency)", result.render())
    assert result.latency_is_increasing()
    # ~5-6 ms, like the paper's Table 1.
    assert 4.0 < result.rows[0].mean_ms < 7.0
    assert result.rows[-1].mean_ms < 8.0
