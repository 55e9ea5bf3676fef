"""Bench TAB4: 1/2/3-channel static schedules."""

from conftest import bench_duration, bench_seeds
from repro.experiments import table4_channels


def test_bench_table4(benchmark, report):
    result = benchmark.pedantic(
        lambda: table4_channels.run_spec(
            table4_channels.Table4Spec(
                seeds=bench_seeds(), duration_s=bench_duration()
            )
        ).unwrap(),
        rounds=1,
        iterations=1,
    )
    report("Table 4 (channel-count schedules)", result.render())
    assert result.single_channel_wins_throughput()
    assert result.three_channel_wins_connectivity()
