"""Bench FIG10: aggregate throughput vs backhaul bandwidth, five configs."""

from conftest import bench_seeds
from repro.experiments import fig10_micro


def test_bench_fig10(benchmark, report):
    result = benchmark.pedantic(
        lambda: fig10_micro.run_spec(
            fig10_micro.Fig10Spec(seeds=bench_seeds(), measure_s=40.0)
        ).unwrap(),
        rounds=1,
        iterations=1,
    )
    report("Fig 10 (throughput micro-benchmark)", result.render())
    series = result.throughput_kBps
    one = series["one card, stock"]
    two = series["two cards, stock"]
    spider_one_channel = series["Spider (100,0,0)"]
    fast_switch = series["Spider (50,0,50)"]
    slow_switch = series["Spider (100,0,100)"]
    # Spider on one channel matches the two-card host (within 15%).
    for spider_value, two_value in zip(spider_one_channel, two):
        assert spider_value > 0.85 * two_value
    # And both double the single card at every backhaul point.
    assert all(s > 1.5 * o for s, o in zip(spider_one_channel, one))
    # Faster switching wins at the highest backhaul (TCP-timeout risk).
    assert fast_switch[-1] > slow_switch[-1]
