"""Extension bench: the dividing-speed claim at full-system level.

Fig. 4's model predicts channel switching stops paying as speed rises;
§2.3 asserts it for the real system.  Sweep speeds with both schedules and
check that single-channel dominance grows with speed while multi-channel's
connectivity advantage persists at crawl speed.
"""

from conftest import bench_seeds, bench_workers

from repro.experiments import speed_sweep


def test_bench_speed_sweep(benchmark, report):
    result = benchmark.pedantic(
        lambda: speed_sweep.run_spec(
            speed_sweep.SpeedSweepSpec(
                speeds_mps=(3.0, 10.0, 15.0),
                seeds=bench_seeds(),
                duration_s=400.0,
                workers=bench_workers(),
            )
        ).unwrap(),
        rounds=1,
        iterations=1,
    )
    report("Extension: system-level speed sweep", result.render())
    # Single channel wins throughput at every vehicular speed...
    for index in range(len(result.speeds_mps)):
        assert result.throughput_ratio(index) > 1.0
    # ...and its edge at speed is at least as large as at crawl.
    assert result.throughput_ratio(-1) >= 0.8 * result.throughput_ratio(0)
    # Multi-channel keeps the connectivity advantage when moving slowly.
    slow_single_conn = result.series["single-channel"][0][1]
    slow_multi_conn = result.series["multi-channel"][0][1]
    assert slow_multi_conn > slow_single_conn
