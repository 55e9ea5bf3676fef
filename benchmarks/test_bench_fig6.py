"""Bench FIG6: DHCP lease acquisition vs schedule and timeout."""

from conftest import bench_seeds
from repro.experiments import fig6_dhcp


def test_bench_fig6(benchmark, report):
    result = benchmark.pedantic(
        lambda: fig6_dhcp.run_spec(
            fig6_dhcp.Fig6Spec(seeds=bench_seeds(), duration_s=240.0)
        ).unwrap(),
        rounds=1,
        iterations=1,
    )
    report("Fig 6 (dhcp lease time)", result.render())
    fast = result.curves["100% - 100ms"]
    default = result.curves["100% - default"]
    # Reduced timers acquire leases faster than default timers.
    assert fast.median_success_time_s() < default.median_success_time_s()
