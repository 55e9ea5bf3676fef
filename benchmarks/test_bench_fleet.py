"""Extension bench: multi-vehicle fleet scaling (the paper drove 5 cars).

Aggregate fleet throughput must grow with fleet size while per-vehicle
throughput degrades gracefully (staggered vehicles mostly use different
APs; collisions cost backhaul shares, not collapse).
"""

from conftest import bench_seeds, bench_workers

from repro.experiments import fleet


def test_bench_fleet(benchmark, report):
    result = benchmark.pedantic(
        lambda: fleet.run_spec(
            fleet.FleetSpec(
                fleet_sizes=(1, 2, 5),
                seeds=bench_seeds(),
                duration_s=300.0,
                workers=bench_workers(),
            )
        ).unwrap(),
        rounds=1,
        iterations=1,
    )
    report("Extension: fleet scaling", result.render())
    assert result.aggregate_grows()
    assert result.per_vehicle_declines_gracefully()
    # Five staggered vehicles extract several times one vehicle's harvest.
    assert result.rows[-1].aggregate_kBps > 2.0 * result.rows[0].aggregate_kBps
