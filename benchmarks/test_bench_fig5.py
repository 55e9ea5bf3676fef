"""Bench FIG5: association success vs channel fraction."""

from conftest import bench_seeds
from repro.experiments import fig5_association


def test_bench_fig5(benchmark, report):
    result = benchmark.pedantic(
        lambda: fig5_association.run_spec(
            fig5_association.Fig5Spec(seeds=bench_seeds(), duration_s=240.0)
        ).unwrap(),
        rounds=1,
        iterations=1,
    )
    report("Fig 5 (association time vs f6)", result.render())
    full = result.curves[1.0]
    quarter = result.curves[0.25]
    # Full attention associates fast; fractions degrade but stay usable
    # ("link layer association is in some ways robust to switching").
    assert full.success_within(0.4) > 0.85
    assert quarter.success_within(1.0) > 0.4
