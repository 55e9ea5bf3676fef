"""Bench FIG7: TCP throughput vs fraction of time on the primary channel."""

from repro.experiments import fig7_tcp_fraction


def test_bench_fig7(benchmark, report):
    result = benchmark.pedantic(
        lambda: fig7_tcp_fraction.run_spec(
            fig7_tcp_fraction.Fig7Spec(measure_s=45.0)
        ).unwrap(),
        rounds=1,
        iterations=1,
    )
    report("Fig 7 (TCP vs primary-channel fraction)", result.render())
    # Increasing trend: full attention beats every fractional schedule by a
    # wide margin, and the lowest fraction is the worst half of the sweep.
    assert result.throughput_kbps[-1] == max(result.throughput_kbps)
    assert result.throughput_kbps[-1] > 3.0 * result.throughput_kbps[0]
