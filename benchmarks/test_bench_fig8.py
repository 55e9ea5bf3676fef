"""Bench FIG8: TCP throughput vs absolute per-channel dwell (non-monotonic)."""

from repro.experiments import fig8_tcp_dwell


def _mean(xs):
    return sum(xs) / len(xs)


def test_bench_fig8(benchmark, report):
    def run():
        per_seed = [
            fig8_tcp_dwell.run_spec(
                fig8_tcp_dwell.Fig8Spec(seeds=(s,), measure_s=45.0)
            ).unwrap()
            for s in (0, 1, 2)
        ]
        merged = fig8_tcp_dwell.Fig8Result(
            dwell_ms=per_seed[0].dwell_ms,
            throughput_kbps=[
                _mean([r.throughput_kbps[i] for r in per_seed])
                for i in range(len(per_seed[0].dwell_ms))
            ],
        )
        return merged

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    text = result.render()
    report("Fig 8 (TCP vs per-channel dwell)", text)
    assert f"non-monotonic: {result.is_non_monotonic()}" in text
    # The paper's signature: throughput rises to an interior peak and then
    # falls once the off-channel gap exceeds the RTO.
    assert result.is_non_monotonic()
    assert result.throughput_kbps[-1] < max(result.throughput_kbps)
