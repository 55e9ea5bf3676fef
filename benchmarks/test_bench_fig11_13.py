"""Bench FIG11-13: connection/disruption/instantaneous-bandwidth CDFs."""

from repro.analysis.stats import percentile
from repro.experiments.fig11_13_cdfs import Fig11to13Result
from repro.experiments.town_runs import (
    CONFIG_CH1_MULTI_AP,
    CONFIG_MULTI_CH_MULTI_AP,
)


def test_bench_fig11_13(benchmark, report, town_suite):
    result = benchmark.pedantic(
        lambda: Fig11to13Result.from_suite(town_suite), rounds=1, iterations=1
    )
    report("Figs 11-13 (CDFs per configuration)", result.render())
    # Fig 11/12 trade-off: single-channel multi-AP holds the longest
    # connections; multi-channel multi-AP suffers the longest disruptions
    # least (its pool spans all channels).
    single = CONFIG_CH1_MULTI_AP
    multi = CONFIG_MULTI_CH_MULTI_AP
    assert result.median_connection(single) >= result.median_connection(multi)
    assert percentile(result.disruption_durations[single], 75) >= percentile(
        result.disruption_durations[multi], 75
    )
    # Fig 13: single-channel provides the better instantaneous bandwidth.
    assert result.bandwidth_percentile(single, 60) > result.bandwidth_percentile(multi, 60)
