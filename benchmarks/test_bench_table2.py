"""Bench TAB2: average throughput and connectivity per configuration."""

from repro.experiments.table2_configs import CABERNET_THROUGHPUT_KBPS, Table2Result
from repro.experiments.town_runs import (
    CONFIG_CH1_MULTI_AP,
    CONFIG_CH6_SINGLE_AP_CAMBRIDGE,
    CONFIG_MULTI_CH_MULTI_AP,
    CONFIG_STOCK,
)


def test_bench_table2(benchmark, report, town_suite):
    result = benchmark.pedantic(
        lambda: Table2Result.from_suite(town_suite), rounds=1, iterations=1
    )
    rows = result.by_label()
    gain = result.multi_ap_gain()
    cambridge = rows[CONFIG_CH6_SINGLE_AP_CAMBRIDGE].throughput_kBps
    cabernet = CABERNET_THROUGHPUT_KBPS
    text = result.render()
    report("Table 2 (throughput & connectivity)", text)
    assert f"multi-AP gain (1)/(2): {gain:.2f}x" in text
    assert f"{cambridge / cabernet:.1f}x (paper: ~8x)" in text
    # Headline orderings of the paper.
    assert result.best_connectivity_label() == CONFIG_MULTI_CH_MULTI_AP
    assert rows[CONFIG_CH1_MULTI_AP].throughput_kBps > rows[CONFIG_STOCK].throughput_kBps
    assert gain > 1.15
    assert cambridge > 4.0 * cabernet
