"""Smoke tests: every experiment module runs at toy scale through its
``run_spec`` and returns the structures the benchmark harness depends on."""

from __future__ import annotations

import math

import pytest

from repro.experiments import (
    ap_density,
    appendix_knapsack,
    fig2_join_validation,
    fig3_beta_sensitivity,
    fig4_optimal_schedule,
    fig5_association,
    fig6_dhcp,
    fig7_tcp_fraction,
    fig8_tcp_dwell,
    fig10_micro,
    fig11_13_cdfs,
    fig14_join_timeouts,
    fig15_join_policies,
    fig16_17_usability,
    table1_switch_latency,
    table2_configs,
    table3_dhcp_failures,
    table4_channels,
    timeout_grid,
    transport_matrix,
)


class TestAnalyticalExperiments:
    def test_fig2(self):
        result = fig2_join_validation.run_spec(
            fig2_join_validation.Fig2Spec(
                beta_maxes_s=(5.0,), fractions=(0.25, 0.75), runs=4, trials_per_run=40
            )
        ).unwrap()
        gap = result.max_model_sim_gap()
        assert gap < 0.2
        text = result.render()
        assert "Fig2" in text
        assert f"max |model - sim| = {gap:.3f}" in text

    def test_fig3(self):
        result = fig3_beta_sensitivity.run_spec(
            fig3_beta_sensitivity.Fig3Spec(
                fractions=(0.25, 0.5), beta_maxes_s=(1.0, 5.0, 10.0)
            )
        ).unwrap()
        for fraction, curve in result.curves.items():
            assert curve == sorted(curve, reverse=True), fraction
        assert "Fig3" in result.render()

    def test_fig4(self):
        result = fig4_optimal_schedule.run_spec(
            fig4_optimal_schedule.Fig4Spec(speeds_mps=(2.5, 20.0), grid_steps=8)
        ).unwrap()
        for scenario in result.scenarios:
            assert scenario.ch2_bandwidth_bps[0] >= scenario.ch2_bandwidth_bps[-1]
        assert "dividing speed" in result.render()

    def test_appendix_knapsack(self):
        result = appendix_knapsack.run_spec(
            appendix_knapsack.KnapsackSpec(sizes=(4, 8), brute_force_limit=8)
        ).unwrap()
        ratio = result.greedy_optimality_ratio()
        assert 0.5 <= ratio <= 1.0
        text = result.render()
        assert "Appendix A" in text
        assert f"greedy/optimal worst ratio: {ratio:.3f}" in text


class TestSimulatorExperiments:
    def test_fig5(self):
        result = fig5_association.run_spec(
            fig5_association.Fig5Spec(fractions=(1.0,), seeds=(0,), duration_s=80.0)
        ).unwrap()
        curve = result.curves[1.0]
        assert curve.attempts_on_primary >= 0
        assert "Fig5" in result.render()

    def test_fig6(self):
        configs = (fig6_dhcp.PAPER_CONFIGS[2],)  # 100% - 100ms only
        result = fig6_dhcp.run_spec(
            fig6_dhcp.Fig6Spec(configs=configs, seeds=(0,), duration_s=80.0)
        ).unwrap()
        assert "Fig6" in result.render()

    def test_fig7(self):
        result = fig7_tcp_fraction.run_spec(
            fig7_tcp_fraction.Fig7Spec(fractions=(1.0,), measure_s=10.0)
        ).unwrap()
        assert result.throughput_kbps[0] > 100.0

    def test_fig8(self):
        result = fig8_tcp_dwell.run_spec(
            fig8_tcp_dwell.Fig8Spec(dwells_ms=(100.0,), measure_s=10.0)
        ).unwrap()
        assert len(result.throughput_kbps) == 1
        assert "non-monotonic: False" in result.render()

    def test_table1(self):
        result = table1_switch_latency.run_spec(
            table1_switch_latency.Table1Spec(interface_counts=(0, 2), switches=6)
        ).unwrap()
        assert result.latency_is_increasing()
        assert result.rows[0].mean_ms > 4.0

    def test_fig10(self):
        result = fig10_micro.run_spec(
            fig10_micro.Fig10Spec(
                backhauls_mbps=(1.0,),
                labels=("one card, stock", "Spider (100,0,0)"),
                seeds=(0,),
                measure_s=10.0,
            )
        ).unwrap()
        assert set(result.throughput_kBps) == {"one card, stock", "Spider (100,0,0)"}

    def test_timeout_grid_and_consumers(self):
        labels = ("ch1, ll=100ms, dhcp=200ms, 7if",)
        grid = timeout_grid.run_grid(labels=labels, seeds=(0,), duration_s=60.0)
        t3 = table3_dhcp_failures.Table3Result.from_grid(grid, labels)
        assert len(t3.rows) == 1
        f14 = fig14_join_timeouts.Fig14Result.from_grid(grid, labels)
        assert "Fig14" in f14.render()
        f15 = fig15_join_policies.Fig15Result.from_grid(grid, labels)
        text = f15.render()
        assert "Fig15" in text
        assert f"fastest policy: {labels[0]}" in text


class TestSuiteConsumers:
    @pytest.fixture(scope="class")
    def suite(self):
        from repro.experiments.town_runs import run_configuration_suite
        from repro.experiments.fig11_13_cdfs import FOUR_CONFIGS

        return run_configuration_suite(
            seeds=(0,), duration_s=120.0, include_cambridge=False, labels=FOUR_CONFIGS
        )

    def test_table2_from_suite(self, suite):
        result = table2_configs.Table2Result.from_suite(suite)
        assert len(result.rows) == 4
        assert result.multi_ap_gain() > 0
        text = result.render()
        assert "Table 2" in text
        assert f"multi-AP gain (1)/(2): {result.multi_ap_gain():.2f}x" in text
        assert f"best throughput:   {result.best_throughput_label()}" in text
        assert f"best connectivity: {result.best_connectivity_label()}" in text
        # Only the Cambridge drives feed the Cabernet comparison.
        assert "Cabernet" not in text

    def test_fig11_13_from_suite(self, suite):
        result = fig11_13_cdfs.Fig11to13Result.from_suite(suite)
        assert set(result.connection_durations) == set(fig11_13_cdfs.FOUR_CONFIGS)
        assert "Fig 12" in result.render()

    def test_fig16_17_from_suite(self, suite):
        result = fig16_17_usability.UsabilityResult.from_suite(suite)
        assert result.user_connection_durations
        coverage = result.supply_covers_demand_fraction()
        assert 0.0 <= coverage <= 1.0
        text = result.render()
        assert "Fig 17" in text
        assert (
            "user flows covered by ch1 multi-AP median connection: "
            f"{100 * coverage:.0f}%"
        ) in text
        assert (
            "multi-channel disruptions comparable to user gaps: "
            f"{result.disruption_comparable_to_user_gaps()}"
        ) in text


class TestStandaloneTownExperiments:
    def test_table4(self):
        result = table4_channels.run_spec(
            table4_channels.Table4Spec(seeds=(0,), duration_s=100.0)
        ).unwrap()
        assert len(result.rows) == 3
        text = result.render()
        assert "Table 4" in text
        assert (
            "single channel wins throughput: "
            f"{result.single_channel_wins_throughput()}"
        ) in text
        assert (
            "3-channel wins connectivity:    "
            f"{result.three_channel_wins_connectivity()}"
        ) in text

    def test_transport_matrix(self):
        from repro.experiments.town_runs import CONFIG_MULTI_CH_SINGLE_AP

        spec = transport_matrix.TransportMatrixSpec(
            seeds=(0,),
            duration_s=40.0,
            policies=(CONFIG_MULTI_CH_SINGLE_AP,),
            ccs=("reno", "bbr"),
            splits=(False, True),
        )
        result = transport_matrix.run_spec(spec).unwrap()
        assert len(result.cells) == 4
        cell = result.cell(CONFIG_MULTI_CH_SINGLE_AP, "reno", True)
        assert cell.throughput_kBps >= 0.0
        assert result.best_cell() in result.cells
        assert result.split_gain(CONFIG_MULTI_CH_SINGLE_AP, "bbr") >= 0.0
        text = result.render()
        assert "split=on" in text and "split=off" in text
        assert "Transport matrix" in text
        best = result.best_cell()
        assert (
            f"best cell: {best.policy} cc={best.cc} "
            f"split={'on' if best.split else 'off'} ({best.throughput_kBps:.1f} KB/s)"
        ) in text

    def test_transport_matrix_rejects_unknown_policy(self):
        from repro.runner.pool import TrialError

        spec = transport_matrix.TransportMatrixSpec(
            seeds=(0,), duration_s=10.0, policies=("nope",)
        )
        with pytest.raises(TrialError, match="unknown policies"):
            transport_matrix.run_spec(spec).unwrap()

    def test_ap_density(self):
        result = ap_density.run_spec(
            ap_density.DensitySpec(towns=("amherst",), seeds=(0,), duration_s=100.0)
        ).unwrap()
        row = result.rows[0]
        assert row.ap_count > 0
        shares = sum(row.link_share.values())
        assert shares == pytest.approx(1.0, abs=1e-6) or shares == 0.0
        assert "density" in result.render()
