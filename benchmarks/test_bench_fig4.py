"""Bench FIG4: optimal per-channel bandwidth vs speed (dividing speed)."""

from repro.experiments import fig4_optimal_schedule


def test_bench_fig4(benchmark, report):
    result = benchmark.pedantic(
        lambda: fig4_optimal_schedule.run_spec().unwrap(), rounds=1, iterations=1
    )
    report("Fig 4 (optimal schedule vs speed)", result.render())
    by_name = {s.name: s for s in result.scenarios}
    for scenario in result.scenarios:
        # The join channel's share shrinks with speed.
        assert scenario.ch2_bandwidth_bps[0] >= scenario.ch2_bandwidth_bps[-1]
    # Where the joined channel dominates (75/25), the weak join channel is
    # fully abandoned by 20 m/s — the dividing speed exists.
    assert by_name["75/25"].dividing_speed_mps <= 20.0
    assert by_name["75/25"].ch2_bandwidth_bps[-1] == 0.0
    # In the balanced scenario the model keeps a shrinking slice on the
    # join channel (visiting it is costless once the joined channel's Eq. 9
    # cap binds); the share at 20 m/s is well below the crawl-speed share.
    fifty = by_name["50/50"]
    assert fifty.ch2_bandwidth_bps[-1] < 0.6 * fifty.ch2_bandwidth_bps[0]
