"""Bench APXA: exact vs heuristic multi-AP selection (knapsack)."""

from repro.experiments import appendix_knapsack


def test_bench_appendix_knapsack(benchmark, report):
    result = benchmark.pedantic(
        lambda: appendix_knapsack.run_spec().unwrap(), rounds=1, iterations=1
    )
    text = result.render()
    report("Appendix A (knapsack selection)", text)
    assert f"greedy/optimal worst ratio: {result.greedy_optimality_ratio():.3f}" in text
    # The greedy heuristic is near-optimal on realistic instances...
    assert result.greedy_optimality_ratio() > 0.8
    # ...and brute force explodes while greedy stays trivial.
    timed = [r for r in result.rows if r.brute_time_ms is not None]
    assert timed[-1].brute_time_ms > 20.0 * timed[-1].greedy_time_ms
