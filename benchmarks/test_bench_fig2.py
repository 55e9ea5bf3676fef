"""Bench FIG2: join-probability model vs Monte-Carlo simulation."""

from repro.experiments import fig2_join_validation


def test_bench_fig2(benchmark, report):
    result = benchmark.pedantic(
        lambda: fig2_join_validation.run_spec(
            fig2_join_validation.Fig2Spec(runs=20, trials_per_run=100)
        ).unwrap(),
        rounds=1,
        iterations=1,
    )
    gap = result.max_model_sim_gap()
    text = result.render()
    report("Fig 2 (join model vs simulation)", text)
    assert f"max |model - sim| = {gap:.3f}" in text
    # The simulation internally validates the closed form.
    assert gap < 0.08
