"""Bench FIG3: join probability vs beta_max."""

from repro.experiments import fig3_beta_sensitivity


def test_bench_fig3(benchmark, report):
    result = benchmark.pedantic(
        lambda: fig3_beta_sensitivity.run_spec().unwrap(), rounds=1, iterations=1
    )
    report("Fig 3 (join probability vs beta_max)", result.render())
    # Shorter maximum join times => higher join probability, per fraction.
    for fraction, curve in result.curves.items():
        assert curve == sorted(curve, reverse=True)
    # And more channel time dominates at every beta_max.
    fractions = sorted(result.curves)
    for lo, hi in zip(fractions[:-1], fractions[1:]):
        assert all(a <= b + 1e-12 for a, b in zip(result.curves[lo], result.curves[hi]))
