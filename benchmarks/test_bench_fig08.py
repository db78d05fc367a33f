"""Figure 8 bench: Pareto CCDF fits with paper-grade R^2."""

from repro.experiments.runner import run_experiments


def test_bench_fig08_pareto_fit(run_once):
    result = run_once(run_experiments, ["fig08"], quick=True, seed=1)[0]
    for row in result.rows:
        assert row["r_squared"] > 0.93  # paper: 0.94-0.99
    print(result.to_text())
