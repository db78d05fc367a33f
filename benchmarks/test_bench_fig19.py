"""Figure 19 bench: interval halving barely moves P(RIL > 1024 ms)."""

from repro.experiments.runner import run_experiments


def test_bench_fig19_cache_sensitivity(run_once):
    result = run_once(run_experiments, ["fig19"], quick=True, seed=1)[0]
    for row in result.rows:
        assert abs(row["delta"]) < 0.1
    print(result.to_text())
