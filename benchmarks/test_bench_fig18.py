"""Figure 18 bench: refresh + testing time, normalised to the baseline."""

from repro.experiments.runner import run_experiments


def test_bench_fig18_testing_overhead(run_once):
    result = run_once(run_experiments, ["fig18"], quick=True, seed=1)[0]
    for row in result.rows:
        testing = (
            float(row["testing_correct"].rstrip("%"))
            + float(row["testing_mispredicted"].rstrip("%"))
        )
        assert testing < 3.0
        assert float(row["testing_at_8GB"].rstrip("%")) < 0.01  # paper: 0.01%
    print(result.to_text())
