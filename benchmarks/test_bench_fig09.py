"""Figure 9 bench: long write intervals dominate execution time."""

from repro.experiments.runner import run_experiments


def test_bench_fig09_time_in_long_intervals(run_once):
    result = run_once(run_experiments, ["fig09"], quick=True, seed=1)[0]
    average = float(result.rows[-1]["time_in_long_intervals"].rstrip("%"))
    assert average > 80.0  # paper: 89.5%
    print(result.to_text())
