"""Figure 14 bench: MEMCON refresh reduction near the 75% bound."""

from repro.experiments.runner import run_experiments


def test_bench_fig14_refresh_reduction(run_once):
    result = run_once(run_experiments, ["fig14"], quick=True, seed=1)[0]
    for row in result.rows:
        for key in ("cil_512ms", "cil_1024ms", "cil_2048ms"):
            value = float(row[key].rstrip("%"))
            assert 55.0 <= value < 75.0  # paper: 64.7-74.5%, bound 75%
    print(result.to_text())
