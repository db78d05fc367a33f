"""Figure 17 bench: PRIL's LO-REF execution-time coverage."""

from repro.experiments.runner import run_experiments


def test_bench_fig17_lo_ref_coverage(run_once):
    result = run_once(run_experiments, ["fig17"], quick=True, seed=1)[0]
    for row in result.rows:
        assert float(row["cil_1024ms"].rstrip("%")) > 75.0  # paper: ~95%
    print(result.to_text())
