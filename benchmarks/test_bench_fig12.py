"""Figure 12 bench: interval-time coverage falls as CIL grows."""

from repro.experiments.runner import run_experiments


def test_bench_fig12_coverage_vs_cil(run_once):
    result = run_once(run_experiments, ["fig12"], quick=True, seed=1)[0]
    for row in result.rows:
        assert row["cil_64ms"] >= row["cil_2048ms"] >= row["cil_32768ms"]
        assert row["cil_2048ms"] > 0.6  # the paper's CIL sweet spot
    print(result.to_text())
