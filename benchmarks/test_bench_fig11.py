"""Figure 11 bench: P(RIL > 1024 ms) grows with CIL (DHR in action)."""

from repro.experiments.runner import run_experiments


def test_bench_fig11_ril_vs_cil(run_once):
    result = run_once(run_experiments, ["fig11"], quick=True, seed=1)[0]
    for row in result.rows:
        assert row["cil_64ms"] < row["cil_512ms"] < row["cil_16384ms"]
        assert 0.4 <= row["cil_512ms"] <= 0.9  # paper: 50-80% at 512 ms
    print(result.to_text())
