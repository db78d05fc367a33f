"""Figure 4 bench: program-content vs ALL-FAIL failing-row fractions."""

from repro.experiments.runner import run_experiments


def test_bench_fig04_failing_rows(run_once):
    result = run_once(run_experiments, ["fig04"], quick=True, seed=1)[0]
    fractions = [
        float(row["failing_rows"].rstrip("%")) for row in result.rows[:-1]
    ]
    all_fail = float(result.rows[-1]["failing_rows"].rstrip("%"))
    # Paper: 13.5% ALL-FAIL; program content 2.4x-35.2x fewer failures.
    assert 10.0 <= all_fail <= 18.0
    assert all_fail / max(fractions) > 2.0
    assert all_fail / min(fractions) > 15.0
    print(result.to_text())
