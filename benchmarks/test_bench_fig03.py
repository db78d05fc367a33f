"""Figure 3 bench: pattern-conditional failures on the simulated chip.

Also times the battery's random rows at paper scale: every row of the 90
random patterns, drawn through ``DataPattern.row_bits`` (bits read from
raw PCG64 words) and through the retired per-row ``integers`` draw.
"""

import time

import numpy as np

from repro.experiments import fig03
from repro.experiments.runner import run_experiments
from repro.testinfra.patterns import pattern_battery


def test_bench_fig03_pattern_battery(run_once):
    result = run_once(run_experiments, ["fig03"], quick=True, seed=1)[0]
    counts = [row["failing_cells"] for row in result.rows]
    assert max(counts) > min(counts), "failures must depend on the pattern"
    print(result.to_text())


def test_bench_fig03_random_rows(run_once, record_bench):
    geometry, _, _ = fig03._setup(quick=False, seed=1)
    n_rows, n_bits = geometry.total_rows, geometry.bits_per_row
    random_patterns = pattern_battery(n_random=90, seed=1)[10:]
    seeds = range(1, 91)  # random{seed}: the battery's seeds

    def compare():
        raw_s = retired_s = 0.0
        for pattern, seed in zip(random_patterns, seeds):
            assert pattern.name == f"random{seed}"
            started = time.perf_counter()
            rows = [pattern.row_bits(row, n_bits) for row in range(n_rows)]
            raw_s += time.perf_counter() - started
            started = time.perf_counter()
            retired = [
                np.random.default_rng((seed << 20) ^ row).integers(
                    0, 2, size=n_bits, dtype=np.uint8)
                for row in range(n_rows)
            ]
            retired_s += time.perf_counter() - started
            for got, want in zip(rows, retired):
                assert got.dtype == np.uint8
                np.testing.assert_array_equal(got, want)
        return raw_s, retired_s

    raw_s, retired_s = run_once(compare)
    rows = len(random_patterns) * n_rows
    record_bench(
        "pattern_rows_raw_words",
        rows=rows,
        bits_per_row=n_bits,
        raw_words_s=round(raw_s, 4),
        retired_s=round(retired_s, 4),
        us_per_row=round(raw_s / rows * 1e6, 2),
        retired_us_per_row=round(retired_s / rows * 1e6, 2),
        speedup=round(retired_s / raw_s, 2),
    )
    assert retired_s / raw_s >= 1.5, (
        f"raw-word rows only {retired_s / raw_s:.2f}x faster "
        f"({retired_s:.2f}s -> {raw_s:.2f}s)"
    )
