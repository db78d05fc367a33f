"""Microbenchmarks for the vectorised batch fault-evaluation engine.

Two hot paths from the experiments, each measured against the retained
legacy per-cell implementation (``tests/oracles/fault_cells.py``; run
this file from the repository root with ``python -m pytest``) on an
identically-seeded module:

* the full-module ALL-FAIL scan (Figure 4's worst-case bound), and
* a row-test sweep (the SoftMC battery / online-testing inner loop).

The vectorised paths must agree exactly with the legacy loops and beat
them by >= 10x on the ALL-FAIL scan.

A third case measures the predicates' system-order gather on Figure 3's
``--full`` module against laying every row out in silicon order with the
retired scramble-then-place composition (``tests/oracles/scramble.py``)
and evaluating that: the same failing cells, at least 10x faster.
"""

import time

import numpy as np
import pytest

from repro.dram.faults import FaultMap, FaultModelConfig
from repro.experiments import fig03
from repro.testinfra import pattern_battery
from tests.oracles import scramble
from tests.oracles.fault_cells import cell_fails, row_can_ever_fail

ROWS = 4096
BITS = 65536 + 256  # one 8 KB row plus spare columns
INTERVAL_MS = 328.0


def _fresh_map(config=None) -> FaultMap:
    if config is None:
        config = FaultModelConfig()
    return FaultMap(
        total_rows=ROWS, bits_per_row=BITS, config=config, seed=1,
    )


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


class TestAllFailScan:
    def test_vectorised_scan_10x_faster_and_identical(self, run_once,
                                                      record_bench):
        def compare():
            legacy_map = _fresh_map()
            legacy, legacy_s = _timed(lambda: [
                row for row in range(ROWS)
                if row_can_ever_fail(legacy_map, row, INTERVAL_MS)
            ])
            vector_map = _fresh_map()
            vectorised, vector_s = _timed(
                lambda: vector_map.all_fail_rows(INTERVAL_MS)
            )
            return legacy, vectorised, legacy_s, vector_s

        legacy, vectorised, legacy_s, vector_s = run_once(compare)
        record_bench(
            "faultmap_all_fail_scan",
            legacy_s=round(legacy_s, 6),
            vectorised_s=round(vector_s, 6),
            speedup=round(legacy_s / vector_s, 2),
            rows=ROWS,
        )
        assert vectorised == legacy
        # Paper: ~13.5% of rows are ALL-FAIL at the 328 ms window.
        assert 0.05 < len(vectorised) / ROWS < 0.25
        assert legacy_s / vector_s >= 10.0, (
            f"speedup only {legacy_s / vector_s:.1f}x "
            f"({legacy_s:.3f}s -> {vector_s:.3f}s)"
        )


class TestRowTestSweep:
    def test_mask_sweep_beats_per_cell_loop(self, run_once, record_bench):
        dense = FaultModelConfig(vulnerable_cell_rate=2e-4)

        def compare():
            fault_map = _fresh_map(dense)
            rng = np.random.default_rng(7)
            bits = rng.integers(0, 2, size=BITS, dtype=np.uint8)
            rows = range(0, ROWS, 4)
            fault_map.rows_can_ever_fail(  # populate outside the clock
                np.arange(ROWS), INTERVAL_MS
            )
            legacy, legacy_s = _timed(lambda: [
                sum(
                    cell_fails(fault_map, cell, bits, INTERVAL_MS)
                    for cell in fault_map.cells_in_row(row)
                )
                for row in rows
            ])
            vectorised, vector_s = _timed(lambda: [
                int(fault_map.failing_mask(row, bits, INTERVAL_MS).sum())
                for row in rows
            ])
            return legacy, vectorised, legacy_s, vector_s

        legacy, vectorised, legacy_s, vector_s = run_once(compare)
        record_bench(
            "faultmap_row_test_sweep",
            legacy_s=round(legacy_s, 6),
            vectorised_s=round(vector_s, 6),
            speedup=round(legacy_s / vector_s, 2),
            rows_swept=ROWS // 4,
        )
        assert vectorised == legacy
        assert legacy_s > vector_s, (
            f"mask sweep slower than per-cell loop "
            f"({legacy_s:.3f}s vs {vector_s:.3f}s)"
        )


class TestSparseContent:
    PATTERNS = 20

    def test_system_order_gather_10x_faster_and_identical(
        self, run_once, record_bench
    ):
        geometry, mapping, fault_map = fig03._setup(quick=False, seed=1)
        assert geometry.total_rows == 512
        assert geometry.bits_per_row == 16384
        assert fault_map.config.vulnerable_cell_rate == 2e-4
        rows = np.arange(geometry.total_rows, dtype=np.int64)
        battery = pattern_battery(n_random=90, seed=1)[: self.PATTERNS]
        interval = fig03.TEST_INTERVAL_MS

        def compare():
            fault_map.rows_can_ever_fail(rows, interval)  # populate
            sparse_s = layout_s = 0.0
            for pattern in battery:
                # Drawing the pattern is the experiment's, not the
                # predicate's, cost: it stays outside both clocks.
                system = np.stack(
                    [pattern.row_bits(int(r), geometry.bits_per_row)
                     for r in rows]
                )
                sparse, seconds = _timed(lambda: fault_map.failing_cells_batch(
                    rows, system, interval, mapping
                ))
                sparse_s += seconds
                layout, seconds = _timed(lambda: fault_map.failing_cells_batch(
                    rows, scramble.to_silicon(mapping, system), interval
                ))
                layout_s += seconds
                for got, want in zip(sparse, layout):
                    np.testing.assert_array_equal(got, want)
            return sparse_s, layout_s

        sparse_s, layout_s = run_once(compare)
        record_bench(
            "faultmap_sparse_content",
            sparse_s=round(sparse_s, 6),
            layout_s=round(layout_s, 6),
            speedup=round(layout_s / sparse_s, 2),
            rows=geometry.total_rows,
            patterns=self.PATTERNS,
        )
        assert layout_s / sparse_s >= 10.0, (
            f"speedup only {layout_s / sparse_s:.1f}x "
            f"({layout_s:.3f}s -> {sparse_s:.3f}s)"
        )
