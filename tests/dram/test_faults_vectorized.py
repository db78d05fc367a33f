"""Equivalence tests: the vectorised fault engine vs the scalar oracle.

The batch APIs (``failing_mask``, ``rows_fail``, ``failing_cells_batch``,
``rows_can_ever_fail``) must agree cell-for-cell with the legacy per-cell
path (``cell_fails`` / ``row_can_ever_fail`` in
``tests/oracles/fault_cells.py``), kept as the reference implementation.
Also covers the RNG-stream regression: row
polarity must be drawn independently of the cell layout.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dram.faults import FaultMap, FaultModelConfig
from tests.oracles.fault_cells import cell_fails, row_can_ever_fail

# Dense enough that a 64-row slice holds many vulnerable cells.
DENSE = FaultModelConfig(vulnerable_cell_rate=5e-3)


def _map(seed: int, rows: int = 64, bits: int = 256) -> FaultMap:
    return FaultMap(total_rows=rows, bits_per_row=bits, config=DENSE, seed=seed)


def _oracle_mask(fault_map, row, bits, interval):
    return np.array(
        [cell_fails(fault_map, c, bits, interval)
         for c in fault_map.cells_in_row(row)],
        dtype=bool,
    )


class TestMaskMatchesOracle:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        content_seed=st.integers(0, 2**32 - 1),
        interval=st.sampled_from([64.0, 328.0, 1024.0, 4096.0]),
    )
    def test_failing_mask_equals_per_cell_loop(
        self, seed, content_seed, interval
    ):
        fault_map = _map(seed)
        rng = np.random.default_rng(content_seed)
        bits = rng.integers(0, 2, size=256, dtype=np.uint8)
        for row in range(0, 64, 7):
            expected = _oracle_mask(fault_map, row, bits, interval)
            got = fault_map.failing_mask(row, bits, interval)
            assert got.dtype == np.bool_
            np.testing.assert_array_equal(got, expected)

    def test_mask_against_structured_contents(self):
        fault_map = _map(seed=11)
        patterns = [
            np.zeros(256, dtype=np.uint8),
            np.ones(256, dtype=np.uint8),
            np.tile([0, 1], 128).astype(np.uint8),
            np.tile([1, 0], 128).astype(np.uint8),
        ]
        for bits in patterns:
            for row in range(64):
                np.testing.assert_array_equal(
                    fault_map.failing_mask(row, bits, 328.0),
                    _oracle_mask(fault_map, row, bits, 328.0),
                )

    def test_failing_cells_wrapper_selects_masked_cells(self):
        fault_map = _map(seed=3)
        bits = np.ones(256, dtype=np.uint8)
        for row in range(64):
            cells = fault_map.cells_in_row(row)
            mask = fault_map.failing_mask(row, bits, 2048.0)
            assert fault_map.failing_cells(row, bits, 2048.0) == [
                c for c, m in zip(cells, mask) if m
            ]


class TestBatchRowEvaluation:
    def test_rows_fail_matches_per_row_shared_bits(self):
        fault_map = _map(seed=5)
        bits = np.tile([1, 1, 0, 0], 64).astype(np.uint8)
        rows = np.arange(64)
        batch = fault_map.rows_fail(rows, bits, 328.0)
        for row in rows:
            assert batch[row] == bool(
                _oracle_mask(fault_map, int(row), bits, 328.0).any()
            )

    def test_rows_fail_matches_per_row_matrix_bits(self):
        fault_map = _map(seed=6)
        rng = np.random.default_rng(0)
        rows = np.arange(0, 64, 3)
        matrix = rng.integers(0, 2, size=(len(rows), 256), dtype=np.uint8)
        batch = fault_map.rows_fail(rows, matrix, 500.0)
        for pos, row in enumerate(rows):
            assert batch[pos] == bool(
                _oracle_mask(fault_map, int(row), matrix[pos], 500.0).any()
            )

    def test_failing_cells_batch_matches_per_row(self):
        fault_map = _map(seed=7)
        bits = np.ones(256, dtype=np.uint8)
        rows = np.arange(64)
        got_rows, got_cols = fault_map.failing_cells_batch(rows, bits, 1024.0)
        expected = [
            (int(row), cell.physical_column)
            for row in rows
            for cell in fault_map.failing_cells(int(row), bits, 1024.0)
        ]
        assert sorted(zip(got_rows.tolist(), got_cols.tolist())) == sorted(expected)

    def test_narrow_content_masks_wide_columns(self):
        # Content narrower than the population's geometry: cells past
        # its width hold no content and must never fail.
        fault_map = _map(seed=7)
        rows = np.arange(64)
        _, wide = fault_map.failing_cells_batch(
            rows, np.ones(256, dtype=np.uint8), 4096.0
        )
        assert (wide >= 64).any()
        narrow = np.ones(64, dtype=np.uint8)
        got_rows, got_cols = fault_map.failing_cells_batch(
            rows, narrow, 4096.0
        )
        assert len(got_cols) and (got_cols < 64).all()
        np.testing.assert_array_equal(
            fault_map.rows_fail(rows, narrow, 4096.0),
            np.isin(rows, got_rows),
        )


class TestWorstCase:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        interval=st.sampled_from([128.0, 328.0, 1024.0]),
    )
    def test_rows_can_ever_fail_matches_legacy_scan(self, seed, interval):
        fault_map = _map(seed)
        rows = np.arange(64)
        expected = [row_can_ever_fail(fault_map, int(r), interval) for r in rows]
        got = fault_map.rows_can_ever_fail(rows, interval)
        assert got.tolist() == expected

    def test_all_fail_rows_equals_legacy_scan(self):
        fault_map = _map(seed=9, rows=128)
        legacy = [
            row for row in range(128)
            if row_can_ever_fail(fault_map, row, 328.0)
        ]
        assert fault_map.all_fail_rows(328.0) == legacy

    def test_rows_validation(self):
        fault_map = _map(seed=1)
        with pytest.raises(ValueError):
            fault_map.rows_can_ever_fail(np.array([64]), 328.0)
        with pytest.raises(ValueError):
            fault_map.rows_fail(
                np.array([-1]), np.zeros(256, dtype=np.uint8), 328.0
            )


class TestRngStreamIndependence:
    """Regression: polarity must not depend on the cell-layout draws.

    The old generator drew polarity from the same sequential stream as the
    cell count and columns, so changing the vulnerable-cell rate (or the
    number of cells a row happened to get) changed which rows were
    true-cell rows. Each draw kind now has a dedicated counter sub-stream.
    """

    def test_polarity_unchanged_by_cell_density(self):
        sparse = FaultMap(
            total_rows=256, bits_per_row=256,
            config=FaultModelConfig(vulnerable_cell_rate=1e-4), seed=42,
        )
        dense = FaultMap(
            total_rows=256, bits_per_row=256,
            config=FaultModelConfig(vulnerable_cell_rate=2e-2), seed=42,
        )
        assert any(
            len(sparse.cells_in_row(r)) != len(dense.cells_in_row(r))
            for r in range(256)
        )
        for row in range(256):
            assert sparse.row_is_true_cell(row) == dense.row_is_true_cell(row)

    def test_polarity_uncorrelated_with_cell_count(self):
        fault_map = FaultMap(
            total_rows=4096, bits_per_row=128,
            config=FaultModelConfig(
                vulnerable_cell_rate=2e-2, true_cell_row_fraction=0.5
            ),
            seed=17,
        )
        polarity = np.array(
            [fault_map.row_is_true_cell(r) for r in range(4096)], dtype=float
        )
        counts = np.array(
            [len(fault_map.cells_in_row(r)) for r in range(4096)], dtype=float
        )
        assert abs(polarity.mean() - 0.5) < 0.05
        # With the old correlated streams this correlation was strong.
        corr = np.corrcoef(polarity, counts)[0, 1]
        assert abs(corr) < 0.06

    def test_generation_is_batch_composition_independent(self):
        one_at_a_time = _map(seed=23)
        all_at_once = _map(seed=23)
        for row in range(64):
            one_at_a_time.cells_in_row(row)  # generates rows singly
        all_at_once.rows_can_ever_fail(np.arange(64), 328.0)  # batch
        for row in range(64):
            assert (
                one_at_a_time.cells_in_row(row)
                == all_at_once.cells_in_row(row)
            )
