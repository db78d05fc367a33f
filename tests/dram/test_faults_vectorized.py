"""Equivalence tests: the vectorised fault engine vs the scalar oracle.

The batch APIs (``failing_mask``, ``rows_fail``, ``failing_cells_batch``,
``rows_can_ever_fail``) must agree cell-for-cell with the legacy per-cell
path (``cell_fails`` / ``row_can_ever_fail`` in
``tests/oracles/fault_cells.py``), kept as the reference implementation.
Given a vendor mapping, the predicates read system-order content through
it; they must agree with the same calls on the silicon layout built by
the scramble-then-place composition that path replaced
(``tests/oracles/scramble.py``). Mis-shaped
content is rejected. Also covers the RNG-stream regression: row
polarity must be drawn independently of the cell layout.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dram.cell_array import CellArray
from repro.dram.faults import FaultMap, FaultModelConfig
from repro.dram.geometry import DramGeometry
from repro.dram.scramble import make_vendor_mapping
from tests.oracles import scramble as layout
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


class TestContentShape:
    """Content that fits neither one row nor the batch raises, naming both
    shapes, instead of being read partially or failing on an index."""

    def test_matrix_taller_than_batch_raises(self):
        fault_map = _map(seed=1)
        content = np.ones((20, 256), dtype=np.uint8)
        with pytest.raises(ValueError, match=r"\(20, 256\).*\(8, 256\)"):
            fault_map.rows_fail(np.arange(8), content, 328.0)
        with pytest.raises(ValueError, match=r"\(20, 256\).*\(8, 256\)"):
            fault_map.failing_cells_batch(np.arange(8), content, 328.0)

    def test_matrix_shorter_than_batch_raises(self):
        fault_map = _map(seed=1)
        content = np.ones((4, 256), dtype=np.uint8)
        with pytest.raises(ValueError, match=r"\(4, 256\).*\(8, 256\)"):
            fault_map.rows_fail(np.arange(8), content, 328.0)

    def test_three_dimensional_content_raises(self):
        fault_map = _map(seed=1)
        with pytest.raises(ValueError, match=r"\(8, 2, 256\)"):
            fault_map.rows_fail(
                np.arange(8), np.ones((8, 2, 256), dtype=np.uint8), 328.0
            )

    def test_failing_mask_takes_one_row_only(self):
        fault_map = _map(seed=1)
        content = np.ones((1, 256), dtype=np.uint8)
        with pytest.raises(ValueError, match=r"\(1, 256\).*\(256,\)"):
            fault_map.failing_mask(0, content, 328.0)
        with pytest.raises(ValueError, match=r"\(1, 256\).*\(256,\)"):
            fault_map.failing_columns(0, content, 328.0)

    def test_width_must_match_mapping_system_columns(self):
        mapping = make_vendor_mapping(columns=128, seed=2, spare_columns=8)
        fault_map = _map(seed=1, bits=mapping.physical_columns)
        # The silicon width is not the system width: with a mapping,
        # content is read by system position.
        silicon_wide = np.ones(mapping.physical_columns, dtype=np.uint8)
        with pytest.raises(ValueError, match=r"\(136,\).*\(128,\)"):
            fault_map.failing_mask(0, silicon_wide, 328.0, mapping)
        with pytest.raises(ValueError, match=r"\(8, 64\).*\(8, 128\)"):
            fault_map.rows_fail(
                np.arange(8), np.ones((8, 64), dtype=np.uint8), 328.0, mapping
            )
        fault_map.rows_fail(
            np.arange(8), np.ones(128, dtype=np.uint8), 328.0, mapping
        )


#: Rows of the differential populations; dense enough that, over 24
#: rows, cells sit at silicon columns 0 and width - 1 in every example.
GATHER_ROWS = 24
GATHER_DENSE = FaultModelConfig(vulnerable_cell_rate=0.5)


class TestSystemOrderGather:
    """The system-order path vs the silicon layout it replaced."""

    @settings(max_examples=40, deadline=None)
    @given(
        row_bytes=st.integers(1, 16),
        mapping_seed=st.integers(0, 2**16),
        spare_columns=st.integers(0, 8),
        faulty_fraction=st.sampled_from([0.0, 0.05, 0.3]),
        content_seed=st.integers(0, 2**32 - 1),
        dtype=st.sampled_from([np.uint8, np.bool_]),
        interval=st.sampled_from([64.0, 328.0, 1024.0, 4096.0]),
    )
    def test_predicates_match_silicon_layout(
        self, row_bytes, mapping_seed, spare_columns, faulty_fraction,
        content_seed, dtype, interval,
    ):
        columns = 8 * row_bytes
        mapping = make_vendor_mapping(
            columns, mapping_seed, spare_columns, faulty_fraction
        )
        width = mapping.physical_columns
        fault_map = FaultMap(
            GATHER_ROWS, width, GATHER_DENSE, seed=mapping_seed
        )
        rows = np.arange(GATHER_ROWS)
        cols = np.concatenate(
            [fault_map.row_population(r).columns for r in range(GATHER_ROWS)]
        )
        assert (cols == 0).any() and (cols == width - 1).any()

        rng = np.random.default_rng(content_seed)
        one = rng.integers(0, 2, size=columns).astype(dtype)
        matrix = rng.integers(0, 2, size=(GATHER_ROWS, columns)).astype(dtype)
        for content, silicon in (
            (one, layout.to_silicon(mapping, one)),
            (matrix, layout.to_silicon(mapping, matrix)),
        ):
            got = fault_map.failing_cells_batch(rows, content, interval, mapping)
            want = fault_map.failing_cells_batch(rows, silicon, interval)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])
            np.testing.assert_array_equal(
                fault_map.rows_fail(rows, content, interval, mapping),
                fault_map.rows_fail(rows, silicon, interval),
            )
            for row in range(0, GATHER_ROWS, 5):
                row_content = content if content.ndim == 1 else content[row]
                row_silicon = silicon if silicon.ndim == 1 else silicon[row]
                mask = fault_map.failing_mask(row, row_silicon, interval)
                # The layout side itself holds to the scalar oracle, so
                # the two sides cannot share an edge-handling bug.
                np.testing.assert_array_equal(
                    mask, _oracle_mask(fault_map, row, row_silicon, interval)
                )
                np.testing.assert_array_equal(
                    fault_map.failing_mask(row, row_content, interval, mapping),
                    mask,
                )
                np.testing.assert_array_equal(
                    fault_map.failing_columns(
                        row, row_content, interval, mapping
                    ),
                    fault_map.failing_columns(row, row_silicon, interval),
                )

    @settings(max_examples=30, deadline=None)
    @given(
        row_bytes=st.integers(1, 16),
        mapping_seed=st.integers(0, 2**16),
        spare_columns=st.integers(0, 8),
        faulty_fraction=st.sampled_from([0.0, 0.05, 0.3]),
        content_seed=st.integers(0, 2**32 - 1),
        interval=st.sampled_from([64.0, 328.0, 1024.0, 4096.0]),
    )
    def test_decay_row_matches_silicon_flip(
        self, row_bytes, mapping_seed, spare_columns, faulty_fraction,
        content_seed, interval,
    ):
        geometry = DramGeometry(
            channels=1, ranks=1, banks=1, rows_per_bank=GATHER_ROWS,
            row_size_bytes=row_bytes, block_size_bytes=1,
        )
        mapping = make_vendor_mapping(
            geometry.bits_per_row, mapping_seed, spare_columns,
            faulty_fraction,
        )
        cells = CellArray(
            geometry,
            fault_map=FaultMap(
                GATHER_ROWS, mapping.physical_columns, GATHER_DENSE,
                seed=mapping_seed,
            ),
            vendor_mapping=mapping,
        )
        rng = np.random.default_rng(content_seed)
        for row in range(0, GATHER_ROWS, 3):
            cells.write_row_bits(
                row, rng.integers(0, 2, size=geometry.bits_per_row)
            )
        for row in range(GATHER_ROWS):
            silicon = layout.to_silicon(mapping, cells.read_row_bits(row))
            flipped = cells.fault_map.failing_columns(row, silicon, interval)
            silicon[flipped] ^= 1
            np.testing.assert_array_equal(
                cells.decay_row(row, interval),
                layout.from_silicon(mapping, silicon),
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
            assert (
                sparse.row_population(row).true_cell
                == dense.row_population(row).true_cell
            )

    def test_polarity_uncorrelated_with_cell_count(self):
        fault_map = FaultMap(
            total_rows=4096, bits_per_row=128,
            config=FaultModelConfig(
                vulnerable_cell_rate=2e-2, true_cell_row_fraction=0.5
            ),
            seed=17,
        )
        polarity = np.array(
            [fault_map.row_population(r).true_cell for r in range(4096)],
            dtype=float,
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

    def test_populations_survive_table_regrowth(self):
        # At 12.8 cells a row, 512 rows hold over 4,096 cells: the flat
        # arrays start at 1,024 cells and regrow at least three times.
        config = FaultModelConfig(vulnerable_cell_rate=0.05)
        rows, bits = 512, 256
        grown = FaultMap(rows, bits, config, seed=31)
        early = grown.row_population(0)
        early_columns = early.columns.copy()
        early_thresholds = early.thresholds.copy()
        buffers = [grown._columns]
        sizes = itertools.cycle((1, 2, 3))
        start = 1
        while start < rows:
            batch = np.arange(start, min(start + next(sizes), rows))
            grown.rows_can_ever_fail(batch, 328.0)
            if grown._columns is not buffers[-1]:
                buffers.append(grown._columns)
            start = int(batch[-1]) + 1
        assert len(buffers) >= 4  # the first allocation, then 3 regrowths
        whole = FaultMap(rows, bits, config, seed=31)
        whole.rows_can_ever_fail(np.arange(rows), 328.0)
        cells = 0
        for row in range(rows):
            got, want = grown.row_population(row), whole.row_population(row)
            np.testing.assert_array_equal(got.columns, want.columns)
            np.testing.assert_array_equal(got.thresholds, want.thresholds)
            assert got.true_cell == want.true_cell
            cells += len(got.columns)
        assert cells > 4096
        # A view handed out before the first regrowth keeps its buffer.
        np.testing.assert_array_equal(early.columns, early_columns)
        np.testing.assert_array_equal(early.thresholds, early_thresholds)
