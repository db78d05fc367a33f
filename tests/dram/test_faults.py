"""Tests for the data-dependent failure model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dram.faults import FaultMap, FaultModelConfig, VulnerableCell
from tests.oracles.fault_cells import cell_fails, row_can_ever_fail

NOMINAL_MS = 328.0


@pytest.fixture
def dense_map() -> FaultMap:
    return FaultMap(
        total_rows=64,
        bits_per_row=4096,
        config=FaultModelConfig(vulnerable_cell_rate=5e-3),
        seed=11,
    )


class TestPopulation:
    def test_deterministic_per_row(self, dense_map):
        assert dense_map.cells_in_row(3) == dense_map.cells_in_row(3)

    def test_same_seed_same_population(self):
        a = FaultMap(64, 4096, FaultModelConfig(vulnerable_cell_rate=5e-3), seed=2)
        b = FaultMap(64, 4096, FaultModelConfig(vulnerable_cell_rate=5e-3), seed=2)
        assert a.cells_in_row(10) == b.cells_in_row(10)

    def test_different_seed_differs(self):
        a = FaultMap(64, 4096, FaultModelConfig(vulnerable_cell_rate=5e-3), seed=2)
        b = FaultMap(64, 4096, FaultModelConfig(vulnerable_cell_rate=5e-3), seed=3)
        assert any(a.cells_in_row(r) != b.cells_in_row(r) for r in range(64))

    def test_cells_sorted_and_in_range(self, dense_map):
        for row in range(16):
            cells = dense_map.cells_in_row(row)
            columns = [c.physical_column for c in cells]
            assert columns == sorted(columns)
            assert all(0 <= c < 4096 for c in columns)

    def test_rate_scales_population(self):
        sparse = FaultMap(256, 4096,
                          FaultModelConfig(vulnerable_cell_rate=1e-5), seed=1)
        dense = FaultMap(256, 4096,
                         FaultModelConfig(vulnerable_cell_rate=5e-3), seed=1)
        n_sparse = sum(len(sparse.cells_in_row(r)) for r in range(256))
        n_dense = sum(len(dense.cells_in_row(r)) for r in range(256))
        assert n_dense > 10 * max(n_sparse, 1)

    def test_out_of_range_row_raises(self, dense_map):
        with pytest.raises(ValueError):
            dense_map.cells_in_row(64)


class TestStress:
    def test_monotonic_in_aggressors(self, dense_map):
        s0 = dense_map.stress(0, NOMINAL_MS)
        s1 = dense_map.stress(1, NOMINAL_MS)
        s2 = dense_map.stress(2, NOMINAL_MS)
        assert s0 < s1 < s2

    def test_monotonic_in_interval(self, dense_map):
        assert (
            dense_map.stress(2, 64.0)
            < dense_map.stress(2, NOMINAL_MS)
            < dense_map.stress(2, 1024.0)
        )

    def test_exponential_growth(self, dense_map):
        # Doubling the interval multiplies stress by 2**sensitivity.
        ratio = dense_map.stress(2, 656.0) / dense_map.stress(2, 328.0)
        assert ratio == pytest.approx(
            2 ** dense_map.config.interval_sensitivity, rel=1e-6
        )

    def test_invalid_aggressors_raises(self, dense_map):
        with pytest.raises(ValueError):
            dense_map.stress(3, NOMINAL_MS)


class TestCellFailure:
    def _make_cell(self, column: int, threshold: float, true_cell: bool):
        return VulnerableCell(
            row_index=0, physical_column=column,
            threshold=threshold, true_cell=true_cell,
        )

    def test_uncharged_cell_never_fails(self, dense_map):
        cell = self._make_cell(5, threshold=0.01, true_cell=True)
        bits = np.zeros(16, dtype=np.uint8)  # true-cell storing 0: no charge
        assert not cell_fails(dense_map, cell, bits, 10_000.0)

    def test_anti_cell_polarity(self, dense_map):
        cell = self._make_cell(5, threshold=0.5, true_cell=False)
        bits = np.ones(16, dtype=np.uint8)
        bits[5] = 0  # anti-cell storing 0 is charged; neighbours aggress
        assert cell_fails(dense_map, cell, bits, NOMINAL_MS)

    def test_no_aggressors_no_failure(self, dense_map):
        cell = self._make_cell(5, threshold=0.5, true_cell=True)
        bits = np.ones(16, dtype=np.uint8)  # charged, but neighbours match
        assert not cell_fails(dense_map, cell, bits, NOMINAL_MS)

    def test_two_aggressors_beats_threshold_at_nominal(self, dense_map):
        cell = self._make_cell(5, threshold=0.9, true_cell=True)
        bits = np.zeros(16, dtype=np.uint8)
        bits[5] = 1  # charged with both neighbours opposite
        assert cell_fails(dense_map, cell, bits, NOMINAL_MS)

    def test_short_interval_rescues_cell(self, dense_map):
        cell = self._make_cell(5, threshold=0.9, true_cell=True)
        bits = np.zeros(16, dtype=np.uint8)
        bits[5] = 1
        assert not cell_fails(dense_map, cell, bits, 64.0)

    def test_edge_cell_single_neighbour(self, dense_map):
        cell = self._make_cell(0, threshold=0.95, true_cell=True)
        bits = np.zeros(16, dtype=np.uint8)
        bits[0] = 1
        # Only one (right) neighbour can aggress: stress(1) < 0.95.
        assert not cell_fails(dense_map, cell, bits, NOMINAL_MS)

    def test_cell_past_row_width_ignored(self, dense_map):
        cell = self._make_cell(100, threshold=0.01, true_cell=True)
        bits = np.ones(16, dtype=np.uint8)
        assert not cell_fails(dense_map, cell, bits, NOMINAL_MS)


class TestRowQueries:
    def test_zero_content_never_fails_row(self, dense_map):
        bits = np.zeros(4096, dtype=np.uint8)
        for row in range(16):
            polarity = dense_map.row_population(row).true_cell
            failures = dense_map.failing_cells(row, bits, NOMINAL_MS)
            if polarity:
                # True cells storing 0 hold no charge: nothing can fail.
                assert failures == []

    def test_failures_increase_with_interval(self, dense_map):
        rng = np.random.default_rng(5)
        bits = rng.integers(0, 2, 4096).astype(np.uint8)
        short = sum(
            len(dense_map.failing_cells(r, bits, 64.0)) for r in range(64)
        )
        long = sum(
            len(dense_map.failing_cells(r, bits, 2000.0)) for r in range(64)
        )
        assert long > short

    def test_failing_cells_subset_of_population(self, dense_map):
        rng = np.random.default_rng(6)
        bits = rng.integers(0, 2, 4096).astype(np.uint8)
        for row in range(16):
            failing = set(
                c.physical_column
                for c in dense_map.failing_cells(row, bits, NOMINAL_MS)
            )
            population = {
                c.physical_column for c in dense_map.cells_in_row(row)
            }
            assert failing <= population

    def test_all_fail_superset_of_any_content(self, dense_map):
        rng = np.random.default_rng(7)
        all_fail = set(dense_map.all_fail_rows(NOMINAL_MS))
        for _ in range(5):
            bits = rng.integers(0, 2, 4096).astype(np.uint8)
            content_rows = {
                r for r in range(64)
                if dense_map.failing_cells(r, bits, NOMINAL_MS)
            }
            assert content_rows <= all_fail

    @given(st.integers(min_value=0, max_value=2 ** 20))
    @settings(max_examples=20, deadline=None)
    def test_worst_case_consistency(self, content_seed):
        """row_can_ever_fail bounds failures under every random content."""
        fault_map = FaultMap(
            total_rows=8, bits_per_row=1024,
            config=FaultModelConfig(vulnerable_cell_rate=1e-2), seed=13,
        )
        rng = np.random.default_rng(content_seed)
        bits = rng.integers(0, 2, 1024).astype(np.uint8)
        for row in range(8):
            if fault_map.failing_cells(row, bits, NOMINAL_MS):
                assert row_can_ever_fail(fault_map, row, NOMINAL_MS)


class TestConfigValidation:
    @pytest.mark.parametrize("field,value", [
        ("vulnerable_cell_rate", -0.1),
        ("vulnerable_cell_rate", 1.5),
        ("true_cell_row_fraction", 2.0),
        ("single_aggressor_fraction", 0.0),
        ("single_aggressor_fraction", 1.5),
        ("baseline_stress", -1.0),
        ("nominal_interval_ms", 0.0),
        ("threshold_sigma", -0.5),
    ])
    def test_invalid_config_raises(self, field, value):
        with pytest.raises(ValueError):
            FaultModelConfig(**{field: value})
