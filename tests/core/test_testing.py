"""Tests for the Read&Compare row-test engine of the MEMCON oracle."""

import numpy as np
import pytest

from tests.oracles.memcon import RowTestEngine


@pytest.fixture
def engine(dense_fault_device):
    return RowTestEngine(dense_fault_device, test_interval_ms=2000.0)


def _fill_random(device, rows, seed=0):
    rng = np.random.default_rng(seed)
    size = device.geometry.row_size_bytes
    for row in rows:
        device.write_row(row, rng.integers(0, 256, size,
                                           dtype=np.uint8).tobytes(), 0.0)


class TestReadAndCompare:
    def test_zero_content_passes(self, engine):
        result = engine.run_test(0, now_ms=0.0)
        # All-zero rows hold no worst-case charge patterns; with true-cell
        # rows this is guaranteed, anti-cell rows may rarely fail.
        assert result.extra_reads == 2
        assert result.latency_cost_ns == 1068.0

    def test_detects_content_failures(self, engine):
        device = engine.device
        _fill_random(device, range(device.geometry.total_rows))
        results = [
            engine.run_test(row, now_ms=0.0)
            for row in range(device.geometry.total_rows)
        ]
        failed = [r for r in results if not r.passed]
        assert failed, "dense fault population must trip some rows"
        assert all(r.flipped_bits > 0 for r in failed)

    def test_failing_row_restored(self, engine):
        device = engine.device
        _fill_random(device, range(device.geometry.total_rows), seed=1)
        snapshot = {
            row: device.cells.read_row_bytes(row)
            for row in range(device.geometry.total_rows)
        }
        for row in range(device.geometry.total_rows):
            result = engine.run_test(row, now_ms=0.0)
            if not result.passed:
                # The buffered copy repaired the row.
                assert device.cells.read_row_bytes(row) == snapshot[row]

    def test_stats_counted(self, engine):
        _fill_random(engine.device, range(8))
        for row in range(8):
            engine.run_test(row, now_ms=0.0)
        assert engine.tests_run == 8
        assert 0 <= engine.tests_failed <= 8

    def test_result_window(self, engine):
        result = engine.run_test(0, now_ms=100.0)
        assert result.started_ms == 100.0
        assert result.finished_ms == 2100.0


class TestValidation:
    def test_invalid_interval_raises(self, dense_fault_device):
        with pytest.raises(ValueError):
            RowTestEngine(dense_fault_device, test_interval_ms=0.0)
