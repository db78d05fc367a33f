"""Integration: the MEMCON controller oracle with a real device.

The unit suite mostly exercises the controller with a ``fails`` predicate;
here the controller drives the full stack — real content in a real device,
failures generated by the fault model, tests run by the Read&Compare
engine against that content.
"""

import numpy as np

from repro.core.memcon import MemconConfig
from repro.dram import DramDevice, DramGeometry
from repro.dram.faults import FaultMap, FaultModelConfig
from tests.oracles.memcon import MemconController, RefreshState, RowTestEngine


def _device(rows=32, vulnerable=1e-3, seed=3):
    geometry = DramGeometry(
        channels=1, ranks=1, banks=2, rows_per_bank=rows // 2,
        row_size_bytes=512, block_size_bytes=64,
    )
    device = DramDevice(geometry, seed=seed)
    device.cells.fault_map = FaultMap(
        total_rows=geometry.total_rows,
        bits_per_row=device.cells.vendor_mapping.physical_columns,
        config=FaultModelConfig(vulnerable_cell_rate=vulnerable),
        seed=seed,
    )
    return device


class TestEngineWiredController:
    def _run(self, device, trace_factory, test_interval_ms=328.0):
        engine = RowTestEngine(device, test_interval_ms=test_interval_ms)
        # Two pages, each written once at t=100: predicted at 2000 and
        # tested against their actual device content.
        trace = trace_factory(
            {0: [100.0], 1: [100.0]}, duration_ms=10_000.0,
            total_pages=device.geometry.total_rows,
        )
        config = MemconConfig(
            quantum_ms=1000.0,
            test_duration_ms=test_interval_ms,
            test_read_only_pages=False,
        )
        controller = MemconController(
            total_pages=device.geometry.total_rows,
            config=config,
            test_engine=engine,
        )
        return controller, controller.run(trace), engine

    def test_clean_content_reaches_lo_ref(self, trace_factory):
        device = _device(vulnerable=0.0)  # no faults at all
        controller, report, engine = self._run(device, trace_factory)
        assert engine.tests_run == 2
        assert engine.tests_failed == 0
        assert report.tests_failed == 0
        assert report.lo_ref_time_fraction > 0
        assert controller.ledger.state_of(0) is RefreshState.LO_REF

    def test_failing_content_pinned_at_hi_ref(self, trace_factory):
        device = _device(vulnerable=5e-3)
        # Fill both tested rows with adversarial random content so the
        # dense fault population trips during the idle window.
        rng = np.random.default_rng(0)
        for row in (0, 1):
            device.write_row(
                row,
                rng.integers(0, 256, 512, dtype=np.uint8).tobytes(),
                now_ms=0.0,
            )
        controller, report, engine = self._run(
            device, trace_factory, test_interval_ms=3000.0,
        )
        assert engine.tests_run == 2
        if engine.tests_failed:
            failed_pages = [
                page for page in (0, 1)
                if controller.ledger.state_of(page) is RefreshState.HI_REF
            ]
            assert len(failed_pages) == engine.tests_failed


class TestSoftMcAgreesWithEngine:
    def test_engine_failures_match_direct_fault_query(self, trace_factory):
        """A row the engine fails must actually fail per the fault model."""
        device = _device(vulnerable=5e-3, seed=9)
        rng = np.random.default_rng(1)
        engine = RowTestEngine(device, test_interval_ms=2000.0)
        for row in range(device.geometry.total_rows):
            device.write_row(
                row,
                rng.integers(0, 256, 512, dtype=np.uint8).tobytes(),
                now_ms=0.0,
            )
            expected_fail = device.cells.row_fails(row, 2000.0)
            result = engine.run_test(row, now_ms=0.0)
            assert result.passed == (not expected_fail)
