"""Integration: cross-module pipelines the library is meant to support.

These tests chain the public API the way the examples and experiments do:
content screening feeding ECC mitigation, a workload trace feeding PRIL
analysis, and the refresh-reduction to performance-simulation handoff.
"""

import numpy as np

from repro.analysis import (
    evaluate_predictor,
    fit_pareto,
    time_in_long_intervals,
)
from repro.core import (
    EccConfig,
    MemconConfig,
    plan_mitigations,
    simulate_refresh_reduction,
)
from repro.dram import DramDevice, DramGeometry
from repro.dram.faults import FaultMap, FaultModelConfig
from repro.sim import simulate_workload, speedup
from repro.traces import WORKLOADS, generate_trace


def _dense_device(seed=3, rate=2e-3):
    geometry = DramGeometry(
        channels=1, ranks=1, banks=2, rows_per_bank=32,
        row_size_bytes=512, block_size_bytes=64,
    )
    device = DramDevice(geometry, seed=seed)
    device.cells.fault_map = FaultMap(
        total_rows=geometry.total_rows,
        bits_per_row=device.cells.vendor_mapping.physical_columns,
        config=FaultModelConfig(vulnerable_cell_rate=rate),
        seed=seed,
    )
    return device


class TestScreeningToMitigation:
    def test_content_failures_feed_ecc_decisions(self):
        device = _dense_device(rate=5e-3)
        rng = np.random.default_rng(4)
        failing_by_row = {}
        for row in range(device.geometry.total_rows):
            device.write_row(
                row,
                rng.integers(0, 256, 512, dtype=np.uint8).tobytes(),
                now_ms=0.0,
            )
            failing_by_row[row] = device.cells.failing_cells(row, 328.0)
        plan = plan_mitigations(failing_by_row, ecc=EccConfig())
        assert plan.total == device.geometry.total_rows
        # ECC must strictly reduce the HI-REF population vs no-ECC.
        no_ecc = plan_mitigations(failing_by_row, ecc=None)
        assert plan.hi_ref_rows <= no_ecc.hi_ref_rows


class TestTraceToPrediction:
    def test_captured_trace_supports_full_analysis(self):
        trace = generate_trace(WORKLOADS["BlurMotion"], seed=5)
        intervals = trace.all_intervals()
        fit = fit_pareto(intervals[intervals >= 2.0], x_min=2.0,
                         x_max=trace.duration_ms / 40)
        assert fit.r_squared > 0.9
        assert time_in_long_intervals(trace) > 0.8
        quality = evaluate_predictor(trace, cil_ms=1024.0)
        assert quality.accuracy > 0.5
        report = simulate_refresh_reduction(
            trace, MemconConfig(quantum_ms=1024.0),
        )
        assert 0.5 < report.refresh_reduction < 0.75


class TestReductionToPerformance:
    def test_measured_reduction_drives_simulator(self):
        trace = generate_trace(WORKLOADS["Netflix"], seed=6,
                               duration_ms=15_000.0)
        report = simulate_refresh_reduction(
            trace, MemconConfig(quantum_ms=1024.0),
        )
        base = simulate_workload(["mcf"], density_gbit=32,
                                 window_ns=50_000.0, seed=7)
        memcon = simulate_workload(
            ["mcf"], density_gbit=32,
            refresh_reduction=report.refresh_reduction,
            concurrent_tests=256, window_ns=50_000.0, seed=7,
        )
        gain = speedup(memcon, base)
        assert gain > 1.15  # dense chip, memory-bound core: real win
