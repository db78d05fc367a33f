"""Ablation benches for the design choices DESIGN.md calls out.

* PRIL's single-write tracking vs an oracle interval predictor and an
  always-test policy (footnote 8's design choice).
* Read&Compare vs Copy&Compare test mode (latency vs controller storage).
* Write-buffer capacity (footnote 10's overflow-degrades-gracefully rule).
* Quantum length sensitivity.

The buffer-capacity sweep runs the event-driven controller oracle from
``tests/oracles/memcon.py``, the one MEMCON model with a bounded PRIL
buffer; run this file from the repository root with ``python -m pytest``
so that import resolves.
"""

import numpy as np

from repro.core.costmodel import CostModel, TestMode
from repro.core.memcon import MemconConfig, simulate_refresh_reduction
from repro.traces.generator import generate_trace
from repro.traces.workloads import WORKLOADS
from tests.oracles.memcon import MemconController

TRACE_MS = 30_000.0


def _trace(seed=1):
    return generate_trace(WORKLOADS["BlurMotion"], seed=seed,
                          duration_ms=TRACE_MS)


def _oracle_reduction(trace, config):
    """Upper-bound predictor: LO-REF for every idle span > MinWriteInterval.

    Knows the future: each gap longer than the amortisation point is spent
    at LO-REF from (write + test window) until the next write.
    """
    min_interval = CostModel().min_write_interval_ms(config.test_mode)
    lo_ms = 0.0
    window = trace.duration_ms
    for page, times in trace.writes.items():
        if len(times) == 0:
            continue
        gaps = np.append(np.diff(times), window - times[-1])
        long_gaps = gaps[gaps > min_interval]
        lo_ms += float(np.maximum(long_gaps - config.test_duration_ms, 0).sum())
    lo_ms += (trace.total_pages - len(trace.written_pages)) * (
        window - config.test_duration_ms
    )
    hi_ms = trace.total_pages * window - lo_ms
    refreshes = (hi_ms / config.hi_ref_interval_ms
                 + lo_ms / config.lo_ref_interval_ms)
    baseline = trace.total_pages * window / config.hi_ref_interval_ms
    return 1.0 - refreshes / baseline


def test_bench_ablation_pril_vs_oracle(run_once):
    """PRIL should recover most of the oracle's refresh reduction."""

    def compare():
        trace = _trace()
        config = MemconConfig(quantum_ms=1024.0)
        pril = simulate_refresh_reduction(trace, config).refresh_reduction
        oracle = _oracle_reduction(trace, config)
        return pril, oracle

    pril, oracle = run_once(compare)
    assert oracle <= 0.75
    assert pril > 0.75 * oracle, (
        f"PRIL ({pril:.3f}) should reach at least 75% of the oracle "
        f"({oracle:.3f})"
    )
    print(f"ablation: PRIL reduction {pril:.3f} vs oracle {oracle:.3f}")


def test_bench_ablation_test_modes(run_once):
    """Copy&Compare pays ~50% more test latency for less SRAM."""

    def compare():
        trace = _trace()
        results = {}
        for mode in TestMode:
            report = simulate_refresh_reduction(
                trace, MemconConfig(quantum_ms=1024.0, test_mode=mode),
            )
            results[mode] = (report.refresh_reduction, report.testing_time_ns)
        return results

    results = run_once(compare)
    read_red, read_ns = results[TestMode.READ_AND_COMPARE]
    copy_red, copy_ns = results[TestMode.COPY_AND_COMPARE]
    assert read_red == copy_red  # reduction is mode-independent
    assert copy_ns / read_ns == 1602.0 / 1068.0
    print(f"ablation: test-mode latency ratio {copy_ns / read_ns:.3f}")


def test_bench_ablation_buffer_capacity(run_once):
    """Small write-buffers lose opportunity but never correctness."""

    def sweep():
        trace = _trace()
        reductions = {}
        for capacity in (4, 64, None):
            controller = MemconController(
                total_pages=trace.total_pages,
                config=MemconConfig(quantum_ms=1024.0),
                buffer_capacity=capacity,
            )
            reductions[capacity] = controller.run(trace).refresh_reduction
        return reductions

    reductions = run_once(sweep)
    assert reductions[4] <= reductions[64] <= reductions[None] + 1e-9
    assert reductions[4] >= 0.0
    print("ablation: reduction by buffer capacity:", {
        str(k): round(v, 3) for k, v in reductions.items()
    })


def test_bench_ablation_quantum_length(run_once):
    """Longer quanta trade coverage for accuracy; reduction degrades
    gently across 512-4096 ms (the paper's Figure 14 insensitivity)."""

    def sweep():
        trace = _trace()
        return {
            quantum: simulate_refresh_reduction(
                trace, MemconConfig(quantum_ms=quantum),
            ).refresh_reduction
            for quantum in (512.0, 1024.0, 2048.0, 4096.0)
        }

    reductions = run_once(sweep)
    values = list(reductions.values())
    assert max(values) - min(values) < 0.15
    assert all(v > 0.5 for v in values)
    print("ablation: reduction by quantum:", {
        int(k): round(v, 3) for k, v in reductions.items()
    })
