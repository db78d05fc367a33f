"""Benches for the paper's optional/future-work extensions.

* In-DRAM copy (RowClone/LISA, footnote 6): how much of Copy&Compare's
  amortisation gap the accelerated copy closes.
* Silent-write filtering (footnote 9): refresh reduction gained by not
  restarting PRIL's clock on value-preserving writes.
* ECC mitigation (§1): refresh cost of mitigating detected failures with
  SECDED instead of HI-REF.
* Energy: refresh energy saved by MEMCON's reduction at 8-32 Gb.
"""

import numpy as np

from repro.core.ecc import choose_mitigation, summarise_mitigations
from repro.core.indram import CopyMechanism, min_write_interval_by_mechanism
from repro.core.memcon import MemconConfig, simulate_refresh_reduction
from repro.core.silentwrites import filter_trace
from repro.dram import DramGeometry
from repro.dram.faults import FaultMap, FaultModelConfig
from repro.dram.scramble import make_vendor_mapping
from repro.sim.energy import refresh_energy_savings
from repro.sim.system import simulate_workload
from repro.traces.generator import generate_trace
from repro.traces.workloads import WORKLOADS


def test_bench_ext_indram_copy(benchmark):
    intervals = benchmark(min_write_interval_by_mechanism)
    over_channel = intervals[CopyMechanism.OVER_CHANNEL]
    rowclone = intervals[CopyMechanism.ROWCLONE]
    assert over_channel == 864.0
    assert rowclone < over_channel  # accelerated copy amortises sooner
    print("ext: MinWriteInterval by copy mechanism:", {
        m.value: v for m, v in intervals.items()
    })


def test_bench_ext_silent_writes(run_once):
    def compare():
        trace = generate_trace(WORKLOADS["SystemMgt"], seed=2,
                               duration_ms=20_000.0)
        config = MemconConfig(quantum_ms=1024.0)
        plain = simulate_refresh_reduction(trace, config).refresh_reduction
        filtered, stats = filter_trace(trace, 0.4, seed=3)
        silent = simulate_refresh_reduction(
            filtered, config
        ).refresh_reduction
        return plain, silent, stats.silent_fraction

    plain, silent, fraction = run_once(compare)
    assert silent >= plain - 0.01
    print(f"ext: reduction {plain:.3f} -> {silent:.3f} after filtering "
          f"{100 * fraction:.0f}% silent writes")


def test_bench_ext_ecc_mitigation(run_once):
    """ECC absorbs most failing rows, cutting HI-REF pressure."""

    def mitigate():
        geometry = DramGeometry(
            channels=1, ranks=1, banks=4, rows_per_bank=512,
            row_size_bytes=8192, block_size_bytes=64,
        )
        mapping = make_vendor_mapping(
            columns=geometry.bits_per_row, seed=5,
            spare_columns=geometry.bits_per_row // 256,
        )
        fault_map = FaultMap(
            total_rows=geometry.total_rows,
            bits_per_row=mapping.physical_columns,
            config=FaultModelConfig(vulnerable_cell_rate=2e-5),
            seed=5,
        )
        rng = np.random.default_rng(6)
        assignments = {True: [], False: []}
        for row in range(geometry.total_rows):
            bits = mapping.to_silicon(
                rng.integers(0, 2, geometry.bits_per_row).astype(np.uint8)
            )
            failing = fault_map.failing_cells(row, bits, 328.0)
            for ecc in (True, False):
                assignments[ecc].append(
                    choose_mitigation(failing, ecc_enabled=ecc)
                )
        return (summarise_mitigations(assignments[True]),
                summarise_mitigations(assignments[False]))

    with_ecc, without_ecc = run_once(mitigate)
    assert with_ecc.hi_ref_rows <= without_ecc.hi_ref_rows
    assert (with_ecc.refresh_ops_per_window()
            <= without_ecc.refresh_ops_per_window())
    print(f"ext: HI-REF rows {without_ecc.hi_ref_rows} -> "
          f"{with_ecc.hi_ref_rows} with SECDED; refresh ops "
          f"{without_ecc.refresh_ops_per_window():.0f} -> "
          f"{with_ecc.refresh_ops_per_window():.0f}")


def test_bench_ext_refresh_energy(run_once):
    """Refresh energy savings grow with chip density, like performance."""

    def sweep():
        window = 60_000.0
        savings = {}
        for density in (8, 32):
            base = simulate_workload(["mcf"], density_gbit=density,
                                     window_ns=window, seed=4)
            memcon = simulate_workload(["mcf"], density_gbit=density,
                                       refresh_reduction=0.66,
                                       concurrent_tests=256,
                                       window_ns=window, seed=4)
            savings[density] = refresh_energy_savings(
                base.refreshes_issued, memcon.refreshes_issued,
                density_gbit=density,
            )
        return savings

    savings = run_once(sweep)
    assert savings[32] > savings[8] > 0
    print("ext: refresh energy saved (nJ per 60 us):", {
        f"{k}Gb": round(v) for k, v in savings.items()
    })

