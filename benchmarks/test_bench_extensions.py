"""Benches for the paper's mitigation and energy extensions.

* ECC mitigation (§1): refresh cost of mitigating detected failures with
  SECDED instead of HI-REF.
* Energy: refresh energy saved by MEMCON's reduction at 8-32 Gb.
"""

import numpy as np

from repro.core.ecc import EccConfig
from repro.core.remap import plan_mitigations
from repro.dram import DramGeometry
from repro.dram.faults import FaultMap, FaultModelConfig
from repro.dram.scramble import make_vendor_mapping
from repro.sim.energy import EnergyParameters
from repro.sim.system import simulate_workload


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
        failing_by_row = {}
        for row in range(geometry.total_rows):
            bits = mapping.to_silicon(
                rng.integers(0, 2, geometry.bits_per_row).astype(np.uint8)
            )
            failing_by_row[row] = fault_map.failing_cells(row, bits, 328.0)
        return (plan_mitigations(failing_by_row, ecc=EccConfig()),
                plan_mitigations(failing_by_row, ecc=None))

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
            savings[density] = (
                base.refreshes_issued - memcon.refreshes_issued
            ) * EnergyParameters().refresh_nj(density)
        return savings

    savings = run_once(sweep)
    assert savings[32] > savings[8] > 0
    print("ext: refresh energy saved (nJ per 60 us):", {
        f"{k}Gb": round(v) for k, v in savings.items()
    })

