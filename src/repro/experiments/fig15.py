"""Figure 15: performance improvement from MEMCON's refresh reduction.

The paper models its measured 60-75% refresh reduction inside a
cycle-accurate simulator (with 256 concurrent tests of injected traffic)
on 30 single-core and 4-core SPEC/TPC workloads, for 8/16/32 Gb chips.
Reported improvement over the 16 ms baseline: 10%/17%/40% to 12%/22%/50%
(single-core) and 10%/23%/52% to 17%/29%/65% (four-core).
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..parallel.units import WorkUnit
from .common import (
    ExperimentResult, density_units, mean_speedups, plain, sim_scale,
)

DENSITIES_GBIT = (8, 16, 32)
REDUCTIONS = (0.60, 0.75)
CONCURRENT_TESTS = 256

#: Paper-reported mean improvements, keyed by (cores, reduction, density).
PAPER_IMPROVEMENT = {
    (1, 0.60, 8): 0.10, (1, 0.60, 16): 0.17, (1, 0.60, 32): 0.40,
    (1, 0.75, 8): 0.12, (1, 0.75, 16): 0.22, (1, 0.75, 32): 0.50,
    (4, 0.60, 8): 0.10, (4, 0.60, 16): 0.23, (4, 0.60, 32): 0.52,
    (4, 0.75, 8): 0.17, (4, 0.75, 16): 0.29, (4, 0.75, 32): 0.65,
}


def units(quick: bool = True, seed: int = 1) -> List[WorkUnit]:
    """One unit per (cores, density) simulator configuration."""
    return density_units("fig15", DENSITIES_GBIT)


def run_unit(unit: WorkUnit, quick: bool = True, seed: int = 1) -> Dict[str, Any]:
    cores = unit.params["cores"]
    density = unit.params["density"]
    workloads, window_ns = sim_scale(cores, quick, seed)
    # MEMCON at each reduction against the 16 ms baseline.
    means = mean_speedups(
        workloads, {"density_gbit": density},
        [
            {"density_gbit": density, "refresh_reduction": reduction,
             "concurrent_tests": CONCURRENT_TESTS}
            for reduction in REDUCTIONS
        ],
        window_ns, seed,
    )
    row: Dict[str, object] = {"cores": cores, "density": f"{density}Gb"}
    for reduction, mean in zip(REDUCTIONS, means):
        row[f"speedup_{int(reduction * 100)}pct"] = mean
        row[f"paper_{int(reduction * 100)}pct"] = (
            1.0 + PAPER_IMPROVEMENT[(cores, reduction, density)]
        )
    return {"row": plain(row)}


def merge_units(
    payloads: List[Dict[str, Any]], quick: bool = True, seed: int = 1
) -> ExperimentResult:
    workloads, window_ns = sim_scale(1, quick, seed)
    result = ExperimentResult(
        experiment_id="fig15",
        title="MEMCON performance improvement over the 16 ms baseline",
        paper_claim=(
            "1-core: +10/17/40% to +12/22/50%; 4-core: +10/23/52% to "
            "+17/29/65% for 8/16/32 Gb (60% to 75% refresh reduction)"
        ),
    )
    for payload in payloads:
        result.add_row(**payload["row"])
    result.notes = (
        f"{len(workloads)} workloads per configuration, "
        f"{window_ns / 1e3:.0f} us windows, {CONCURRENT_TESTS} concurrent "
        "tests injected; speedups are geometric means of weighted speedup "
        "over the 16 ms baseline"
    )
    return result
