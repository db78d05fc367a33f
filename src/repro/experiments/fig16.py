"""Figure 16: MEMCON vs other refresh mechanisms.

All mechanisms are expressed as refresh-operation reductions relative to
the aggressive 16 ms baseline and run through the same simulator:

* 32 ms baseline      — 50% fewer refreshes, no testing traffic;
* RAIDR               — profiled ALL-FAIL rows (16% of rows) at 16 ms, the
                        rest at 64 ms: a 63% reduction, no testing traffic;
* MEMCON              — the Figure 14 reduction (~66%) plus 256 concurrent
                        tests of injected traffic;
* ideal 64 ms         — 75% reduction, no testing (the upper bound).

The paper's ordering: 32 ms < RAIDR < MEMCON < 64 ms, with MEMCON within
3-5% of the ideal.
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..parallel.units import WorkUnit
from ..sim.metrics import geometric_mean, speedup
from ..sim.system import simulate_workload
from ..sim.workloads import multicore_mixes, singlecore_workloads
from .common import ExperimentResult, plain

DENSITIES_GBIT = (8, 16, 32)

#: RAIDR pins the profiled ALL-FAIL rows (16% of all rows, matching the
#: paper's random-failure model and our Figure 4 measurement) at HI-REF.
RAIDR_HI_FRACTION = 0.16
#: MEMCON's measured refresh reduction (Figure 14 mean).
MEMCON_REDUCTION = 0.66

MECHANISMS = (
    ("32ms", 0.50, 0),
    ("RAIDR", 1.0 - (RAIDR_HI_FRACTION + (1 - RAIDR_HI_FRACTION) / 4.0), 0),
    ("MEMCON", MEMCON_REDUCTION, 256),
    ("64ms", 0.75, 0),
)


def units(quick: bool = True, seed: int = 1) -> List[WorkUnit]:
    """One unit per (cores, density) simulator configuration."""
    out: List[WorkUnit] = []
    for cores in (1, 4):
        for density in DENSITIES_GBIT:
            out.append(WorkUnit(
                "fig16", f"c{cores}-d{density}",
                {"cores": cores, "density": density}, seq=len(out),
            ))
    return out


def run_unit(unit: WorkUnit, quick: bool = True, seed: int = 1) -> Dict[str, Any]:
    cores = unit.params["cores"]
    density = unit.params["density"]
    n_workloads = 6 if quick else 30
    window_ns = 100_000.0 if quick else 500_000.0
    workloads = (
        singlecore_workloads(n_workloads, seed=seed) if cores == 1
        else multicore_mixes(n_workloads, seed=seed)
    )
    baselines = [
        simulate_workload(
            names, density_gbit=density, window_ns=window_ns, seed=seed + i,
        )
        for i, names in enumerate(workloads)
    ]
    row: Dict[str, object] = {"cores": cores, "density": f"{density}Gb"}
    for label, reduction, tests in MECHANISMS:
        speedups = [
            speedup(
                simulate_workload(
                    names, density_gbit=density,
                    refresh_reduction=reduction,
                    concurrent_tests=tests,
                    window_ns=window_ns, seed=seed + i,
                ),
                baselines[i],
            )
            for i, names in enumerate(workloads)
        ]
        row[label] = geometric_mean(speedups)
    return {"row": plain(row)}


def merge_units(
    payloads: List[Dict[str, Any]], quick: bool = True, seed: int = 1
) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig16",
        title="Comparison with other refresh mechanisms",
        paper_claim=(
            "32 ms < RAIDR < MEMCON < ideal 64 ms; MEMCON beats the 32 ms "
            "baseline by 4-17% and lands within 3-5% of ideal 64 ms"
        ),
    )
    for payload in payloads:
        result.add_row(**payload["row"])
    result.notes = (
        f"RAIDR modelled with {int(RAIDR_HI_FRACTION * 100)}% of rows "
        f"pinned at HI-REF; MEMCON at {int(MEMCON_REDUCTION * 100)}% "
        "reduction plus testing traffic; all speedups vs the 16 ms baseline"
    )
    return result
