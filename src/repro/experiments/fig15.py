"""Figure 15: performance improvement from MEMCON's refresh reduction.

The paper models its measured 60-75% refresh reduction inside a
cycle-accurate simulator (with 256 concurrent tests of injected traffic)
on 30 single-core and 4-core SPEC/TPC workloads, for 8/16/32 Gb chips.
Reported improvement over the 16 ms baseline: 10%/17%/40% to 12%/22%/50%
(single-core) and 10%/23%/52% to 17%/29%/65% (four-core).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from ..parallel.units import WorkUnit
from ..sim.core import StreamMap
from ..sim.metrics import geometric_mean, speedup
from ..sim.system import SystemResult, simulate_workload
from ..sim.workloads import multicore_mixes, singlecore_workloads
from .common import ExperimentResult, plain

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


def _mean_speedup(
    workloads: Sequence[List[str]],
    baselines: Sequence[SystemResult],
    density: int,
    reduction: float,
    window_ns: float,
    seed: int,
    streams: Optional[StreamMap] = None,
) -> float:
    """Geometric-mean speedup of MEMCON at ``reduction`` over each
    workload's 16 ms baseline run (``baselines[i]`` for ``workloads[i]``),
    replaying the request streams in ``streams``."""
    speedups = []
    for i, names in enumerate(workloads):
        memcon = simulate_workload(
            names, density_gbit=density, refresh_reduction=reduction,
            concurrent_tests=CONCURRENT_TESTS, window_ns=window_ns,
            seed=seed + i, streams=streams,
        )
        speedups.append(speedup(memcon, baselines[i]))
    return geometric_mean(speedups)


def units(quick: bool = True, seed: int = 1) -> List[WorkUnit]:
    """One unit per (cores, density) simulator configuration."""
    out: List[WorkUnit] = []
    for cores in (1, 4):
        for density in DENSITIES_GBIT:
            out.append(WorkUnit(
                "fig15", f"c{cores}-d{density}",
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
    # Every run of a workload replays the request streams its baseline
    # drew; the map is dropped with the unit.
    streams: StreamMap = {}
    # One baseline per workload, shared by both reductions.
    baselines = [
        simulate_workload(
            names, density_gbit=density, window_ns=window_ns, seed=seed + i,
            streams=streams,
        )
        for i, names in enumerate(workloads)
    ]
    row: Dict[str, object] = {"cores": cores, "density": f"{density}Gb"}
    for reduction in REDUCTIONS:
        mean = _mean_speedup(
            workloads, baselines, density, reduction, window_ns, seed,
            streams,
        )
        row[f"speedup_{int(reduction * 100)}pct"] = mean
        row[f"paper_{int(reduction * 100)}pct"] = (
            1.0 + PAPER_IMPROVEMENT[(cores, reduction, density)]
        )
    return {"row": plain(row)}


def merge_units(
    payloads: List[Dict[str, Any]], quick: bool = True, seed: int = 1
) -> ExperimentResult:
    n_workloads = 6 if quick else 30
    window_ns = 100_000.0 if quick else 500_000.0
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
        f"{n_workloads} workloads per configuration, {window_ns / 1e3:.0f} us "
        f"windows, {CONCURRENT_TESTS} concurrent tests injected; speedups "
        "are geometric means of weighted speedup over the 16 ms baseline"
    )
    return result
