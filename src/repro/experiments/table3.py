"""Table 3: performance loss from the extra accesses testing injects.

256/512/1024 concurrent tests every 64 ms add background read traffic;
the paper measures 0.54%/1.03%/1.88% average slowdown on a single core
and 0.05%/0.09%/0.48% on four cores (more parallelism absorbs the
traffic better), against an ideal system whose testing is free.
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..parallel.units import WorkUnit
from .common import ExperimentResult, mean_speedups, percent, plain, sim_scale

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
    workloads, window_ns = sim_scale(cores, quick, seed)
    # Each test load against the ideal: MEMCON with free testing.
    means = mean_speedups(
        workloads,
        {"refresh_reduction": MEMCON_REDUCTION, "concurrent_tests": 0,
         "channels": channels},
        [
            {"refresh_reduction": MEMCON_REDUCTION, "concurrent_tests": tests,
             "channels": channels}
            for tests in CONCURRENT_TESTS
        ],
        window_ns, seed,
    )
    row: Dict[str, object] = {"cores": cores, "channels": channels}
    for tests, mean in zip(CONCURRENT_TESTS, means):
        row[f"tests_{tests}"] = percent(1.0 - mean, 2)
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
