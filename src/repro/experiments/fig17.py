"""Figure 17: PRIL's coverage of execution time at the LO-REF state.

Across the twelve applications, on average ~95% of total execution time is
spent with rows operating at LO-REF — the prediction mechanism finds
almost all of the available idle time.
"""

from __future__ import annotations

from typing import Any, Dict, List

import numpy as np

from ..core.memcon import MemconConfig, simulate_refresh_reduction
from ..parallel.units import WorkUnit
from ..traces.generator import generate_trace
from ..traces.workloads import WORKLOADS
from .common import ExperimentResult, percent, plain
from .fig14 import FAILING_PAGE_FRACTION, QUANTA_MS


def units(quick: bool = True, seed: int = 1) -> List[WorkUnit]:
    """One unit per application trace (all three quanta inside)."""
    return [
        WorkUnit("fig17", name, {"workload": name}, seq=i)
        for i, name in enumerate(WORKLOADS)
    ]


def run_unit(unit: WorkUnit, quick: bool = True, seed: int = 1) -> Dict[str, Any]:
    name = unit.params["workload"]
    duration = 60_000.0 if quick else None
    trace = generate_trace(WORKLOADS[name], seed=seed, duration_ms=duration)
    row: Dict[str, Any] = {"workload": name}
    coverage = None
    for quantum in QUANTA_MS:
        report = simulate_refresh_reduction(
            trace,
            MemconConfig(quantum_ms=quantum),
            failing_page_fraction=FAILING_PAGE_FRACTION,
            seed=seed,
        )
        row[f"cil_{int(quantum)}ms"] = percent(report.lo_ref_time_fraction)
        if quantum == 1024.0:
            coverage = report.lo_ref_time_fraction
    return plain({"row": row, "coverage": coverage})


def merge_units(
    payloads: List[Dict[str, Any]], quick: bool = True, seed: int = 1
) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig17",
        title="Execution-time coverage of PRIL (time at LO-REF)",
        paper_claim="on average 95% of execution time is spent at LO-REF",
    )
    coverages = [payload["coverage"] for payload in payloads]
    for payload in payloads:
        result.add_row(**payload["row"])
    result.notes = (
        f"mean LO-REF coverage at CIL 1024 ms: "
        f"{percent(float(np.mean(coverages)))}"
    )
    return result
