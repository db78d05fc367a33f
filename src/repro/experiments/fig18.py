"""Figure 18: time spent on refresh and testing, vs baseline refresh.

MEMCON's time budget, normalised to the time the 16 ms baseline spends on
refresh: the remaining refresh work drops to roughly the refresh-reduction
complement (~25-35%), and testing — correctly predicted plus mispredicted
— adds only ~0.01% on top.
"""

from __future__ import annotations

from typing import Any, Dict, List

import numpy as np

from ..core.memcon import MemconConfig, simulate_refresh_reduction
from ..parallel.units import WorkUnit
from ..traces.generator import generate_trace
from ..traces.workloads import WORKLOADS
from .common import ExperimentResult, percent, plain
from .fig14 import FAILING_PAGE_FRACTION


def units(quick: bool = True, seed: int = 1) -> List[WorkUnit]:
    """One unit per application trace."""
    return [
        WorkUnit("fig18", name, {"workload": name}, seq=i)
        for i, name in enumerate(WORKLOADS)
    ]


def run_unit(unit: WorkUnit, quick: bool = True, seed: int = 1) -> Dict[str, Any]:
    name = unit.params["workload"]
    duration = 60_000.0 if quick else None
    trace = generate_trace(WORKLOADS[name], seed=seed, duration_ms=duration)
    report = simulate_refresh_reduction(
        trace,
        MemconConfig(quantum_ms=1024.0),
        failing_page_fraction=FAILING_PAGE_FRACTION,
        seed=seed,
    )
    base = report.baseline_refresh_time_ns
    testing_fraction = report.testing_time_ns / base
    # Baseline refresh covers every row of the module; our footprint is
    # scaled down from the paper's 8 GB (1M rows of 8 KB). Project the
    # denominator back to module scale for an apples-to-apples ratio.
    scale = (8 * 1024 ** 3 // 8192) / trace.total_pages
    row = {
        "workload": name,
        "refresh": percent(report.refresh_time_ns / base),
        "testing_correct": percent(report.testing_time_correct_ns / base, 4),
        "testing_mispredicted": percent(
            report.testing_time_mispredicted_ns / base, 4
        ),
        "testing_at_8GB": percent(testing_fraction / scale, 4),
    }
    return plain({
        "row": row,
        "testing_fraction": testing_fraction,
        "projected_fraction": report.testing_time_ns / (base * scale),
    })


def merge_units(
    payloads: List[Dict[str, Any]], quick: bool = True, seed: int = 1
) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig18",
        title="Time on refresh and testing, normalised to baseline refresh",
        paper_claim=(
            "testing (correct + mispredicted) costs on average only 0.01% "
            "of the baseline's refresh time"
        ),
    )
    testing_fractions = [p["testing_fraction"] for p in payloads]
    projected_fractions = [p["projected_fraction"] for p in payloads]
    for payload in payloads:
        result.add_row(**payload["row"])
    result.notes = (
        f"mean testing time = "
        f"{percent(float(np.mean(testing_fractions)), 4)} of baseline "
        "refresh at the scaled footprint; projected to the paper's 8 GB "
        f"module: {percent(float(np.mean(projected_fractions)), 4)} "
        "(testing scales with active pages, baseline refresh with all rows)"
    )
    return result
