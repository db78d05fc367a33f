"""Figure 8: write intervals follow a Pareto distribution.

The paper fits ``P(interval > x) = k * x**-alpha`` on log-log axes for
three representative workloads and reports R^2 of 0.94-0.99. We fit the
pooled interval CCDF of the synthetic traces over the same tail region
(above the burst knee, below the capture-window truncation).
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..analysis.pareto import fit_pareto, is_decreasing_hazard
from ..parallel.units import WorkUnit
from ..traces.generator import generate_trace
from ..traces.workloads import REPRESENTATIVE_WORKLOADS, WORKLOADS
from .common import ExperimentResult, plain

#: The paper's R^2 values for ACBrotherhood / Netflix / SystemMgt.
PAPER_R2 = {
    "ACBrotherHood": 0.944,
    "Netflix": 0.937,
    "SystemMgt": 0.986,
}

#: Fit window: above the sub-ms burst knee, below end-of-trace truncation.
FIT_X_MIN_MS = 2.0
FIT_X_MAX_FRACTION = 1.0 / 40.0


def units(quick: bool = True, seed: int = 1) -> List[WorkUnit]:
    """One unit per plotted workload trace."""
    return [
        WorkUnit("fig08", name, {"workload": name}, seq=i)
        for i, name in enumerate(REPRESENTATIVE_WORKLOADS)
    ]


def run_unit(unit: WorkUnit, quick: bool = True, seed: int = 1) -> Dict[str, Any]:
    name = unit.params["workload"]
    duration = 60_000.0 if quick else None
    trace = generate_trace(WORKLOADS[name], seed=seed, duration_ms=duration)
    intervals = trace.all_intervals()
    fit = fit_pareto(
        intervals[intervals >= FIT_X_MIN_MS],
        x_min=FIT_X_MIN_MS,
        x_max=trace.duration_ms * FIT_X_MAX_FRACTION,
    )
    return {"row": plain({
        "workload": name,
        "alpha": fit.alpha,
        "r_squared": fit.r_squared,
        "paper_r_squared": PAPER_R2[name],
        "dhr": str(is_decreasing_hazard(intervals[intervals >= 1.0])),
        "n_intervals": fit.n_samples,
    })}


def merge_units(
    payloads: List[Dict[str, Any]], quick: bool = True, seed: int = 1
) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig08",
        title="Pareto distribution of write intervals",
        paper_claim="log-log linear CCDF fits with R^2 = 0.94/0.94/0.99",
    )
    for payload in payloads:
        result.add_row(**payload["row"])
    result.notes = (
        "alpha is the fitted tail index; dhr confirms the decreasing "
        "hazard rate property PRIL relies on"
    )
    return result
