"""Figure 9: execution time is dominated by long write intervals.

Counting *time* instead of writes flips the picture of Figure 7: write
intervals of at least 1024 ms hold ~89.5% of the total write-interval time
on average across the twelve applications.
"""

from __future__ import annotations

from typing import Any, Dict, List

import numpy as np

from ..analysis.intervals import LONG_INTERVAL_MS, time_in_long_intervals
from ..parallel.units import WorkUnit
from ..traces.generator import generate_trace
from ..traces.workloads import WORKLOADS
from .common import ExperimentResult, percent, plain


def units(quick: bool = True, seed: int = 1) -> List[WorkUnit]:
    """One unit per application trace."""
    return [
        WorkUnit("fig09", name, {"workload": name}, seq=i)
        for i, name in enumerate(WORKLOADS)
    ]


def run_unit(unit: WorkUnit, quick: bool = True, seed: int = 1) -> Dict[str, Any]:
    name = unit.params["workload"]
    duration = 60_000.0 if quick else None
    trace = generate_trace(WORKLOADS[name], seed=seed, duration_ms=duration)
    frac = time_in_long_intervals(trace, LONG_INTERVAL_MS)
    return plain({"workload": name, "fraction": frac})


def merge_units(
    payloads: List[Dict[str, Any]], quick: bool = True, seed: int = 1
) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig09",
        title="Time spent in long write intervals (>= 1024 ms)",
        paper_claim=(
            "write intervals >= 1024 ms hold 89.5% of total write-interval "
            "time on average"
        ),
    )
    fractions = [payload["fraction"] for payload in payloads]
    for payload in payloads:
        frac = payload["fraction"]
        result.add_row(
            workload=payload["workload"],
            time_in_long_intervals=percent(frac),
            time_in_short_intervals=percent(1.0 - frac),
        )
    result.add_row(
        workload="AVERAGE",
        time_in_long_intervals=percent(float(np.mean(fractions))),
        time_in_short_intervals=percent(float(1.0 - np.mean(fractions))),
    )
    return result
