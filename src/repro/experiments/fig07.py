"""Figure 7: distribution of write intervals in representative workloads.

More than 95% of writes arrive within 1 ms of the previous write to the
same page, while a tiny fraction (<0.5% in the paper) of intervals exceed
1024 ms — the heavy Pareto tail the rest of the mechanism exploits.
"""

from __future__ import annotations

from typing import Any, Dict, List

import numpy as np

from ..analysis.intervals import interval_distribution
from ..parallel.units import WorkUnit
from ..traces.generator import generate_trace
from ..traces.workloads import REPRESENTATIVE_WORKLOADS, WORKLOADS
from .common import ExperimentResult, percent, plain


def units(quick: bool = True, seed: int = 1) -> List[WorkUnit]:
    """One unit per plotted workload trace."""
    return [
        WorkUnit("fig07", name, {"workload": name}, seq=i)
        for i, name in enumerate(REPRESENTATIVE_WORKLOADS)
    ]


def run_unit(unit: WorkUnit, quick: bool = True, seed: int = 1) -> Dict[str, Any]:
    name = unit.params["workload"]
    duration = 60_000.0 if quick else None
    trace = generate_trace(WORKLOADS[name], seed=seed, duration_ms=duration)
    dist = interval_distribution(trace)
    intervals = trace.all_intervals()
    frac_short = float(np.mean(intervals < 1.0))
    frac_long = float(np.mean(intervals >= 1024.0))
    row = {"workload": name, "<1ms": percent(frac_short, 1)}
    labels = ["1-8ms", "8-64ms", "64-512ms", "512ms-4s", "4-32s", ">32s"]
    # dist.counts[0] is the <1ms bucket; the rest follow the edges.
    for label, count in zip(labels, dist.counts[1:]):
        row[label] = percent(count / max(dist.n_intervals, 1), 3)
    row[">=1024ms"] = percent(frac_long, 3)
    return plain({
        "row": row, "frac_short": frac_short, "frac_long": frac_long,
    })


def merge_units(
    payloads: List[Dict[str, Any]], quick: bool = True, seed: int = 1
) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig07",
        title="Distribution of write intervals (three workloads)",
        paper_claim=(
            ">95% of writes occur within 1 ms; on average <0.43% of write "
            "intervals exceed 1024 ms"
        ),
    )
    sub_1ms = [payload["frac_short"] for payload in payloads]
    over_1024 = [payload["frac_long"] for payload in payloads]
    for payload in payloads:
        result.add_row(**payload["row"])
    result.notes = (
        f"measured: {percent(min(sub_1ms))}-{percent(max(sub_1ms))} of "
        f"writes within 1 ms; {percent(min(over_1024), 2)}-"
        f"{percent(max(over_1024), 2)} of intervals >= 1024 ms"
    )
    return result
