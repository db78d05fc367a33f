"""Figure 11: P(remaining interval > 1024 ms) as a function of CIL.

The decreasing hazard rate in action: the probability that a page stays
idle for another second grows with how long it has already been idle —
roughly 50-80% once the current interval length reaches 512 ms, and close
to 1 past 16 s.
"""

from __future__ import annotations

from typing import Any, Dict, List

import numpy as np

from ..analysis.intervals import LONG_INTERVAL_MS, ril_probability_curve
from ..parallel.units import WorkUnit
from ..traces.workloads import WORKLOADS
from .common import ExperimentResult, plain, workload_trace, workload_units

#: The CIL values reported in the summary table (full grid available via
#: repro.analysis.intervals.CIL_GRID_MS).
REPORT_CILS_MS = (64.0, 256.0, 512.0, 1024.0, 2048.0, 8192.0, 16384.0)


def units(quick: bool = True, seed: int = 1) -> List[WorkUnit]:
    """One unit per application trace (full CIL sweep inside)."""
    return workload_units("fig11", WORKLOADS)


def run_unit(unit: WorkUnit, quick: bool = True, seed: int = 1) -> Dict[str, Any]:
    name = unit.params["workload"]
    trace = workload_trace(name, quick, seed)
    curve = ril_probability_curve(trace, REPORT_CILS_MS, LONG_INTERVAL_MS)
    row: Dict[str, Any] = {"workload": name}
    for cil, p in zip(REPORT_CILS_MS, curve):
        row[f"cil_{int(cil)}ms"] = p
    at_512 = curve[REPORT_CILS_MS.index(512.0)]
    return plain({"row": row, "at_512": at_512})


def merge_units(
    payloads: List[Dict[str, Any]], quick: bool = True, seed: int = 1
) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig11",
        title="P(RIL > 1024 ms) as a function of CIL",
        paper_claim=(
            "probability low for CIL <= 256 ms, ~50-80% at CIL = 512 ms, "
            "approaching 1 above 16384 ms"
        ),
    )
    at_512 = [payload["at_512"] for payload in payloads]
    for payload in payloads:
        result.add_row(**payload["row"])
    result.notes = (
        f"P(RIL > 1024 ms | CIL = 512 ms) spans "
        f"{min(at_512):.2f}-{max(at_512):.2f} across workloads "
        f"(mean {np.mean(at_512):.2f})"
    )
    return result
