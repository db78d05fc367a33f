"""Figure 12: coverage of write-interval time vs CIL.

Waiting longer before predicting makes predictions more accurate but
forfeits the waited-out time. A CIL of 512-2048 ms keeps 65-85% of the
total write-interval time on the table — the paper's sweet spot for the
PRIL quantum.
"""

from __future__ import annotations

from typing import Any, Dict, List

import numpy as np

from ..analysis.intervals import coverage_curve
from ..parallel.units import WorkUnit
from ..traces.workloads import WORKLOADS
from .common import ExperimentResult, plain, workload_trace, workload_units

REPORT_CILS_MS = (64.0, 256.0, 512.0, 1024.0, 2048.0, 8192.0, 32768.0)


def units(quick: bool = True, seed: int = 1) -> List[WorkUnit]:
    """One unit per application trace (full CIL sweep inside)."""
    return workload_units("fig12", WORKLOADS)


def run_unit(unit: WorkUnit, quick: bool = True, seed: int = 1) -> Dict[str, Any]:
    name = unit.params["workload"]
    trace = workload_trace(name, quick, seed)
    curve = coverage_curve(trace, REPORT_CILS_MS)
    row: Dict[str, Any] = {"workload": name}
    sweet: List[float] = []
    for cil, coverage in zip(REPORT_CILS_MS, curve):
        row[f"cil_{int(cil)}ms"] = coverage
        if cil in (512.0, 2048.0):
            sweet.append(coverage)
    return plain({"row": row, "sweet": sweet})


def merge_units(
    payloads: List[Dict[str, Any]], quick: bool = True, seed: int = 1
) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig12",
        title="Coverage of write-interval time vs CIL",
        paper_claim=(
            "coverage falls as CIL grows; CIL = 512-2048 ms retains on "
            "average 65-85% of the total write-interval time"
        ),
    )
    sweet_spot: List[float] = []
    for payload in payloads:
        sweet_spot.extend(payload["sweet"])
        result.add_row(**payload["row"])
    result.notes = (
        f"coverage at CIL 512-2048 ms spans {min(sweet_spot):.2f}-"
        f"{max(sweet_spot):.2f} (mean {np.mean(sweet_spot):.2f})"
    )
    return result
