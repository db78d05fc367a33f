"""Figure 19: sensitivity to cache size (halved write intervals).

A smaller last-level cache evicts dirty blocks sooner, compressing write
intervals. The paper halves every interval and shows the long-interval
conditional probability P(RIL > 1024 ms | CIL) barely moves — the
exponential headroom of the Pareto tail absorbs a 2x shift.
"""

from __future__ import annotations

from typing import Any, Dict, List

import numpy as np

from ..analysis.intervals import LONG_INTERVAL_MS, ril_exceeds_probability
from ..parallel.units import WorkUnit
from ..traces.generator import generate_trace
from ..traces.workloads import WORKLOADS
from .common import ExperimentResult, plain

REPORT_CILS_MS = (512.0, 1024.0, 2048.0)
WORKLOAD = "ACBrotherHood"


def _traces(quick: bool, seed: int):
    duration = 60_000.0 if quick else None
    trace = generate_trace(WORKLOADS[WORKLOAD], seed=seed,
                           duration_ms=duration)
    return trace, trace.scaled_intervals(0.5)


def units(quick: bool = True, seed: int = 1) -> List[WorkUnit]:
    """One unit per CIL point plus one for the distribution shift."""
    out = [
        WorkUnit("fig19", f"cil{int(cil)}", {"cil_ms": cil}, seq=i)
        for i, cil in enumerate(REPORT_CILS_MS)
    ]
    out.append(WorkUnit(
        "fig19", "dist", {"kind": "dist"}, seq=len(REPORT_CILS_MS),
    ))
    return out


def run_unit(unit: WorkUnit, quick: bool = True, seed: int = 1) -> Dict[str, Any]:
    trace, halved = _traces(quick, seed)
    if unit.params.get("kind") == "dist":
        # Distribution shift: share of intervals under 1 ms before/after.
        full_iv = trace.all_intervals()
        half_iv = halved.all_intervals()
        return plain({
            "full_sub_1ms": np.mean(full_iv < 1.0),
            "half_sub_1ms": np.mean(half_iv < 1.0),
        })
    cil = unit.params["cil_ms"]
    full_p = ril_exceeds_probability(trace, cil, LONG_INTERVAL_MS)
    half_p = ril_exceeds_probability(halved, cil, LONG_INTERVAL_MS)
    return plain({"cil_ms": cil, "full_p": full_p, "half_p": half_p})


def merge_units(
    payloads: List[Dict[str, Any]], quick: bool = True, seed: int = 1
) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig19",
        title="Write-interval halving (cache-size sensitivity)",
        paper_claim=(
            "halving all write intervals does not significantly change "
            "P(RIL > 1024 ms | CIL) at CIL = 512-2048 ms"
        ),
    )
    deltas = []
    for payload in payloads[:len(REPORT_CILS_MS)]:
        full_p, half_p = payload["full_p"], payload["half_p"]
        deltas.append(abs(full_p - half_p))
        result.add_row(
            cil_ms=payload["cil_ms"],
            full_interval=full_p,
            half_interval=half_p,
            delta=full_p - half_p,
        )
    dist = payloads[len(REPORT_CILS_MS)]
    result.notes = (
        f"max |delta P| = {max(deltas):.3f}; intervals < 1 ms: "
        f"{dist['full_sub_1ms']:.3f} (full) vs "
        f"{dist['half_sub_1ms']:.3f} (halved)"
    )
    return result
