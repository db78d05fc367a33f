"""Figure 14: MEMCON's reduction in refresh operations.

With PRIL at quantum (CIL) 512/1024/2048 ms, HI-REF 16 ms and LO-REF
64 ms, MEMCON removes 64.7-74.5% of refresh operations — close to the 75%
upper bound of refreshing everything at 64 ms — and the result is nearly
flat in the quantum because execution time is dominated by intervals far
longer than any of the three quanta.
"""

from __future__ import annotations

from typing import Any, Dict, List

import numpy as np

from ..core.memcon import (
    MemconConfig, MemconReport, simulate_refresh_reduction,
)
from ..parallel.units import WorkUnit
from ..traces.events import WriteTrace
from ..traces.workloads import WORKLOADS
from .common import (
    ExperimentResult, percent, plain, workload_trace, workload_units,
)

QUANTA_MS = (512.0, 1024.0, 2048.0)

#: Fraction of tested pages whose content trips the fault model, from the
#: Figure 4 measurement (program content fails 0.4-4.7% of rows).
FAILING_PAGE_FRACTION = 0.02


def memcon_pass(
    trace: WriteTrace, quantum_ms: float, seed: int
) -> MemconReport:
    """MEMCON's accounting over ``trace`` at one PRIL quantum; fig17
    and fig18 re-run this pass."""
    return simulate_refresh_reduction(
        trace,
        MemconConfig(quantum_ms=quantum_ms),
        failing_page_fraction=FAILING_PAGE_FRACTION,
        seed=seed,
    )


def units(quick: bool = True, seed: int = 1) -> List[WorkUnit]:
    """One unit per application trace (all three quanta inside)."""
    return workload_units("fig14", WORKLOADS)


def run_unit(unit: WorkUnit, quick: bool = True, seed: int = 1) -> Dict[str, Any]:
    name = unit.params["workload"]
    trace = workload_trace(name, quick, seed)
    row: Dict[str, Any] = {"workload": name}
    reductions: List[float] = []  # aligned with QUANTA_MS
    for quantum in QUANTA_MS:
        report = memcon_pass(trace, quantum, seed)
        row[f"cil_{int(quantum)}ms"] = percent(report.refresh_reduction)
        reductions.append(report.refresh_reduction)
    row["upper_bound"] = percent(0.75)
    return plain({"row": row, "reductions": reductions})


def merge_units(
    payloads: List[Dict[str, Any]], quick: bool = True, seed: int = 1
) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig14",
        title="Reduction in refresh count with MEMCON",
        paper_claim=(
            "64.7-74.5% refresh reduction (upper bound 75%), insensitive "
            "to CIL in 512-2048 ms"
        ),
    )
    reductions: Dict[float, List[float]] = {q: [] for q in QUANTA_MS}
    for payload in payloads:
        for quantum, value in zip(QUANTA_MS, payload["reductions"]):
            reductions[quantum].append(value)
        result.add_row(**payload["row"])
    means = {q: float(np.mean(v)) for q, v in reductions.items()}
    all_vals = [v for vals in reductions.values() for v in vals]
    result.notes = (
        f"reduction spans {percent(min(all_vals))}-{percent(max(all_vals))}; "
        f"means per CIL: "
        + ", ".join(f"{int(q)}ms={percent(m)}" for q, m in means.items())
    )
    return result
