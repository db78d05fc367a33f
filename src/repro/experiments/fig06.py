"""Figure 6 + Appendix: accumulated cost curves and MinWriteInterval.

Pure analytic reproduction: with the paper's DDR3-1600 cost arithmetic
(Read&Compare 1068 ns, Copy&Compare 1602 ns, refresh 39 ns) the crossover
of MEMCON's accumulated cost against the aggressive 16 ms baseline lands
at 560 ms / 864 ms for the two test modes at a 64 ms LO-REF interval, and
at 480 ms / 448 ms for 128 ms / 256 ms LO-REF intervals.
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..core.costmodel import (
    CostModel,
    TestMode,
    copy_and_compare_storage_overhead,
    test_cost_ns,
)
from ..dram.timing import DDR3_1600
from ..parallel.units import WorkUnit
from .common import ExperimentResult, plain

#: (LO-REF interval ms, test mode, the paper's MinWriteInterval in ms).
PAPER_POINTS = (
    (64.0, TestMode.READ_AND_COMPARE, 560.0),
    (64.0, TestMode.COPY_AND_COMPARE, 864.0),
    (128.0, TestMode.READ_AND_COMPARE, 480.0),
    (256.0, TestMode.READ_AND_COMPARE, 448.0),
)


def units(quick: bool = True, seed: int = 1) -> List[WorkUnit]:
    """One unit per paper configuration point."""
    return [
        WorkUnit(
            "fig06", f"lo{int(lo_ms)}-{mode.value}",
            {"lo_ms": lo_ms, "mode": mode.value, "paper_ms": paper_ms},
            seq=i,
        )
        for i, (lo_ms, mode, paper_ms) in enumerate(PAPER_POINTS)
    ]


def run_unit(unit: WorkUnit, quick: bool = True, seed: int = 1) -> Dict[str, Any]:
    lo_ms = unit.params["lo_ms"]
    mode = TestMode(unit.params["mode"])
    paper_ms = unit.params["paper_ms"]
    model = CostModel(lo_ref_interval_ms=lo_ms)
    measured = model.min_write_interval_ms(mode)
    return {"row": plain({
        "lo_ref_ms": lo_ms,
        "test_mode": mode.value,
        "test_cost_ns": test_cost_ns(mode),
        "min_write_interval_ms": measured,
        "paper_ms": paper_ms,
        "match": "yes" if measured == paper_ms else "NO",
    })}


def merge_units(
    payloads: List[Dict[str, Any]], quick: bool = True, seed: int = 1
) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig06",
        title="Determining MinWriteInterval (accumulated cost crossover)",
        paper_claim=(
            "MinWriteInterval = 560/864 ms (Read&Compare / Copy&Compare at "
            "64 ms LO-REF); 480/448 ms at 128/256 ms LO-REF; test costs "
            "1068/1602 ns; refresh 39 ns; 1.56% storage for Copy&Compare"
        ),
    )
    for payload in payloads:
        result.add_row(**payload["row"])
    result.notes = (
        f"row read {DDR3_1600.row_read_ns:.0f} ns, refresh "
        f"{DDR3_1600.row_refresh_ns:.0f} ns, Copy&Compare reserved-region "
        f"overhead {100 * copy_and_compare_storage_overhead():.2f}%"
    )
    return result
