"""Cost-benefit analysis of content testing (paper §3.3, Figure 6, Appendix).

MEMCON trades the one-time cost of testing a row's content against the
refresh savings of running that row at LO-REF afterwards. This module
models both accumulated-latency curves and finds the crossover — the
*MinWriteInterval*: the minimum gap between two consecutive writes (tests)
to a row for testing to pay for itself.

With the default DDR3-1600 timings the model reproduces the paper exactly:

===================  ==============  ==================
test mode            LO-REF interval  MinWriteInterval
===================  ==============  ==================
Read and Compare      64 ms           560 ms
Copy and Compare      64 ms           864 ms
Read and Compare     128 ms           480 ms
Read and Compare     256 ms           448 ms
===================  ==============  ==================

Accounting detail that the paper's Figure 6 implies: the test itself keeps
the row idle for one full LO-REF retention window (cells must be tested at
their lowest charge), so the row's first post-test LO-REF refresh is not
an *extra* cost — MEMCON's refresh charges start one LO-REF interval after
the test. The HI-REF baseline refreshes on its grid from time zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import List, Tuple

from ..dram.timing import (
    HI_REF_INTERVAL_MS,
    LO_REF_INTERVAL_MS,
    DDR3_1600,
    TimingParameters,
)


class TestMode(Enum):
    """Where in-test row content is buffered during the idle window.

    READ_AND_COMPARE buffers the whole row in the memory controller (two
    full-row reads). COPY_AND_COMPARE parks the row in a reserved DRAM
    region and keeps only ECC in the controller (two reads plus one write),
    trading 50% more test latency for far less controller storage.
    """

    __test__ = False  # "Test" prefix is domain vocabulary, not a pytest class

    READ_AND_COMPARE = "read_and_compare"
    COPY_AND_COMPARE = "copy_and_compare"


def test_cost_ns(mode: TestMode, timing: TimingParameters = DDR3_1600) -> float:
    """Latency cost of one row test in the given mode (paper Appendix)."""
    if mode is TestMode.READ_AND_COMPARE:
        return timing.read_and_compare_ns
    if mode is TestMode.COPY_AND_COMPARE:
        return timing.copy_and_compare_ns
    raise ValueError(f"unknown test mode {mode!r}")


@dataclass(frozen=True)
class CostModel:
    """Accumulated per-row latency cost of HI-REF vs MEMCON over time."""

    timing: TimingParameters = DDR3_1600
    hi_ref_interval_ms: float = HI_REF_INTERVAL_MS
    lo_ref_interval_ms: float = LO_REF_INTERVAL_MS

    def __post_init__(self) -> None:
        if self.hi_ref_interval_ms <= 0 or self.lo_ref_interval_ms <= 0:
            raise ValueError("refresh intervals must be positive")
        if self.lo_ref_interval_ms <= self.hi_ref_interval_ms:
            raise ValueError("LO-REF interval must exceed HI-REF interval")

    # ------------------------------------------------------------------
    def hi_ref_cost_ns(self, t_ms: float) -> float:
        """Accumulated refresh latency of the always-HI-REF baseline.

        Refreshes land on the HI-REF grid: one at every multiple of the
        interval that has elapsed by time ``t``.
        """
        if t_ms < 0:
            raise ValueError("t_ms must be non-negative")
        refreshes = math.floor(t_ms / self.hi_ref_interval_ms)
        return refreshes * self.timing.row_refresh_ns

    def memcon_cost_ns(self, t_ms: float, mode: TestMode) -> float:
        """Accumulated cost of MEMCON: test once at t=0, then LO-REF.

        The test holds the row idle through the first LO-REF window, so
        LO-REF refreshes start one interval after the test completes.
        """
        if t_ms < 0:
            raise ValueError("t_ms must be non-negative")
        cost = test_cost_ns(mode, self.timing)
        post_test_ms = t_ms - self.lo_ref_interval_ms
        if post_test_ms > 0:
            refreshes = math.floor(post_test_ms / self.lo_ref_interval_ms)
            cost += refreshes * self.timing.row_refresh_ns
        return cost

    # ------------------------------------------------------------------
    def min_write_interval_ms(
        self,
        mode: TestMode,
        resolution_ms: float = 16.0,
        horizon_ms: float = 60_000.0,
    ) -> float:
        """Smallest write interval at which testing beats HI-REF.

        Scans the accumulated-cost curves on the HI-REF refresh grid (the
        curves only change at refresh instants, so the HI-REF interval is
        the natural resolution) and returns the first time the HI-REF curve
        meets or exceeds the MEMCON curve.
        """
        if resolution_ms <= 0:
            raise ValueError("resolution_ms must be positive")
        steps = int(horizon_ms / resolution_ms)
        for step in range(1, steps + 1):
            t_ms = step * resolution_ms
            if self.hi_ref_cost_ns(t_ms) >= self.memcon_cost_ns(t_ms, mode):
                return t_ms
        raise RuntimeError(
            f"no crossover within {horizon_ms} ms; testing never amortises"
        )

    def cost_curves(
        self,
        mode: TestMode,
        horizon_ms: float,
        resolution_ms: float = 16.0,
    ) -> Tuple[List[float], List[float], List[float]]:
        """(times, hi_ref_costs, memcon_costs) for plotting Figure 6."""
        if horizon_ms <= 0:
            raise ValueError("horizon_ms must be positive")
        times = [
            step * resolution_ms
            for step in range(1, int(horizon_ms / resolution_ms) + 1)
        ]
        hi = [self.hi_ref_cost_ns(t) for t in times]
        mem = [self.memcon_cost_ns(t, mode) for t in times]
        return times, hi, mem


def copy_and_compare_storage_overhead(
    reserved_rows_per_bank: int = 512,
    rows_per_bank: int = 32768,
    banks: int = 8,
) -> float:
    """DRAM capacity fraction reserved for in-test row parking.

    The paper's Appendix: 512 reserved rows per bank in a 2 GB module with
    8 banks costs 4096 / 262144 = 1.56% of capacity.
    """
    if reserved_rows_per_bank < 0 or rows_per_bank <= 0 or banks <= 0:
        raise ValueError("row and bank counts must be positive")
    if reserved_rows_per_bank > rows_per_bank:
        raise ValueError("cannot reserve more rows than a bank has")
    return (reserved_rows_per_bank * banks) / (rows_per_bank * banks)
