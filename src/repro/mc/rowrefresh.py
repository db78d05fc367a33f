"""Row-granularity refresh scheduling.

The paper's mechanisms (MEMCON, RAIDR) conceptually refresh *rows* at
per-row rates, while commodity controllers issue rank-wide auto-refresh
(REF) commands. This module provides the row-granularity alternative for
the cycle simulator: refresh work arrives as a stream of single-row
refreshes — each occupying one bank for a row cycle (tRAS + tRP = 39 ns)
instead of blocking the whole rank for tRFC — at the aggregate rate the
two-rate row population implies.

Comparing this against the all-bank model quantifies a second-order
benefit the paper leaves implicit: for equal refresh *work*, row-granular
refresh interferes less because seven of eight banks stay available.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..dram.timing import TimingParameters


@dataclass(frozen=True)
class RowRefreshSettings:
    """A two-rate row population driving per-row refresh commands.

    ``hi_rows`` rows refresh every ``hi_interval_ms``; ``lo_rows`` every
    ``lo_interval_ms``. The implied command rate is
    ``hi_rows / hi_interval + lo_rows / lo_interval``.
    """

    hi_rows: int
    lo_rows: int
    hi_interval_ms: float = 16.0
    lo_interval_ms: float = 64.0

    def __post_init__(self) -> None:
        if self.hi_rows < 0 or self.lo_rows < 0:
            raise ValueError("row counts must be non-negative")
        if self.hi_rows + self.lo_rows == 0:
            raise ValueError("need at least one row")
        if self.hi_interval_ms <= 0 or self.lo_interval_ms <= 0:
            raise ValueError("intervals must be positive")

    @property
    def total_rows(self) -> int:
        return self.hi_rows + self.lo_rows

    @property
    def commands_per_ms(self) -> float:
        """Row-refresh commands needed per millisecond."""
        return (
            self.hi_rows / self.hi_interval_ms
            + self.lo_rows / self.lo_interval_ms
        )

    @property
    def command_interval_ns(self) -> float:
        """Spacing between consecutive row-refresh commands."""
        return 1e6 / self.commands_per_ms

    def refresh_reduction(self) -> float:
        """Refresh-operation reduction vs all rows at the HI rate."""
        baseline = self.total_rows / self.hi_interval_ms
        return 1.0 - self.commands_per_ms / baseline


class RowRefreshScheduler:
    """Issues single-row refreshes round-robin across banks.

    Attach to a :class:`~repro.mc.controller.MemoryController` via its
    ``row_refresh`` parameter; the controller calls :meth:`tick` instead
    of issuing all-bank REF commands.
    """

    def __init__(
        self,
        settings: RowRefreshSettings,
        timing: TimingParameters,
        banks: int,
    ) -> None:
        if banks <= 0:
            raise ValueError("banks must be positive")
        self.settings = settings
        self.timing = timing
        self.banks = banks
        self._next_refresh_ns = settings.command_interval_ns
        self._next_bank = 0
        self.commands_issued = 0
        self.busy_ns = 0.0

    @property
    def row_cycle_ns(self) -> float:
        """Bank occupancy of one row refresh (ACT + PRE)."""
        return self.timing.tRAS + self.timing.tRP

    @property
    def next_due_ns(self) -> float:
        return self._next_refresh_ns

    def tick(self, now_ns: float, bank_states: List) -> bool:
        """Issue one row refresh if due; returns True when issued.

        The chosen bank is blocked for one row cycle starting when it is
        next free; its open row is closed (refresh implies precharge).
        """
        if now_ns < self._next_refresh_ns:
            return False
        bank = bank_states[self._next_bank]
        start = max(now_ns, bank.ready_ns)
        bank.ready_ns = start + self.row_cycle_ns
        bank.open_row = None
        self._next_bank = (self._next_bank + 1) % self.banks
        self._next_refresh_ns += self.settings.command_interval_ns
        self.commands_issued += 1
        self.busy_ns += self.row_cycle_ns
        return True
