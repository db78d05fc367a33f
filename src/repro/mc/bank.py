"""Bank and rank timing state for the cycle-level memory controller."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..dram.timing import TimingParameters


@dataclass
class BankState:
    """Timing state of one DRAM bank.

    ``ready_ns`` is when the bank can accept its next command;
    ``open_row`` is the row latched in the sense amps (None = precharged).
    """

    ready_ns: float = 0.0
    open_row: Optional[int] = None
    row_hits: int = 0
    row_misses: int = 0
    row_conflicts: int = 0


@dataclass
class RankState:
    """Rank-wide constraints: refresh blocking and data-bus occupancy."""

    refresh_until_ns: float = 0.0   # all banks blocked before this time
    bus_free_ns: float = 0.0        # next time the data bus can start a burst
    refreshes_issued: int = 0
    refresh_busy_ns: float = 0.0


def service_request(
    bank: BankState,
    rank: RankState,
    row: int,
    now_ns: float,
    timing: TimingParameters,
) -> float:
    """Issue one column access to ``row`` and return data-completion time.

    The caller (the scheduler) guarantees the bank can accept a command at
    ``now_ns`` and that no refresh is pending. Applies the row-buffer state
    machine (hit / closed / conflict) and data-bus serialisation; mutates
    the bank and rank state.
    """
    start = max(now_ns, bank.ready_ns, rank.refresh_until_ns)
    if bank.open_row == row:
        bank.row_hits += 1
        column_at = start
    elif bank.open_row is None:
        bank.row_misses += 1
        column_at = start + timing.tRCD
        bank.open_row = row
    else:
        bank.row_conflicts += 1
        column_at = start + timing.tRP + timing.tRCD
        bank.open_row = row
    burst_ns = timing.burst_cycles * timing.tCK
    # The data burst must also wait for the shared bus.
    data_start = max(column_at + timing.tCAS, rank.bus_free_ns)
    data_end = data_start + burst_ns
    rank.bus_free_ns = data_start + max(burst_ns, timing.tCCD)
    # Bank can take its next column command one tCCD after this one.
    bank.ready_ns = max(column_at + timing.tCCD, data_end - timing.tCAS)
    return data_end


def issue_refresh(
    rank: RankState,
    banks: list,
    now_ns: float,
    timing: TimingParameters,
) -> float:
    """Issue an all-bank refresh at ``now_ns`` and return when it ends.

    All banks are precharged by REF; open rows are lost.
    """
    end = now_ns + timing.tRFC
    rank.refresh_until_ns = end
    rank.refreshes_issued += 1
    rank.refresh_busy_ns += timing.tRFC
    for bank in banks:
        bank.open_row = None
        bank.ready_ns = max(bank.ready_ns, end)
    return end
