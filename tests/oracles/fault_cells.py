"""The retired scalar fault predicates: equivalence oracles.

:class:`repro.dram.faults.FaultMap` answers every failure query with
array operations over whole rows or batches of rows. This module keeps
the per-cell evaluation those paths replaced, one vulnerable cell and
one comparison at a time, so the differential suites can hold the
vectorised masks and worst-case scans to the reference semantics.
"""

from __future__ import annotations

import numpy as np

from repro.dram.faults import FaultMap, VulnerableCell


def cell_fails(
    fault_map: FaultMap,
    cell: VulnerableCell,
    physical_row_bits: np.ndarray,
    refresh_interval_ms: float,
) -> bool:
    """Whether one vulnerable cell flips, given silicon-order content.

    Only a *charged* cell can lose data: a true-cell fails only while
    storing 1, an anti-cell only while storing 0. A physical neighbour
    is an aggressor when it holds the opposite stored value.
    """
    col = cell.physical_column
    if col >= len(physical_row_bits):
        return False  # cell sits past this row's physical width
    value = int(physical_row_bits[col])
    charged = value == 1 if cell.true_cell else value == 0
    if not charged:
        return False
    aggressors = 0
    if col > 0 and int(physical_row_bits[col - 1]) != value:
        aggressors += 1
    if col + 1 < len(physical_row_bits) and int(physical_row_bits[col + 1]) != value:
        aggressors += 1
    return fault_map.stress(aggressors, refresh_interval_ms) >= cell.threshold


def row_can_ever_fail(
    fault_map: FaultMap, row_index: int, refresh_interval_ms: float
) -> bool:
    """Worst-case (ALL-FAIL) check: does *any* content break this row?

    The worst case for a vulnerable cell is being charged with both
    neighbours aggressing, so a row can ever fail iff it holds a
    vulnerable cell whose threshold is within worst-case stress.
    """
    worst = fault_map.stress(2, refresh_interval_ms)
    return any(
        c.threshold <= worst for c in fault_map.cells_in_row(row_index)
    )
