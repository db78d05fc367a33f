"""Row remapping: the paper's third mitigation option (§1, §2).

Besides a higher refresh rate and ECC, detected failures can be mitigated
by remapping the failing row to a reliable spare region — the system-level
analogue of the manufacturer's column remapping. A :class:`RemapTable`
manages a bounded pool of spare rows: rows remapped there run at LO-REF
regardless of their content (spares are selected/validated to be strong),
at the cost of one indirection entry per remapped row and the capacity
the spare region consumes.

:func:`plan_mitigations` combines all three options into one policy:
clean rows run at LO-REF; correctable rows use ECC; uncorrectable rows
are remapped while spares last and pinned at HI-REF after that — the
cheapest-first cascade a real controller would implement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..dram.faults import VulnerableCell
from .ecc import EccConfig, row_is_correctable


class RemapTable:
    """Bounded indirection from failing rows to spare rows."""

    def __init__(self, spare_rows: Sequence[int]) -> None:
        spares = list(spare_rows)
        if len(set(spares)) != len(spares):
            raise ValueError("duplicate spare rows")
        self._free: List[int] = spares
        self._mapping: Dict[int, int] = {}

    @property
    def capacity(self) -> int:
        return len(self._free) + len(self._mapping)

    @property
    def available(self) -> int:
        return len(self._free)

    @property
    def remapped_rows(self) -> int:
        return len(self._mapping)

    def lookup(self, row: int) -> Optional[int]:
        """Spare serving ``row``, or None when not remapped."""
        return self._mapping.get(row)

    def remap(self, row: int) -> Optional[int]:
        """Assign a spare to ``row``; None when the pool is exhausted."""
        if row in self._mapping:
            raise ValueError(f"row {row} is already remapped")
        if not self._free:
            return None
        spare = self._free.pop()
        self._mapping[row] = spare
        return spare

    def release(self, row: int) -> None:
        """Return a row's spare to the pool (content changed and passed)."""
        spare = self._mapping.pop(row, None)
        if spare is None:
            raise ValueError(f"row {row} is not remapped")
        self._free.append(spare)

    def storage_overhead_bits(self, row_address_bits: int = 18) -> int:
        """Indirection-table cost: two addresses per possible entry."""
        if row_address_bits <= 0:
            raise ValueError("row_address_bits must be positive")
        return self.capacity * 2 * row_address_bits


@dataclass(frozen=True)
class MitigationPlan:
    """Outcome of the cheapest-first cascade over a tested row set."""

    lo_ref_rows: int
    ecc_rows: int
    remapped_rows: int
    hi_ref_rows: int

    @property
    def total(self) -> int:
        return (self.lo_ref_rows + self.ecc_rows
                + self.remapped_rows + self.hi_ref_rows)

    def refresh_ops_per_window(self, hi_per_lo: float = 4.0) -> float:
        """Refresh work per LO-REF window; only HI-REF rows pay extra."""
        lo_like = self.lo_ref_rows + self.ecc_rows + self.remapped_rows
        return lo_like + self.hi_ref_rows * hi_per_lo


def plan_mitigations(
    failing_cells_by_row: Dict[int, Sequence[VulnerableCell]],
    remap_table: Optional[RemapTable] = None,
    ecc: Optional[EccConfig] = None,
) -> MitigationPlan:
    """Run the LO-REF -> ECC -> remap -> HI-REF cascade over tested rows.

    ``failing_cells_by_row`` maps each tested row to its current-content
    failing cells (empty sequence = clean). ECC and remapping are each
    optional; disabled stages fall through to the next.
    """
    lo = ecc_count = remapped = hi = 0
    for row in sorted(failing_cells_by_row):
        cells = failing_cells_by_row[row]
        if not cells:
            lo += 1
            continue
        if ecc is not None and row_is_correctable(
            [cell.physical_column for cell in cells], ecc
        ):
            ecc_count += 1
            continue
        if remap_table is not None and remap_table.remap(row) is not None:
            remapped += 1
            continue
        hi += 1
    return MitigationPlan(
        lo_ref_rows=lo,
        ecc_rows=ecc_count,
        remapped_rows=remapped,
        hi_ref_rows=hi,
    )
