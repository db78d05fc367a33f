"""Cell-level DRAM content model.

A :class:`CellArray` stores the logical (system-visible) content of every
row that has ever been written. Combined with a
:class:`~repro.dram.faults.FaultMap` it answers the question at the centre
of MEMCON: *given what is currently stored, which cells fail at a given
refresh interval?* It hands the fault map system-order content together
with the chip's vendor mapping, through which the predicate reads each
vulnerable cell and its two physical neighbours; no row is laid out in
silicon order.

Rows never written are treated as holding all zeros (the post-power-up
convention used by the paper's FPGA test infrastructure).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from .faults import FaultMap, VulnerableCell
from .geometry import DramGeometry
from .scramble import VendorMapping, make_vendor_mapping


def bytes_to_bits(data: bytes) -> np.ndarray:
    """Unpack bytes into a bit array (LSB-first within each byte)."""
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8), bitorder="little")


def bits_to_bytes(bits: np.ndarray) -> bytes:
    """Inverse of :func:`bytes_to_bits`."""
    if len(bits) % 8:
        raise ValueError("bit array length must be a multiple of 8")
    return np.packbits(bits.astype(np.uint8), bitorder="little").tobytes()


class CellArray:
    """System-visible DRAM content plus the hidden silicon layout.

    Parameters
    ----------
    geometry:
        Shape of the module.
    fault_map:
        Vulnerable-cell population. Built automatically when omitted.
    vendor_mapping:
        Scramble+remap path. Built automatically (seeded) when omitted.
    seed:
        Chip seed used for any auto-built components.
    """

    def __init__(
        self,
        geometry: DramGeometry,
        fault_map: Optional[FaultMap] = None,
        vendor_mapping: Optional[VendorMapping] = None,
        seed: int = 0,
    ) -> None:
        self.geometry = geometry
        self.seed = seed
        if vendor_mapping is None:
            spares = max(8, geometry.bits_per_row // 256)
            vendor_mapping = make_vendor_mapping(
                columns=geometry.bits_per_row,
                seed=seed,
                spare_columns=spares,
                faulty_fraction=0.002,
            )
        self.vendor_mapping = vendor_mapping
        if fault_map is None:
            fault_map = FaultMap(
                total_rows=geometry.total_rows,
                bits_per_row=vendor_mapping.physical_columns,
                seed=seed,
            )
        self.fault_map = fault_map
        self._rows: Dict[int, np.ndarray] = {}
        self._zero_row = np.zeros(geometry.bits_per_row, dtype=np.uint8)

    # ------------------------------------------------------------------
    # Content access (system order)
    # ------------------------------------------------------------------
    def write_row_bits(self, row_index: int, bits: np.ndarray) -> None:
        """Replace the full content of a row (system bit order)."""
        self._check_row(row_index)
        if len(bits) != self.geometry.bits_per_row:
            raise ValueError("bit array does not match row width")
        self._rows[row_index] = bits.astype(np.uint8, copy=True)

    def write_row_bytes(self, row_index: int, data: bytes) -> None:
        """Replace the full content of a row from raw bytes."""
        if len(data) != self.geometry.row_size_bytes:
            raise ValueError("data does not match row size")
        self.write_row_bits(row_index, bytes_to_bits(data))

    def write_block(self, row_index: int, block: int, data: bytes) -> None:
        """Write one cache block within a row."""
        self._check_row(row_index)
        block_bytes = self.geometry.block_size_bytes
        if not 0 <= block < self.geometry.blocks_per_row:
            raise ValueError(f"block {block} out of range")
        if len(data) != block_bytes:
            raise ValueError("data does not match block size")
        bits = self._rows.get(row_index)
        if bits is None:
            bits = self._zero_row.copy()
            self._rows[row_index] = bits
        start = block * block_bytes * 8
        bits[start: start + block_bytes * 8] = bytes_to_bits(data)

    def read_row_bits(self, row_index: int) -> np.ndarray:
        """Current content of a row in system bit order (copy)."""
        self._check_row(row_index)
        return self._rows.get(row_index, self._zero_row).copy()

    def read_row_bytes(self, row_index: int) -> bytes:
        return bits_to_bytes(self.read_row_bits(row_index))

    def written_rows(self) -> List[int]:
        """Flat indices of rows that hold explicit (non-default) content."""
        return sorted(self._rows)

    # ------------------------------------------------------------------
    # Failure evaluation
    # ------------------------------------------------------------------
    def failing_cells(
        self, row_index: int, refresh_interval_ms: float
    ) -> List[VulnerableCell]:
        """Vulnerable cells that fail with the *current* content."""
        return self.fault_map.failing_cells(
            row_index, self.read_row_bits(row_index), refresh_interval_ms,
            self.vendor_mapping,
        )

    def decay_row(self, row_index: int, refresh_interval_ms: float) -> np.ndarray:
        """Content after an idle retention window, in system bit order.

        Flips the stored value of every failing cell that holds system
        data — what a read-back after the idle period sees. Flips at
        silicon positions serving no system bit are invisible.
        """
        bits = self.read_row_bits(row_index)
        flipped = self.fault_map.failing_columns(
            row_index, bits, refresh_interval_ms, self.vendor_mapping
        )
        system = self.vendor_mapping.system_of_silicon()[flipped]
        bits[system[system >= 0]] ^= 1
        return bits

    def _check_row(self, row_index: int) -> None:
        if not 0 <= row_index < self.geometry.total_rows:
            raise ValueError(f"row index {row_index} out of range")
