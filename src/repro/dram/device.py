"""Functional DRAM device: command interface over the cell array.

This is the *functional* half of the DRAM model — it executes ACT / RD /
WR / PRE / REF commands against a :class:`~repro.dram.cell_array.CellArray`
and tracks per-row refresh timestamps so that retention failures manifest
when a row is left unrefreshed longer than its assigned interval. Timing
legality (tRCD, tRP, ...) is enforced by the cycle-level memory controller
in :mod:`repro.mc`; the device itself is untimed, which keeps functional
testing (SoftMC-style) fast.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .cell_array import CellArray
from .geometry import DramGeometry


class DeviceError(Exception):
    """Illegal command sequence (e.g. column access to a closed bank)."""


@dataclass
class _BankState:
    open_row: Optional[int] = None  # row (within bank), None when precharged


class DramDevice:
    """An untimed DRAM module with per-row retention behaviour.

    Time is supplied by the caller on every command (``now_ms``); the device
    applies charge decay lazily, when a row is next activated, based on how
    long the row went without an activate/refresh.
    """

    def __init__(
        self,
        geometry: DramGeometry,
        cell_array: Optional[CellArray] = None,
        seed: int = 0,
    ) -> None:
        self.geometry = geometry
        self.cells = cell_array if cell_array is not None else CellArray(geometry, seed=seed)
        if self.cells.geometry is not geometry and self.cells.geometry != geometry:
            raise ValueError("cell array geometry does not match device geometry")
        self._banks: Dict[Tuple[int, int, int], _BankState] = {}
        # Last time each flat row was charged (activated or refreshed).
        self._last_charge_ms: Dict[int, float] = {}
        self.activate_count = 0
        self.refresh_count = 0

    # ------------------------------------------------------------------
    def _bank(self, channel: int, rank: int, bank: int) -> _BankState:
        key = (channel, rank, bank)
        state = self._banks.get(key)
        if state is None:
            state = _BankState()
            self._banks[key] = state
        return state

    def _flat_row(self, channel: int, rank: int, bank: int, row: int) -> int:
        from .geometry import RowAddress

        return self.geometry.row_index(RowAddress(channel, rank, bank, row))

    def _apply_decay(self, flat_row: int, now_ms: float) -> None:
        """Materialise retention failures accumulated while the row sat idle."""
        last = self._last_charge_ms.get(flat_row, 0.0)
        idle_ms = now_ms - last
        if idle_ms <= 0:
            return
        decayed = self.cells.decay_row(flat_row, idle_ms)
        self.cells.write_row_bits(flat_row, decayed)

    # ------------------------------------------------------------------
    # Commands
    # ------------------------------------------------------------------
    def activate(self, channel: int, rank: int, bank: int, row: int, now_ms: float) -> None:
        """Open a row: latch it into the sense amps, fully recharging it."""
        state = self._bank(channel, rank, bank)
        if state.open_row is not None:
            raise DeviceError(
                f"bank ({channel},{rank},{bank}) already has row "
                f"{state.open_row} open"
            )
        flat = self._flat_row(channel, rank, bank, row)
        self._apply_decay(flat, now_ms)
        self._last_charge_ms[flat] = now_ms
        state.open_row = row
        self.activate_count += 1

    def precharge(self, channel: int, rank: int, bank: int) -> None:
        """Close the open row of a bank."""
        state = self._bank(channel, rank, bank)
        if state.open_row is None:
            raise DeviceError(f"bank ({channel},{rank},{bank}) is already precharged")
        state.open_row = None

    def read_block(
        self, channel: int, rank: int, bank: int, block: int
    ) -> bytes:
        """Read one cache block from the open row."""
        state = self._bank(channel, rank, bank)
        if state.open_row is None:
            raise DeviceError("read from a precharged bank")
        flat = self._flat_row(channel, rank, bank, state.open_row)
        data = self.cells.read_row_bytes(flat)
        size = self.geometry.block_size_bytes
        if not 0 <= block < self.geometry.blocks_per_row:
            raise DeviceError(f"block {block} out of range")
        return data[block * size: (block + 1) * size]

    def write_block(
        self, channel: int, rank: int, bank: int, block: int, data: bytes
    ) -> None:
        """Write one cache block into the open row."""
        state = self._bank(channel, rank, bank)
        if state.open_row is None:
            raise DeviceError("write to a precharged bank")
        flat = self._flat_row(channel, rank, bank, state.open_row)
        self.cells.write_block(flat, block, data)

    def refresh_row(self, flat_row: int, now_ms: float) -> None:
        """Refresh one row (restores full charge; decay first materialises)."""
        self._apply_decay(flat_row, now_ms)
        self._last_charge_ms[flat_row] = now_ms
        self.refresh_count += 1

    # ------------------------------------------------------------------
    # Whole-row conveniences used by the test infrastructure
    # ------------------------------------------------------------------
    def read_row(self, flat_row: int, now_ms: float) -> bytes:
        """Activate-read-precharge a full row at the flat-row level."""
        self._apply_decay(flat_row, now_ms)
        self._last_charge_ms[flat_row] = now_ms
        self.activate_count += 1
        return self.cells.read_row_bytes(flat_row)

    def write_row(self, flat_row: int, data: bytes, now_ms: float) -> None:
        """Activate-write-precharge a full row at the flat-row level."""
        self.cells.write_row_bits(flat_row, bytes_to_row_width(data, self.geometry))
        self._last_charge_ms[flat_row] = now_ms
        self.activate_count += 1

    def last_charge_ms(self, flat_row: int) -> float:
        """When a row was last activated or refreshed (0.0 if never)."""
        return self._last_charge_ms.get(flat_row, 0.0)


def bytes_to_row_width(data: bytes, geometry: DramGeometry) -> np.ndarray:
    """Validate raw bytes against the row size and unpack to bits."""
    from .cell_array import bytes_to_bits

    if len(data) != geometry.row_size_bytes:
        raise ValueError(
            f"row data is {len(data)} bytes; expected {geometry.row_size_bytes}"
        )
    return bytes_to_bits(data)
