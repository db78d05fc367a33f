"""The retired scramble-then-place silicon layout: an equivalence oracle.

:meth:`repro.dram.scramble.VendorMapping.to_silicon` lays system-ordered
bits out in one gather through ``system_of_silicon()``. This module keeps
the composition that gather replaced: scramble a row into physical column
order, then place it on the main array with each manufacturing-faulty
column's bit moved to its spare. Each function takes the scrambler,
remapper or mapping it works over. The layout tests and the fault-map
benchmark hold the gather, and the predicates that read through it, to
this reference.
"""

from __future__ import annotations

import numpy as np

from repro.dram.scramble import AddressScrambler, ColumnRemapper, VendorMapping


def system_to_physical_array(scrambler: AddressScrambler) -> np.ndarray:
    """The forward permutation: physical column of each system column."""
    inverse = scrambler.physical_to_system_array()
    forward = np.empty_like(inverse)
    forward[inverse] = np.arange(scrambler.columns)
    return forward


def to_physical(scrambler: AddressScrambler, system_column: int) -> int:
    return int(system_to_physical_array(scrambler)[system_column])


def to_system(scrambler: AddressScrambler, physical_column: int) -> int:
    return int(scrambler.physical_to_system_array()[physical_column])


def scramble_rows(scrambler: AddressScrambler, system_bits: np.ndarray) -> np.ndarray:
    """Rearrange system-ordered rows (1-D or 2-D) into physical order."""
    if system_bits.shape[-1] != scrambler.columns:
        raise ValueError("row length does not match column count")
    physical = np.empty_like(system_bits)
    physical[..., system_to_physical_array(scrambler)] = system_bits
    return physical


def unscramble_row(scrambler: AddressScrambler, physical_bits: np.ndarray) -> np.ndarray:
    """Inverse of :func:`scramble_rows` for one row."""
    if len(physical_bits) != scrambler.columns:
        raise ValueError("row length does not match column count")
    return physical_bits[system_to_physical_array(scrambler)]


def physical_location(remapper: ColumnRemapper, column: int) -> int:
    """Where a (scrambled) column index actually lives in silicon."""
    if not 0 <= column < remapper.array_columns:
        raise ValueError(f"column {column} out of range")
    try:
        slot = remapper.faulty_columns.index(column)
    except ValueError:
        return column
    return remapper.array_columns + slot


def place_rows(remapper: ColumnRemapper, bits: np.ndarray) -> np.ndarray:
    """Spread rows (1-D or 2-D) over the physical array plus spares.

    Faulty main-array positions are left holding zeros; their data lives
    in the spare region instead.
    """
    if bits.shape[-1] != remapper.array_columns:
        raise ValueError("row length does not match array width")
    physical = np.zeros(
        bits.shape[:-1] + (remapper.total_columns,), dtype=bits.dtype
    )
    physical[..., : remapper.array_columns] = bits
    if remapper.faulty_columns:
        faulty = np.asarray(remapper.faulty_columns, dtype=np.int64)
        spares = remapper.array_columns + np.arange(len(faulty))
        physical[..., spares] = bits[..., faulty]
        physical[..., faulty] = 0
    return physical


def extract_row(remapper: ColumnRemapper, physical: np.ndarray) -> np.ndarray:
    """Inverse of :func:`place_rows` for one row."""
    if len(physical) != remapper.total_columns:
        raise ValueError("row length does not match physical width")
    bits = physical[: remapper.array_columns].copy()
    for slot, col in enumerate(remapper.faulty_columns):
        bits[col] = physical[remapper.array_columns + slot]
    return bits


def to_silicon(mapping: VendorMapping, system_bits: np.ndarray) -> np.ndarray:
    """Scramble, then place: rows (1-D or 2-D) as they sit in silicon."""
    return place_rows(
        mapping.remapper, scramble_rows(mapping.scrambler, system_bits)
    )


def from_silicon(mapping: VendorMapping, physical_bits: np.ndarray) -> np.ndarray:
    """Read one silicon row back into system bit order."""
    return unscramble_row(
        mapping.scrambler, extract_row(mapping.remapper, physical_bits)
    )


def silicon_index(mapping: VendorMapping, system_column: int) -> int:
    """Physical location of a system column (scramble, then remap)."""
    return physical_location(
        mapping.remapper, to_physical(mapping.scrambler, system_column)
    )
