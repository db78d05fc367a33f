"""Vendor-internal address scrambling and column remapping.

Modern DRAM chips do two things that hide the physical cell layout from the
system (paper Figure 2):

* **Address scrambling** — logically adjacent system addresses do not map to
  physically adjacent cells; the mapping is vendor- and generation-specific
  and is never exposed.
* **Column remapping** — columns found faulty during manufacturing test are
  remapped onto redundant spare columns at the edge of the array, so the
  physical neighbours of a remapped column live in the spare region.

The classes here model both. The fault model uses the *physical* layout to
decide which cells interfere; the rest of the system only ever sees *system*
addresses, which is exactly the opacity MEMCON is designed to tolerate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np


def _feistel_permutation(size: int, seed: int) -> np.ndarray:
    """A deterministic pseudo-random permutation of ``range(size)``.

    Implemented by seeding numpy's Generator; good enough to model the
    arbitrary, undocumented scrambling a vendor applies.
    """
    rng = np.random.default_rng(seed)
    return rng.permutation(size)


@dataclass(frozen=True)
class AddressScrambler:
    """Bijective mapping between system and physical column indices.

    One instance models one chip generation's scrambling table; different
    seeds give the different mappings used by different vendors/generations.
    """

    columns: int
    seed: int = 0
    _system_to_physical: np.ndarray = field(init=False, repr=False)
    _physical_to_system: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.columns <= 0:
            raise ValueError("columns must be positive")
        fwd = _feistel_permutation(self.columns, self.seed)
        inv = np.empty_like(fwd)
        inv[fwd] = np.arange(self.columns)
        object.__setattr__(self, "_system_to_physical", fwd)
        object.__setattr__(self, "_physical_to_system", inv)

    def to_physical(self, system_column: int) -> int:
        return int(self._system_to_physical[system_column])

    def to_system(self, physical_column: int) -> int:
        return int(self._physical_to_system[physical_column])

    def system_to_physical_array(self) -> np.ndarray:
        """The forward permutation as an array (copy): system -> physical."""
        return self._system_to_physical.copy()

    def physical_to_system_array(self) -> np.ndarray:
        """The inverse permutation as an array (copy): physical -> system."""
        return self._physical_to_system.copy()

    def scramble_row(self, system_bits: np.ndarray) -> np.ndarray:
        """Rearrange a row of system-ordered bits into physical order."""
        if len(system_bits) != self.columns:
            raise ValueError("row length does not match column count")
        physical = np.empty_like(system_bits)
        physical[self._system_to_physical] = system_bits
        return physical

    def scramble_rows(self, system_bits: np.ndarray) -> np.ndarray:
        """Batch :meth:`scramble_row`: scramble a (rows, columns) matrix."""
        if system_bits.shape[-1] != self.columns:
            raise ValueError("row length does not match column count")
        physical = np.empty_like(system_bits)
        physical[..., self._system_to_physical] = system_bits
        return physical

    def unscramble_row(self, physical_bits: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`scramble_row`."""
        if len(physical_bits) != self.columns:
            raise ValueError("row length does not match column count")
        return physical_bits[self._system_to_physical]


@dataclass(frozen=True)
class ColumnRemapper:
    """Manufacturing-time remapping of faulty columns to spare columns.

    ``faulty_columns[i]`` is served by spare slot ``i``, which physically
    lives at index ``array_columns + i`` (the spares sit to the right of the
    main array, as in the paper's Figure 2b).
    """

    array_columns: int
    spare_columns: int
    faulty_columns: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.array_columns <= 0:
            raise ValueError("array_columns must be positive")
        if self.spare_columns < 0:
            raise ValueError("spare_columns must be non-negative")
        if len(self.faulty_columns) > self.spare_columns:
            raise ValueError("more faulty columns than spares")
        if len(set(self.faulty_columns)) != len(self.faulty_columns):
            raise ValueError("duplicate faulty column")
        for col in self.faulty_columns:
            if not 0 <= col < self.array_columns:
                raise ValueError(f"faulty column {col} out of range")

    @property
    def total_columns(self) -> int:
        """Main-array columns plus spares (the true physical width)."""
        return self.array_columns + self.spare_columns

    def physical_location(self, column: int) -> int:
        """Where a (scrambled) column index actually lives in silicon."""
        if not 0 <= column < self.array_columns:
            raise ValueError(f"column {column} out of range")
        try:
            slot = self.faulty_columns.index(column)
        except ValueError:
            return column
        return self.array_columns + slot

    def place_row(self, bits: np.ndarray) -> np.ndarray:
        """Spread a row of logical bits over the physical array + spares.

        Faulty main-array positions are left holding zeros; their data lives
        in the spare region instead.
        """
        if len(bits) != self.array_columns:
            raise ValueError("row length does not match array width")
        physical = np.zeros(self.total_columns, dtype=bits.dtype)
        physical[: self.array_columns] = bits
        for slot, col in enumerate(self.faulty_columns):
            physical[self.array_columns + slot] = bits[col]
            physical[col] = 0
        return physical

    def place_rows(self, bits: np.ndarray) -> np.ndarray:
        """Batch :meth:`place_row`: place a (rows, array_columns) matrix."""
        if bits.shape[-1] != self.array_columns:
            raise ValueError("row length does not match array width")
        physical = np.zeros(bits.shape[:-1] + (self.total_columns,), dtype=bits.dtype)
        physical[..., : self.array_columns] = bits
        if self.faulty_columns:
            faulty = np.asarray(self.faulty_columns, dtype=np.int64)
            spares = self.array_columns + np.arange(len(faulty))
            physical[..., spares] = bits[..., faulty]
            physical[..., faulty] = 0
        return physical

    def extract_row(self, physical: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`place_row`."""
        if len(physical) != self.total_columns:
            raise ValueError("row length does not match physical width")
        bits = physical[: self.array_columns].copy()
        for slot, col in enumerate(self.faulty_columns):
            bits[col] = physical[self.array_columns + slot]
        return bits


@dataclass(frozen=True)
class VendorMapping:
    """The full system-to-silicon path for one chip: scramble then remap."""

    scrambler: AddressScrambler
    remapper: ColumnRemapper
    _system_of_silicon: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.scrambler.columns != self.remapper.array_columns:
            raise ValueError("scrambler and remapper widths disagree")
        of_silicon = np.full(self.physical_columns, -1, dtype=np.int64)
        phys_to_sys = self.scrambler.physical_to_system_array()
        of_silicon[: self.remapper.array_columns] = phys_to_sys
        if self.remapper.faulty_columns:
            faulty = np.asarray(self.remapper.faulty_columns, dtype=np.int64)
            spares = self.remapper.array_columns + np.arange(len(faulty))
            of_silicon[spares] = phys_to_sys[faulty]
            of_silicon[faulty] = -1
        of_silicon.flags.writeable = False
        object.__setattr__(self, "_system_of_silicon", of_silicon)

    @property
    def system_columns(self) -> int:
        """Width of a row in system bit order."""
        return self.scrambler.columns

    @property
    def physical_columns(self) -> int:
        return self.remapper.total_columns

    def to_silicon(self, system_bits: np.ndarray) -> np.ndarray:
        """Lay a system-ordered row of bits out as it sits in silicon."""
        return self.remapper.place_row(self.scrambler.scramble_row(system_bits))

    def to_silicon_batch(self, system_bits: np.ndarray) -> np.ndarray:
        """Batch :meth:`to_silicon`: lay out a (rows, columns) matrix."""
        return self.remapper.place_rows(self.scrambler.scramble_rows(system_bits))

    def from_silicon(self, physical_bits: np.ndarray) -> np.ndarray:
        """Read a silicon layout back into system bit order."""
        return self.scrambler.unscramble_row(self.remapper.extract_row(physical_bits))

    def system_of_silicon(self) -> np.ndarray:
        """System bit index served by each silicon position, -1 if none.

        Faulty main-array positions hold no system data (their content
        lives in the spare region), and neither do unused spares, so a
        flip there is invisible to any read-back — exactly the positions
        marked -1, which :meth:`to_silicon` fills with 0. Computed once
        per mapping; the array is read-only.
        """
        return self._system_of_silicon

    def silicon_index(self, system_column: int) -> int:
        """Physical location of a system column (scramble, then remap)."""
        return self.remapper.physical_location(
            self.scrambler.to_physical(system_column)
        )


def make_vendor_mapping(
    columns: int,
    seed: int = 0,
    spare_columns: int = 0,
    faulty_fraction: float = 0.0,
) -> VendorMapping:
    """Build a random but deterministic vendor mapping for a chip.

    ``faulty_fraction`` of the main-array columns (capped by the number of
    spares) are marked as manufacturing-remapped.
    """
    if not 0.0 <= faulty_fraction <= 1.0:
        raise ValueError("faulty_fraction must be in [0, 1]")
    rng = np.random.default_rng(seed ^ 0x5EED)
    n_faulty = min(int(round(columns * faulty_fraction)), spare_columns)
    faulty = tuple(
        int(c) for c in sorted(rng.choice(columns, size=n_faulty, replace=False))
    )
    return VendorMapping(
        scrambler=AddressScrambler(columns=columns, seed=seed),
        remapper=ColumnRemapper(
            array_columns=columns,
            spare_columns=spare_columns,
            faulty_columns=faulty,
        ),
    )
