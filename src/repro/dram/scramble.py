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
addresses, which is exactly the opacity MEMCON is designed to tolerate. The
model needs the layout once, as :meth:`VendorMapping.system_of_silicon`:
the system bit each silicon position serves, which the fault predicates
gather through.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

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
    _physical_to_system: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.columns <= 0:
            raise ValueError("columns must be positive")
        # The seeded permutation sends system column c to physical
        # column fwd[c]; the model keeps its inverse.
        fwd = _feistel_permutation(self.columns, self.seed)
        inv = np.empty_like(fwd)
        inv[fwd] = np.arange(self.columns)
        object.__setattr__(self, "_physical_to_system", inv)

    def physical_to_system_array(self) -> np.ndarray:
        """The inverse permutation as an array (copy): physical -> system."""
        return self._physical_to_system.copy()


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
        """Lay system-ordered bits out as they sit in silicon.

        ``system_bits`` is one row or a (rows, columns) matrix. Each
        silicon position takes the system bit :meth:`system_of_silicon`
        names, or 0 where it names none; the result keeps the input's
        dtype.
        """
        if system_bits.shape[-1] != self.system_columns:
            raise ValueError("row length does not match column count")
        of_silicon = self._system_of_silicon
        silicon = system_bits[..., of_silicon]
        silicon[..., of_silicon < 0] = 0
        return silicon

    #: The same gather, named for callers that pass a matrix.
    to_silicon_batch = to_silicon

    def system_of_silicon(self) -> np.ndarray:
        """System bit index served by each silicon position, -1 if none.

        Faulty main-array positions hold no system data (their content
        lives in the spare region), and neither do unused spares, so a
        flip there is invisible to any read-back — exactly the positions
        marked -1, which :meth:`to_silicon` fills with 0. Computed once
        per mapping; the array is read-only.
        """
        return self._system_of_silicon


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
