"""DRAM substrate: geometry, timing, vendor mapping, faults, and device.

This package models everything below the memory controller:

* :mod:`~repro.dram.timing` — DDR3 timing parameters and derived costs,
* :mod:`~repro.dram.geometry` — module shape and system address codec,
* :mod:`~repro.dram.scramble` — vendor address scrambling / column remapping,
* :mod:`~repro.dram.faults` — data-dependent failure population,
* :mod:`~repro.dram.cell_array` — per-row content plus the silicon view,
* :mod:`~repro.dram.device` — functional command-level DRAM device.
"""

from .cell_array import CellArray, bits_to_bytes, bytes_to_bits
from .device import DeviceError, DramDevice
from .faults import FaultMap, FaultModelConfig, VulnerableCell
from .geometry import PAPER_MODULE, TINY_MODULE, DramGeometry, RowAddress
from .scramble import (
    AddressScrambler,
    ColumnRemapper,
    VendorMapping,
    make_vendor_mapping,
)
from .timing import (
    DDR3_1600,
    HI_REF_INTERVAL_MS,
    LO_REF_INTERVAL_MS,
    TimingParameters,
    trefi_for_refresh_interval_ns,
    trfc_for_density_ns,
)

__all__ = [
    "AddressScrambler",
    "CellArray",
    "ColumnRemapper",
    "DDR3_1600",
    "DeviceError",
    "DramDevice",
    "DramGeometry",
    "FaultMap",
    "FaultModelConfig",
    "HI_REF_INTERVAL_MS",
    "LO_REF_INTERVAL_MS",
    "PAPER_MODULE",
    "RowAddress",
    "TINY_MODULE",
    "TimingParameters",
    "VendorMapping",
    "VulnerableCell",
    "bits_to_bytes",
    "bytes_to_bits",
    "make_vendor_mapping",
    "trefi_for_refresh_interval_ns",
    "trfc_for_density_ns",
]
