"""DDR3 timing parameters and derived per-operation latency costs.

The defaults reproduce the arithmetic in the MEMCON paper's Appendix:

* one full-row read into the memory controller costs
  ``tRCD + blocks_per_row * tCCD + tRP`` = 534 ns,
* Read&Compare (two row reads) costs 1068 ns,
* Copy&Compare (two reads plus one row write) costs 1602 ns,
* one row refresh costs ``tRAS + tRP`` = 39 ns.

JEDEC DDR3-1600 nominal values differ from these by a few nanoseconds; the
paper rounds, and this module matches the paper (see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass, replace


#: DRAM cycle time for DDR3-1600 (800 MHz command clock), in nanoseconds.
DDR3_1600_CYCLE_NS = 1.25

#: Default retention (refresh) intervals used throughout the paper, in ms.
HI_REF_INTERVAL_MS = 16.0
LO_REF_INTERVAL_MS = 64.0
DEFAULT_REF_INTERVAL_MS = 64.0


@dataclass(frozen=True)
class TimingParameters:
    """DRAM timing parameters, all in nanoseconds unless noted.

    The defaults match the MEMCON paper's Appendix arithmetic for
    DDR3-1600 (see module docstring).
    """

    tCK: float = DDR3_1600_CYCLE_NS
    tRCD: float = 11.0   # ACT -> column command
    tRP: float = 11.0    # PRE -> ACT
    tRAS: float = 28.0   # ACT -> PRE
    tCCD: float = 4.0    # column command -> column command
    tCAS: float = 13.75  # read latency (CL)
    tWR: float = 15.0    # write recovery
    tWTR: float = 7.5    # write -> read turnaround
    tRTP: float = 7.5    # read -> precharge
    tRRD: float = 6.0    # ACT -> ACT, different banks
    tFAW: float = 30.0   # four-activate window
    tRFC: float = 350.0  # refresh command duration (8 Gb chip)
    tREFI: float = 1950.0  # refresh command interval (16 ms aggressive mode)
    burst_cycles: int = 4  # BL8 on a x8 interface occupies 4 clocks

    blocks_per_row: int = 128  # 64 B cache blocks in an 8 KB row

    def __post_init__(self) -> None:
        for name in (
            "tCK", "tRCD", "tRP", "tRAS", "tCCD", "tCAS", "tWR", "tWTR",
            "tRTP", "tRRD", "tFAW", "tRFC", "tREFI",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.blocks_per_row <= 0:
            raise ValueError("blocks_per_row must be positive")

    # ------------------------------------------------------------------
    # Derived costs (paper Appendix)
    # ------------------------------------------------------------------
    @property
    def row_read_ns(self) -> float:
        """Latency to stream one full row into the memory controller."""
        return self.tRCD + self.blocks_per_row * self.tCCD + self.tRP

    @property
    def row_write_ns(self) -> float:
        """Latency to stream one full row from the controller into DRAM.

        The paper charges writes the same per-row cost as reads when
        deriving the Copy&Compare total (3x a row read).
        """
        return self.row_read_ns

    @property
    def read_and_compare_ns(self) -> float:
        """Cost of the Read&Compare test mode: two full row reads."""
        return 2.0 * self.row_read_ns

    @property
    def copy_and_compare_ns(self) -> float:
        """Cost of the Copy&Compare test mode: two reads plus one write."""
        return 2.0 * self.row_read_ns + self.row_write_ns

    @property
    def row_refresh_ns(self) -> float:
        """Cost of refreshing a single row (activate + precharge)."""
        return self.tRAS + self.tRP

    def cycles(self, ns: float) -> int:
        """Convert a latency in nanoseconds to (ceil) DRAM clock cycles."""
        cycles = int(ns / self.tCK)
        if cycles * self.tCK < ns:
            cycles += 1
        return cycles

    def with_density(self, density_gbit: int) -> "TimingParameters":
        """Return timings with ``tRFC`` scaled for the given chip density."""
        return replace(self, tRFC=trfc_for_density_ns(density_gbit))


#: tRFC (ns) per chip density, following the paper's Table 2 scaling.
TRFC_BY_DENSITY_NS = {8: 350.0, 16: 530.0, 32: 890.0, 64: 1600.0}


def trfc_for_density_ns(density_gbit: int) -> float:
    """Return the refresh command duration for a chip density in Gbit."""
    try:
        return TRFC_BY_DENSITY_NS[density_gbit]
    except KeyError:
        raise ValueError(
            f"unsupported chip density {density_gbit} Gb; "
            f"expected one of {sorted(TRFC_BY_DENSITY_NS)}"
        ) from None


DDR3_1600 = TimingParameters()
