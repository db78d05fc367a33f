"""DRAM energy accounting.

The paper motivates refresh reduction with energy as well as performance;
this module provides the standard command-level energy model (per-ACT/RD/
WR/REF energies plus background power, in the style of the Micron DDR3
power model) so simulator results can be converted into energy numbers.

Per-command energies default to representative DDR3-1600 x8 values scaled
to the whole rank; refresh energy scales with chip density the same way
tRFC does, which is what makes refresh reduction increasingly valuable at
8 -> 16 -> 32 Gb.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .. import obs
from ..mc.controller import ControllerStats


@dataclass(frozen=True)
class EnergyParameters:
    """Per-operation energies (nanojoules) and background power (watts)."""

    activate_nj: float = 2.2        # ACT+PRE pair, whole rank
    read_nj: float = 1.3            # column read burst
    write_nj: float = 1.4           # column write burst
    refresh_nj_8gb: float = 120.0   # one all-bank REF on an 8 Gb chip rank
    background_w: float = 0.35      # standby power, whole rank

    def __post_init__(self) -> None:
        for name in ("activate_nj", "read_nj", "write_nj",
                     "refresh_nj_8gb", "background_w"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    def refresh_nj(self, density_gbit: int = 8) -> float:
        """REF energy grows with the rows covered per command."""
        if density_gbit <= 0:
            raise ValueError("density_gbit must be positive")
        return self.refresh_nj_8gb * density_gbit / 8.0


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy consumed over one simulated window, in nanojoules."""

    activate_nj: float
    read_write_nj: float
    refresh_nj: float
    background_nj: float

    @property
    def total_nj(self) -> float:
        return (self.activate_nj + self.read_write_nj
                + self.refresh_nj + self.background_nj)

    @property
    def refresh_fraction(self) -> float:
        total = self.total_nj
        return self.refresh_nj / total if total else 0.0


def energy_of_run(
    stats: ControllerStats,
    window_ns: float,
    density_gbit: int = 8,
    params: Optional[EnergyParameters] = None,
    channel: Optional[int] = None,
) -> EnergyBreakdown:
    """Convert controller statistics into an energy breakdown.

    When a trace sink is active, every call also emits an
    ``energy_rollup`` event (refresh / access / background picojoule
    totals for the window, plus the optional ``channel`` context), so
    fig14-style energy claims are traceable through the same aggregation
    pipeline as the rest of the run.
    """
    if window_ns <= 0:
        raise ValueError("window_ns must be positive")
    params = params or EnergyParameters()
    accesses = stats.row_hits + stats.row_misses + stats.row_conflicts
    activations = stats.row_misses + stats.row_conflicts
    breakdown = EnergyBreakdown(
        activate_nj=activations * params.activate_nj,
        read_write_nj=accesses * params.read_nj,
        refresh_nj=stats.refreshes_issued * params.refresh_nj(density_gbit),
        background_nj=params.background_w * window_ns * 1e-9 * 1e9,
    )
    if obs.trace_active():
        context = {} if channel is None else {"channel": channel}
        obs.emit(
            "energy_rollup",
            window_ns=window_ns,
            refresh_pj=breakdown.refresh_nj * 1e3,
            access_pj=(breakdown.activate_nj + breakdown.read_write_nj) * 1e3,
            background_pj=breakdown.background_nj * 1e3,
            **context,
        )
    return breakdown

