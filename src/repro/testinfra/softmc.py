"""SoftMC-style retention tester.

Replays the protocol of the paper's FPGA infrastructure against the
simulated DRAM device: (i) fill the module with a data pattern or captured
program content, (ii) keep it idle for one retention interval, (iii) read
everything back and diff. The result is a :class:`FailureReport` listing
failing cells and rows in *system* coordinates — the tester, like a real
host, never sees the silicon layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from .. import obs
from ..dram.cell_array import bits_to_bytes
from ..dram.device import DramDevice
from .patterns import DataPattern


@dataclass(frozen=True)
class CellFailure:
    """One bit observed flipped after the idle window (system coords)."""

    row_index: int
    bit: int          # bit offset within the row, system order
    expected: int
    observed: int


@dataclass
class FailureReport:
    """Outcome of one retention test pass."""

    refresh_interval_ms: float
    rows_tested: int
    failures: List[CellFailure] = field(default_factory=list)

    @property
    def failing_rows(self) -> List[int]:
        return sorted({f.row_index for f in self.failures})

    @property
    def failing_row_fraction(self) -> float:
        if self.rows_tested == 0:
            return 0.0
        return len(self.failing_rows) / self.rows_tested

    def failures_in_row(self, row_index: int) -> List[CellFailure]:
        return [f for f in self.failures if f.row_index == row_index]


class SoftMCTester:
    """Drives fill / idle / read-back retention tests on a device."""

    def __init__(self, device: DramDevice) -> None:
        self.device = device
        self._now_ms = 0.0
        registry = obs.get_registry()
        self._c_rows_filled = registry.counter("softmc.rows_filled")
        self._c_rows_tested = registry.counter("softmc.rows_tested")
        self._c_cell_failures = registry.counter("softmc.cell_failures")

    @property
    def now_ms(self) -> float:
        """The tester's notion of wall-clock time, advanced by tests."""
        return self._now_ms

    # ------------------------------------------------------------------
    def fill_pattern(
        self, pattern: DataPattern, rows: Optional[Sequence[int]] = None
    ) -> None:
        """Write a data pattern into the given rows (default: whole module)."""
        geometry = self.device.geometry
        target_rows = range(geometry.total_rows) if rows is None else rows
        with obs.span("softmc.fill"):
            count = 0
            for row in target_rows:
                bits = pattern.row_bits(row, geometry.bits_per_row)
                self.device.write_row(row, bits_to_bytes(bits), self._now_ms)
                count += 1
        self._c_rows_filled.inc(count)
        if obs.trace_active():
            obs.emit("softmc_phase", phase="fill", rows=count,
                     pattern=pattern.name)

    def fill_content(
        self, content: Dict[int, bytes], replicate: bool = False
    ) -> List[int]:
        """Load captured program content, keyed by flat row index.

        With ``replicate=True`` the content image is tiled across the whole
        module, the way the paper duplicates each workload's footprint so
        that all of DRAM holds program data. Returns the rows written.
        """
        geometry = self.device.geometry
        if not content:
            raise ValueError("content must not be empty")
        written: List[int] = []
        with obs.span("softmc.fill"):
            if not replicate:
                for row, data in content.items():
                    self.device.write_row(row, data, self._now_ms)
                    written.append(row)
                written.sort()
            else:
                images = sorted(content.items())
                n_images = len(images)
                for row in range(geometry.total_rows):
                    _, data = images[row % n_images]
                    self.device.write_row(row, data, self._now_ms)
                    written.append(row)
        self._c_rows_filled.inc(len(written))
        if obs.trace_active():
            obs.emit("softmc_phase", phase="fill", rows=len(written))
        return written

    # ------------------------------------------------------------------
    def run_retention_test(
        self,
        refresh_interval_ms: float,
        rows: Optional[Sequence[int]] = None,
    ) -> FailureReport:
        """Idle the module for one retention window, then diff the content.

        ``rows`` limits both the reference snapshot and the read-back to a
        subset (used for row-scoped tests); default is the whole module.
        """
        if refresh_interval_ms <= 0:
            raise ValueError("refresh_interval_ms must be positive")
        geometry = self.device.geometry
        target_rows = list(range(geometry.total_rows)) if rows is None else list(rows)

        with obs.span("softmc.snapshot"):
            before = {
                row: self.device.cells.read_row_bits(row) for row in target_rows
            }
        with obs.span("softmc.idle"):
            self._now_ms += refresh_interval_ms
        if obs.trace_active():
            obs.emit("softmc_phase", phase="idle", rows=len(target_rows),
                     interval_ms=refresh_interval_ms)
        report = FailureReport(
            refresh_interval_ms=refresh_interval_ms,
            rows_tested=len(target_rows),
        )
        with obs.span("softmc.readback"):
            for row in target_rows:
                observed_bits = np.frombuffer(
                    self.device.read_row(row, self._now_ms), dtype=np.uint8
                )
                observed = np.unpackbits(observed_bits, bitorder="little")
                expected = before[row]
                diff = np.nonzero(observed != expected)[0]
                for bit in diff:
                    report.failures.append(
                        CellFailure(
                            row_index=row,
                            bit=int(bit),
                            expected=int(expected[bit]),
                            observed=int(observed[bit]),
                        )
                    )
        self._c_rows_tested.inc(len(target_rows))
        self._c_cell_failures.inc(len(report.failures))
        if obs.trace_active():
            obs.emit("softmc_phase", phase="readback", rows=len(target_rows),
                     failures=len(report.failures))
        return report

    # ------------------------------------------------------------------
    def test_pattern(
        self,
        pattern: DataPattern,
        refresh_interval_ms: float,
        rows: Optional[Sequence[int]] = None,
    ) -> FailureReport:
        """Fill with a pattern and run one retention pass."""
        self.fill_pattern(pattern, rows)
        return self.run_retention_test(refresh_interval_ms, rows)

    def test_content(
        self,
        content: Dict[int, bytes],
        refresh_interval_ms: float,
        replicate: bool = True,
    ) -> FailureReport:
        """Fill with program content (optionally tiled) and test retention."""
        rows = self.fill_content(content, replicate=replicate)
        return self.run_retention_test(refresh_interval_ms, rows)
