"""Figure 3: cells fail only under some data patterns.

The paper tests one chip with ~100 data patterns and plots, for each
failing cell, the set of patterns that trips it — showing the failures are
conditional on content. We run the canonical + random pattern battery on a
slice of the simulated module and report, per pattern, how many cells
fail, plus the per-cell pattern-sensitivity summary (cells failing under
every pattern would not be data-dependent).

The battery runs through the vectorised batch fault-evaluation engine:
each pattern's system-order rows for the whole slice are evaluated in a
single :meth:`FaultMap.failing_cells_batch` pass, which reads each
vulnerable cell and its two physical neighbours through the chip's
vendor mapping instead of laying the rows out in silicon order.
Failures are reported in *system* coordinates, exactly as the SoftMC
read-back path would see them — flips at silicon positions that hold no
system data (zeroed faulty columns, unused spares) are invisible and
excluded, and the same protocol is cross-checked against the device
path in the test suite.
"""

from __future__ import annotations

from collections import defaultdict
from functools import lru_cache
from typing import Any, Dict, List, Set, Tuple

import numpy as np

from ..dram import DramGeometry
from ..dram.faults import FaultMap, FaultModelConfig
from ..dram.scramble import VendorMapping, make_vendor_mapping
from ..parallel.units import WorkUnit
from ..testinfra import pattern_battery
from ..testinfra.patterns import DataPattern
from .common import ExperimentResult

#: Test conditions mirroring the paper's FPGA setup: a 328 ms-equivalent
#: retention window.
TEST_INTERVAL_MS = 328.0


@lru_cache(maxsize=4)
def _setup(quick: bool, seed: int) -> Tuple[DramGeometry, VendorMapping, FaultMap]:
    rows = 96 if quick else 512
    geometry = DramGeometry(
        channels=1, ranks=1, banks=2, rows_per_bank=rows // 2,
        row_size_bytes=2048, block_size_bytes=64,
    )
    # Same vendor-mapping parameters a CellArray would auto-build.
    mapping = make_vendor_mapping(
        columns=geometry.bits_per_row,
        seed=seed,
        spare_columns=max(8, geometry.bits_per_row // 256),
        faulty_fraction=0.002,
    )
    # Densify the fault population so a small slice shows many cells, as
    # the paper's single-chip plot does.
    fault_map = FaultMap(
        total_rows=geometry.total_rows,
        bits_per_row=mapping.physical_columns,
        config=FaultModelConfig(vulnerable_cell_rate=2e-4),
        seed=seed,
    )
    return geometry, mapping, fault_map


def _pattern_failures(
    geometry: DramGeometry,
    mapping: VendorMapping,
    fault_map: FaultMap,
    pattern: DataPattern,
) -> Tuple[np.ndarray, np.ndarray]:
    """(row, system bit) of every read-back-visible failure of a pattern."""
    rows = np.arange(geometry.total_rows, dtype=np.int64)
    system = np.stack(
        [pattern.row_bits(int(r), geometry.bits_per_row) for r in rows]
    )
    fail_rows, fail_cols = fault_map.failing_cells_batch(
        rows, system, TEST_INTERVAL_MS, mapping
    )
    bits = mapping.system_of_silicon()[fail_cols]
    visible = bits >= 0
    return fail_rows[visible], bits[visible]


def _n_patterns(quick: bool) -> int:
    return 24 if quick else 100


def units(quick: bool = True, seed: int = 1) -> List[WorkUnit]:
    """Chunks of the pattern battery (4 patterns quick, 10 full)."""
    n_patterns = _n_patterns(quick)
    chunk = 4 if quick else 10
    out: List[WorkUnit] = []
    for seq, start in enumerate(range(0, n_patterns, chunk)):
        stop = min(start + chunk, n_patterns)
        out.append(WorkUnit(
            "fig03", f"pat{start:03d}", {"patterns": [start, stop]}, seq=seq,
        ))
    return out


def run_unit(unit: WorkUnit, quick: bool = True, seed: int = 1) -> Dict[str, Any]:
    """Evaluate one pattern-range chunk of the battery.

    Returns per-pattern failure counts plus the raw ``(row, bit,
    pattern_id)`` triples so the merge can rebuild the cross-pattern
    cell-sensitivity sets exactly as the serial loop does.
    """
    n_patterns = _n_patterns(quick)
    start, stop = unit.params["patterns"]
    geometry, mapping, fault_map = _setup(quick, seed)
    battery = pattern_battery(n_random=n_patterns - 10, seed=seed)[:n_patterns]

    per_pattern: List[List[Any]] = []
    cells: List[List[int]] = []
    for pattern_id in range(start, stop):
        pattern = battery[pattern_id]
        rows, bits = _pattern_failures(geometry, mapping, fault_map, pattern)
        for row, bit in zip(rows, bits):
            cells.append([int(row), int(bit), pattern_id])
        per_pattern.append([pattern.name, int(len(rows))])
    return {"per_pattern": per_pattern, "cells": cells}


def merge_units(
    payloads: List[Dict[str, Any]], quick: bool = True, seed: int = 1
) -> ExperimentResult:
    n_patterns = _n_patterns(quick)
    cell_patterns: Dict[Tuple[int, int], Set[int]] = defaultdict(set)
    result = ExperimentResult(
        experiment_id="fig03",
        title="Cells failing with different data content",
        paper_claim=(
            "each failing cell trips under only a subset of ~100 data "
            "patterns: failures are conditional on memory content"
        ),
    )
    for payload in payloads:
        for name, count in payload["per_pattern"]:
            result.add_row(pattern=name, failing_cells=count)
        for row, bit, pattern_id in payload["cells"]:
            cell_patterns[(row, bit)].add(pattern_id)

    n_cells = len(cell_patterns)
    conditional = sum(
        1 for patterns in cell_patterns.values()
        if 0 < len(patterns) < n_patterns
    )
    result.notes = (
        f"{n_cells} distinct cells failed across {n_patterns} patterns; "
        f"{conditional} of them ({100 * conditional / max(n_cells, 1):.0f}%) "
        "fail under only a strict subset of patterns (data-dependent)"
    )
    return result
