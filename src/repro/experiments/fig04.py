"""Figure 4: failing rows with program content vs all possible content.

The paper fills the test DIMM with each SPEC CPU2006 benchmark's memory
image (replicated to cover the module), idles for the retention window,
and counts failing rows. Program content trips only 0.38%-5.6% of rows,
against 13.5% for the ALL-FAIL worst case — a 2.4x-35.2x gap, the headline
motivation for content-based detection.

Each image row is evaluated in system order for its whole row group in
one :meth:`FaultMap.rows_fail` call, which reads each vulnerable cell and
its two physical neighbours through the chip's vendor mapping; no row is
laid out in silicon order.

Parallel decomposition: the ALL-FAIL scan shards into contiguous row
ranges (each unit carries its range's counter-RNG coordinates, so the
checkpoint fingerprint pins the exact population it scanned), and each
benchmark's content evaluation is one unit. The ALL-FAIL count is an
integer sum over shards and each benchmark's fraction is computed whole
inside its unit, so the merged table is bit-identical to the serial one.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Dict, List, Tuple

import numpy as np

from ..dram import DramGeometry
from ..dram.faults import FaultMap
from ..dram.scramble import VendorMapping, make_vendor_mapping
from ..parallel.units import WorkUnit
from ..traces.phases import generate_content_trace
from ..traces.spec import BENCHMARKS, FIGURE4_BENCHMARKS
from .common import ExperimentResult, percent

TEST_INTERVAL_MS = 328.0


def _module(quick: bool) -> DramGeometry:
    rows = 4096 if quick else 32768
    return DramGeometry(
        channels=1, ranks=1, banks=8, rows_per_bank=rows // 8,
        row_size_bytes=8192, block_size_bytes=64,
    )


def _scan_shards(quick: bool) -> int:
    return 8 if quick else 16


@lru_cache(maxsize=4)
def _setup(
    quick: bool, seed: int
) -> Tuple[DramGeometry, VendorMapping, FaultMap]:
    geometry = _module(quick)
    mapping = make_vendor_mapping(
        columns=geometry.bits_per_row, seed=seed,
        spare_columns=geometry.bits_per_row // 256, faulty_fraction=0.002,
    )
    fault_map = FaultMap(
        total_rows=geometry.total_rows,
        bits_per_row=mapping.physical_columns,
        seed=seed,
    )
    return geometry, mapping, fault_map


def units(quick: bool = True, seed: int = 1) -> List[WorkUnit]:
    """Row-range scan shards, then one unit per benchmark."""
    geometry, _, fault_map = _setup(quick, seed)
    shards = _scan_shards(quick)
    total = geometry.total_rows
    out: List[WorkUnit] = []
    for i in range(shards):
        start, stop = i * total // shards, (i + 1) * total // shards
        out.append(WorkUnit(
            "fig04", f"scan{i:02d}",
            {
                "rows": [start, stop],
                "rng": fault_map.rng_coordinates(start, stop),
            },
            seq=i,
        ))
    for j, name in enumerate(FIGURE4_BENCHMARKS):
        out.append(WorkUnit(
            "fig04", f"bench-{name}", {"benchmark": name}, seq=shards + j,
        ))
    return out


def run_unit(unit: WorkUnit, quick: bool = True, seed: int = 1) -> Dict[str, Any]:
    geometry, mapping, fault_map = _setup(quick, seed)
    if "rows" in unit.params:
        start, stop = unit.params["rows"]
        shard_rows = np.arange(start, stop, dtype=np.int64)
        return {"failing": int(
            fault_map.rows_can_ever_fail(shard_rows, TEST_INTERVAL_MS).sum()
        )}

    name = unit.params["benchmark"]
    n_image_rows = 32 if quick else 128
    images_per_benchmark = 2 if quick else 4
    every_row = np.arange(geometry.total_rows, dtype=np.int64)
    profile = BENCHMARKS[name].content
    # Average over drifting content checkpoints, like the paper
    # averages over per-100M-instruction snapshots.
    content_trace = generate_content_trace(
        profile, n_rows=n_image_rows,
        row_bytes=geometry.row_size_bytes,
        n_phases=images_per_benchmark, churn_fraction=0.25,
        seed=seed,
    )
    snapshot_fractions = []
    for snapshot in content_trace:
        # Rows tile the image modulo n_image_rows: every row sharing an
        # image index holds the same bits, so each image row is unpacked
        # once and its whole row group is evaluated in one batch.
        failing = 0
        for i in range(n_image_rows):
            bits = np.unpackbits(
                np.frombuffer(snapshot.image[i], dtype=np.uint8),
                bitorder="little",
            )
            group = every_row[i::n_image_rows]
            failing += int(fault_map.rows_fail(
                group, bits, TEST_INTERVAL_MS, mapping
            ).sum())
        snapshot_fractions.append(failing / geometry.total_rows)
    return {"benchmark": name, "fraction": float(np.mean(snapshot_fractions))}


def merge_units(
    payloads: List[Dict[str, Any]], quick: bool = True, seed: int = 1
) -> ExperimentResult:
    geometry = _module(quick)
    shards = _scan_shards(quick)
    all_fail_rows = sum(p["failing"] for p in payloads[:shards])
    all_fail_fraction = all_fail_rows / geometry.total_rows

    result = ExperimentResult(
        experiment_id="fig04",
        title="Percentage of rows that exhibit failures",
        paper_claim=(
            "0.38%-5.6% of rows fail with program content vs 13.5% with "
            "any possible content (ALL FAIL): 2.4x-35.2x fewer failures"
        ),
    )
    fractions: List[float] = []
    for payload in payloads[shards:]:
        fraction = payload["fraction"]
        fractions.append(fraction)
        result.add_row(
            benchmark=payload["benchmark"],
            failing_rows=percent(fraction, 2),
            vs_all_fail=f"{all_fail_fraction / max(fraction, 1e-9):.1f}x",
        )
    result.add_row(
        benchmark="ALL FAIL",
        failing_rows=percent(all_fail_fraction, 2),
        vs_all_fail="1.0x",
    )
    lo, hi = min(fractions), max(fractions)
    result.notes = (
        f"program content: {percent(lo, 2)}-{percent(hi, 2)} of rows; "
        f"ALL FAIL {percent(all_fail_fraction, 2)}; ratio "
        f"{all_fail_fraction / max(hi, 1e-9):.1f}x-"
        f"{all_fail_fraction / max(lo, 1e-9):.1f}x"
    )
    return result
