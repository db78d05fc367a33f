"""Row-block LRU budget: eviction is bitwise-safe and metered.

Population generation is a pure function of (seed, row) counter streams,
so evicting a row and regenerating it on the next touch must reproduce
the exact same arrays — these tests drive budgeted fault maps through
arbitrary access orders and compare against an unbudgeted twin.
"""

import numpy as np
import pytest

from repro import obs
from repro.dram.faults import (
    RESIDENT_ROWS_GAUGE,
    ROWS_EVICTED_COUNTER,
    FaultMap,
    FaultModelConfig,
)

ROWS = 256
BITS = 4096
CFG = FaultModelConfig(vulnerable_cell_rate=5e-4)


def _pop_state(pop):
    return (
        pop.columns.tolist(),
        pop.thresholds.tolist(),
        pop.true_cell,
    )


def test_budget_rejects_nonpositive():
    with pytest.raises(ValueError):
        FaultMap(ROWS, BITS, CFG, seed=1, max_resident_rows=0)
    with pytest.raises(ValueError):
        FaultMap(ROWS, BITS, CFG, seed=1, max_resident_rows=-3)


def test_faultmap_eviction_respects_budget():
    fm = FaultMap(ROWS, BITS, CFG, seed=7, max_resident_rows=32)
    rng = np.random.default_rng(0)
    for _ in range(20):
        batch = rng.integers(0, ROWS, size=24)
        fm.rows_can_ever_fail(batch, 328.0)
        assert fm.resident_rows() <= 32
    # A batch wider than the budget must still evaluate (and stay whole
    # for the duration of the call), overshooting the budget only as far
    # as the batch itself.
    wide = np.arange(ROWS, dtype=np.int64)
    fm.rows_can_ever_fail(wide, 328.0)
    assert fm.resident_rows() == ROWS
    fm.rows_can_ever_fail(rng.integers(0, ROWS, size=8), 328.0)
    assert fm.resident_rows() <= 32


def test_faultmap_regeneration_is_bitwise_identical():
    reference = FaultMap(ROWS, BITS, CFG, seed=11)
    budgeted = FaultMap(ROWS, BITS, CFG, seed=11, max_resident_rows=16)
    rng = np.random.default_rng(1)
    content = rng.integers(0, 2, size=BITS, dtype=np.int64)
    for _ in range(30):
        batch = rng.integers(0, ROWS, size=rng.integers(1, 40))
        np.testing.assert_array_equal(
            budgeted.rows_fail(batch, content, 328.0),
            reference.rows_fail(batch, content, 328.0),
        )
        probe = int(batch[0])
        assert _pop_state(budgeted.row_population(probe)) == _pop_state(
            reference.row_population(probe)
        )


def test_cells_in_row_cache_evicts_in_lockstep():
    # cells_in_row builds its objects from the population table, so
    # touching rows through it is budgeted like any batch.
    fm = FaultMap(ROWS, BITS, CFG, seed=3, max_resident_rows=4)
    for row in range(12):
        fm.cells_in_row(row)
        assert fm.resident_rows() <= 4
    assert fm.resident_rows() == 4
    # Regenerated objects must carry identical values after eviction.
    again = FaultMap(ROWS, BITS, CFG, seed=3)
    assert fm.cells_in_row(0) == again.cells_in_row(0)


def test_resident_rows_gauge_and_eviction_counter():
    registry = obs.MetricsRegistry(enabled=True)
    previous = obs.set_registry(registry)
    try:
        fm = FaultMap(ROWS, BITS, CFG, seed=5, max_resident_rows=8)
        # An unbudgeted map beside it: the gauge sums every live map.
        other = FaultMap(ROWS, BITS, CFG, seed=6)
        fm.rows_can_ever_fail(np.arange(24), 328.0)
        other.rows_can_ever_fail(np.arange(24), 328.0)
        gauge = registry.gauge(RESIDENT_ROWS_GAUGE)
        assert gauge.value == fm.resident_rows() + other.resident_rows()
        fm.rows_can_ever_fail(np.arange(24, 48), 328.0)
        assert registry.counter(ROWS_EVICTED_COUNTER).value > 0
        assert gauge.value == fm.resident_rows() + other.resident_rows()
    finally:
        obs.set_registry(previous)


def test_unbudgeted_map_never_evicts():
    registry = obs.MetricsRegistry(enabled=True)
    previous = obs.set_registry(registry)
    try:
        fm = FaultMap(ROWS, BITS, CFG, seed=9)
        fm.rows_can_ever_fail(np.arange(ROWS), 328.0)
        assert fm.resident_rows() == ROWS
        assert registry.counter(ROWS_EVICTED_COUNTER).value == 0
        assert registry.gauge(RESIDENT_ROWS_GAUGE).value == ROWS
    finally:
        obs.set_registry(previous)
