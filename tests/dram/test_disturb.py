"""Tests for the read-disturbance (RowHammer/RowPress) model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dram.disturb import DisturbMap, DisturbModelConfig
from repro.dram.faults import FaultMap, FaultModelConfig

# Dense enough that small test modules hold real populations.
DENSE = DisturbModelConfig(hammer_vulnerable_rate=5e-3, hc_first=8.0)


def _map(seed: int, rows: int = 64, bits: int = 256, config=DENSE) -> DisturbMap:
    return DisturbMap(
        total_rows=rows, bits_per_row=bits, config=config, seed=seed,
    )


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"hammer_vulnerable_rate": -0.1},
        {"hammer_vulnerable_rate": 1.5},
        {"hc_first": 0.0},
        {"rowpress_tau_ns": 0.0},
        {"blast_radius": 0},
        {"far_neighbor_fraction": 1.1},
        {"nominal_interval_ms": 0.0},
        {"content_coupling": -1.0},
    ])
    def test_invalid_config_raises(self, kwargs):
        with pytest.raises(ValueError):
            DisturbModelConfig(**kwargs)

    def test_row_bounds_checked(self):
        with pytest.raises(ValueError):
            _map(seed=1).victim_pressure([64], [1.0])


class TestPopulation:
    def test_generation_is_batch_composition_independent(self):
        singly, batch = _map(seed=23), _map(seed=23)
        for row in range(64):
            singly.row_population(row)
        batch._ensure_rows(np.arange(64))
        for row in range(64):
            a, b = singly.row_population(row), batch.row_population(row)
            np.testing.assert_array_equal(a.columns, b.columns)
            np.testing.assert_array_equal(a.thresholds, b.thresholds)
            assert a.true_cell == b.true_cell

    def test_population_deterministic_across_instances(self):
        a, b = _map(seed=7), _map(seed=7)
        for row in range(0, 64, 5):
            np.testing.assert_array_equal(
                a.row_population(row).columns, b.row_population(row).columns
            )

    def test_different_seeds_differ(self):
        a, b = _map(seed=1), _map(seed=2)
        assert any(
            not np.array_equal(
                a.row_population(r).columns, b.row_population(r).columns
            )
            for r in range(64)
        )

    def test_polarity_agrees_with_same_seed_fault_map(self):
        """Same-seed maps share the polarity sub-stream: a row stores
        charge the same way for retention and for hammering."""
        disturb = _map(seed=42, rows=256)
        faults = FaultMap(
            total_rows=256, bits_per_row=256,
            config=FaultModelConfig(vulnerable_cell_rate=5e-3), seed=42,
        )
        for row in range(256):
            assert (
                disturb.row_population(row).true_cell
                == faults.row_is_true_cell(row)
            )

    def test_hammer_population_independent_of_retention_rate(self):
        """The hammer tags are disjoint from the content model's streams:
        the hammer population is a function of (seed, row) only."""
        sparse = _map(seed=9, config=DisturbModelConfig(
            hammer_vulnerable_rate=5e-3, threshold_sigma=0.2))
        wide = _map(seed=9, config=DisturbModelConfig(
            hammer_vulnerable_rate=5e-3, threshold_sigma=0.9))
        for row in range(64):
            np.testing.assert_array_equal(
                sparse.row_population(row).columns,
                wide.row_population(row).columns,
            )


class TestPressure:
    def test_weighted_activations_adds_rowpress_term(self):
        disturb = _map(seed=1, config=DisturbModelConfig(
            hammer_vulnerable_rate=5e-3, rowpress_tau_ns=500.0))
        rows, weights = disturb.weighted_activations(
            {3: (4, 1000.0), 10: (2, 0.0)}
        )
        assert rows.tolist() == [3, 10]
        # 4 ACTs + 1000 ns / 500 ns = 6; 2 ACTs + 0 on-time = 2.
        assert weights.tolist() == [6.0, 2.0]

    def test_empty_snapshot_gives_empty_arrays(self):
        rows, weights = _map(seed=1).weighted_activations({})
        assert len(rows) == 0 and len(weights) == 0

    def test_victim_pressure_hits_both_neighbors(self):
        victims, pressure = _map(seed=1).victim_pressure([10], [4.0])
        assert victims.tolist() == [9, 11]
        assert pressure.tolist() == [4.0, 4.0]

    def test_victim_pressure_sums_shared_victims(self):
        # Rows 10 and 12 both press on row 11.
        victims, pressure = _map(seed=1).victim_pressure([10, 12], [3.0, 5.0])
        assert victims.tolist() == [9, 11, 13]
        assert pressure.tolist() == [3.0, 8.0, 5.0]

    def test_far_neighbors_scaled_by_fraction(self):
        disturb = _map(seed=1, config=DisturbModelConfig(
            hammer_vulnerable_rate=5e-3, blast_radius=2,
            far_neighbor_fraction=0.25))
        victims, pressure = disturb.victim_pressure([10], [4.0])
        assert victims.tolist() == [8, 9, 11, 12]
        assert pressure.tolist() == [1.0, 4.0, 4.0, 1.0]

    def test_bank_edges_block_pressure(self):
        # Rows 15 and 16 sit in different 16-row banks: not neighbours.
        victims, _ = _map(seed=1).victim_pressure(
            [16], [4.0], rows_per_bank=16
        )
        assert victims.tolist() == [17]

    def test_module_edges_clipped(self):
        victims, _ = _map(seed=1).victim_pressure([0], [1.0])
        assert victims.tolist() == [1]


class TestDoseResponse:
    def test_zero_pressure_never_flips(self):
        disturb = _map(seed=3)
        rows = np.arange(64)
        assert not disturb.rows_flip(rows, np.zeros(64), 64.0).any()

    def test_flips_monotone_in_pressure(self):
        disturb = _map(seed=3)
        rows = np.arange(64)
        low = disturb.rows_flip(rows, np.full(64, 4.0), 64.0)
        high = disturb.rows_flip(rows, np.full(64, 400.0), 64.0)
        assert high.sum() >= low.sum()
        assert (high | low == high).all()  # low flips are a subset

    def test_faster_refresh_raises_effective_threshold(self):
        disturb = _map(seed=3)
        rows = np.arange(64)
        pressure = np.full(64, 12.0)
        hi = disturb.rows_flip(rows, pressure, 16.0)  # HI-REF
        lo = disturb.rows_flip(rows, pressure, 64.0)  # LO-REF
        assert lo.sum() >= hi.sum()

    def test_charge_check_uses_polarity(self):
        disturb = _map(seed=5)
        rows = np.arange(64)
        pressure = np.full(64, 1000.0)  # everything vulnerable flips
        all_ones = np.ones(256, dtype=np.uint8)
        all_zeros = np.zeros(256, dtype=np.uint8)
        ones_rows, _ = disturb.flips(rows, pressure, 64.0, all_ones)
        zeros_rows, _ = disturb.flips(rows, pressure, 64.0, all_zeros)
        worst_rows, _ = disturb.flips(rows, pressure, 64.0, None)
        # True-cell rows flip on 1s, anti-cell rows on 0s; together they
        # partition the worst case.
        assert len(ones_rows) + len(zeros_rows) == len(worst_rows)
        assert len(ones_rows) > 0 and len(zeros_rows) > 0

    def test_narrow_content_masks_wide_columns(self):
        disturb = _map(seed=3)
        rows = np.arange(64)
        pressure = np.full(64, 1000.0)
        _, wide = disturb.flips(rows, pressure, 64.0, None)
        assert (wide >= 64).any()
        _, cols = disturb.flips(
            rows, pressure, 64.0, np.ones(64, dtype=np.uint8)
        )
        assert len(cols) and (cols < 64).all()

    def test_flip_cells_are_vulnerable_cells(self):
        disturb = _map(seed=5)
        rows = np.arange(64)
        flip_rows, flip_cols = disturb.flips(
            rows, np.full(64, 1000.0), 64.0
        )
        for row, col in zip(flip_rows, flip_cols):
            assert col in disturb.row_population(int(row)).columns.tolist()


class TestComposition:
    def test_stress_contribution_linear_and_zero_at_zero(self):
        disturb = _map(seed=1, config=DisturbModelConfig(
            hammer_vulnerable_rate=5e-3, hc_first=8.0, content_coupling=0.5))
        np.testing.assert_allclose(
            disturb.stress_contribution([0.0, 8.0, 16.0]), [0.0, 0.5, 1.0]
        )

    def test_aligned_stress_scatters_onto_batch_order(self):
        disturb = _map(seed=1, config=DisturbModelConfig(
            hammer_vulnerable_rate=5e-3, hc_first=8.0, content_coupling=0.5))
        stress = disturb.aligned_stress(
            [5, 6, 7], np.array([7, 5]), np.array([16.0, 8.0])
        )
        np.testing.assert_allclose(stress, [0.5, 0.0, 1.0])

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        content_seed=st.integers(0, 2**32 - 1),
        interval=st.sampled_from([64.0, 328.0, 1024.0]),
    )
    def test_zero_disturb_stress_reduces_to_pure_content(
        self, seed, content_seed, interval
    ):
        """The composed predicate at zero activation counts IS the
        content predicate — scalar 0.0, an all-zero array, and omission
        agree bitwise."""
        fault_map = FaultMap(
            total_rows=64, bits_per_row=256,
            config=FaultModelConfig(vulnerable_cell_rate=5e-3), seed=seed,
        )
        rng = np.random.default_rng(content_seed)
        bits = rng.integers(0, 2, size=256, dtype=np.uint8)
        rows = np.arange(64)
        pure = fault_map.rows_fail(rows, bits, interval)
        scalar = fault_map.rows_fail(rows, bits, interval, disturb_stress=0.0)
        array = fault_map.rows_fail(
            rows, bits, interval, disturb_stress=np.zeros(64)
        )
        np.testing.assert_array_equal(pure, scalar)
        np.testing.assert_array_equal(pure, array)
        for row in rows[::7]:
            np.testing.assert_array_equal(
                fault_map.failing_mask(int(row), bits, interval),
                fault_map.failing_mask(
                    int(row), bits, interval, disturb_stress=0.0
                ),
            )

    def test_disturb_stress_only_adds_failures(self):
        fault_map = FaultMap(
            total_rows=64, bits_per_row=256,
            config=FaultModelConfig(vulnerable_cell_rate=5e-3), seed=11,
        )
        bits = np.tile([1, 0], 128).astype(np.uint8)
        rows = np.arange(64)
        pure = fault_map.rows_fail(rows, bits, 328.0)
        stressed = fault_map.rows_fail(
            rows, bits, 328.0, disturb_stress=np.full(64, 2.0)
        )
        assert (stressed | pure == stressed).all()
        assert stressed.sum() > pure.sum()

    def test_array_stress_requires_batch_alignment(self):
        fault_map = FaultMap(
            total_rows=64, bits_per_row=256,
            config=FaultModelConfig(vulnerable_cell_rate=5e-2), seed=1,
        )
        row = next(
            r for r in range(64) if len(fault_map.cells_in_row(r))
        )
        with pytest.raises(ValueError):
            fault_map.failing_mask(
                row, np.zeros(256, dtype=np.uint8), 328.0,
                disturb_stress=np.zeros(3),
            )
