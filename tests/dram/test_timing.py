"""Tests for DDR3 timing parameters and derived costs."""

import pytest

from repro.dram.timing import DDR3_1600, TimingParameters, trfc_for_density_ns
from repro.mc.controller import RefreshSettings


class TestDerivedCosts:
    """The paper's Appendix arithmetic must hold exactly."""

    def test_row_read_cost(self):
        assert DDR3_1600.row_read_ns == 534.0

    def test_read_and_compare_cost(self):
        assert DDR3_1600.read_and_compare_ns == 1068.0

    def test_copy_and_compare_cost(self):
        assert DDR3_1600.copy_and_compare_ns == 1602.0

    def test_refresh_cost(self):
        assert DDR3_1600.row_refresh_ns == 39.0

    def test_row_write_equals_row_read(self):
        assert DDR3_1600.row_write_ns == DDR3_1600.row_read_ns

    def test_cost_scales_with_blocks(self):
        timing = TimingParameters(blocks_per_row=256)
        assert timing.row_read_ns == 11.0 + 256 * 4.0 + 11.0


class TestDensityScaling:
    @pytest.mark.parametrize("density,trfc", [(8, 350.0), (16, 530.0),
                                              (32, 890.0), (64, 1600.0)])
    def test_trfc_for_density(self, density, trfc):
        assert trfc_for_density_ns(density) == trfc

    def test_with_density_returns_new_instance(self):
        scaled = DDR3_1600.with_density(32)
        assert scaled.tRFC == 890.0
        assert DDR3_1600.tRFC == 350.0

    def test_unknown_density_raises(self):
        with pytest.raises(ValueError, match="unsupported chip density"):
            trfc_for_density_ns(12)


class TestTrefi:
    """tREFI is the retention window over its 8192 refresh commands."""

    def test_16ms_matches_table2(self):
        trefi = RefreshSettings(base_interval_ms=16.0).effective_trefi_ns
        assert trefi == pytest.approx(1953.125)

    def test_64ms_matches_table2(self):
        trefi = RefreshSettings(base_interval_ms=64.0).effective_trefi_ns
        assert trefi == pytest.approx(7812.5)

    def test_rows_per_window(self):
        assert RefreshSettings().rows_per_window == 8192

    def test_non_positive_interval_raises(self):
        with pytest.raises(ValueError):
            RefreshSettings(base_interval_ms=0.0)


class TestValidation:
    @pytest.mark.parametrize("field", ["tRCD", "tRP", "tRAS", "tCCD", "tRFC"])
    def test_non_positive_timing_raises(self, field):
        with pytest.raises(ValueError, match=field):
            TimingParameters(**{field: 0.0})

    def test_non_positive_blocks_raises(self):
        with pytest.raises(ValueError, match="blocks_per_row"):
            TimingParameters(blocks_per_row=0)
