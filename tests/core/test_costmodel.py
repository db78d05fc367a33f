"""Tests for the cost-benefit model (Figure 6 / Appendix arithmetic)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.costmodel import CostModel
from repro.core.costmodel import TestMode as Mode
from repro.core.costmodel import (
    copy_and_compare_storage_overhead,
    test_cost_ns as cost_of_test,
)


class TestTestCosts:
    def test_read_and_compare(self):
        assert cost_of_test(Mode.READ_AND_COMPARE) == 1068.0

    def test_copy_and_compare(self):
        assert cost_of_test(Mode.COPY_AND_COMPARE) == 1602.0


class TestMinWriteInterval:
    """The paper's four published crossovers must reproduce exactly."""

    @pytest.mark.parametrize("lo_ms,mode,expected", [
        (64.0, Mode.READ_AND_COMPARE, 560.0),
        (64.0, Mode.COPY_AND_COMPARE, 864.0),
        (128.0, Mode.READ_AND_COMPARE, 480.0),
        (256.0, Mode.READ_AND_COMPARE, 448.0),
    ])
    def test_paper_crossovers(self, lo_ms, mode, expected):
        model = CostModel(lo_ref_interval_ms=lo_ms)
        assert model.min_write_interval_ms(mode) == expected

    def test_copy_mode_needs_longer_interval(self):
        model = CostModel()
        assert model.min_write_interval_ms(
            Mode.COPY_AND_COMPARE
        ) > model.min_write_interval_ms(Mode.READ_AND_COMPARE)

    def test_within_paper_band(self):
        # "between 448 and 864 ms depending on test mode and refresh rate"
        for lo_ms in (64.0, 128.0, 256.0):
            for mode in Mode:
                value = CostModel(
                    lo_ref_interval_ms=lo_ms
                ).min_write_interval_ms(mode)
                assert 448.0 <= value <= 864.0


class TestCostCurves:
    def test_hi_ref_steps_on_grid(self):
        model = CostModel()
        assert model.hi_ref_cost_ns(15.9) == 0.0
        assert model.hi_ref_cost_ns(16.0) == 39.0
        assert model.hi_ref_cost_ns(64.0) == 4 * 39.0

    def test_memcon_starts_at_test_cost(self):
        model = CostModel()
        assert model.memcon_cost_ns(
            0.0, Mode.READ_AND_COMPARE
        ) == 1068.0

    def test_memcon_first_refresh_after_test_window(self):
        model = CostModel()
        # The test itself covers the first 64 ms; the first LO-REF refresh
        # lands one interval later.
        assert model.memcon_cost_ns(64.0, Mode.READ_AND_COMPARE) == 1068.0
        assert model.memcon_cost_ns(
            128.0, Mode.READ_AND_COMPARE
        ) == 1068.0 + 39.0

    def test_curves_cross_exactly_at_min_interval(self):
        model = CostModel()
        crossover = model.min_write_interval_ms(Mode.READ_AND_COMPARE)
        before = crossover - 16.0
        assert model.hi_ref_cost_ns(before) < model.memcon_cost_ns(
            before, Mode.READ_AND_COMPARE
        )
        assert model.hi_ref_cost_ns(crossover) >= model.memcon_cost_ns(
            crossover, Mode.READ_AND_COMPARE
        )

    def test_cost_curves_shape(self):
        model = CostModel()
        times, hi, mem = model.cost_curves(
            Mode.READ_AND_COMPARE, horizon_ms=1000.0
        )
        assert len(times) == len(hi) == len(mem)
        assert hi == sorted(hi)
        assert mem == sorted(mem)

    @given(st.floats(min_value=0.0, max_value=5000.0))
    @settings(max_examples=50, deadline=None)
    def test_monotonicity_property(self, t_ms):
        model = CostModel()
        assert model.hi_ref_cost_ns(t_ms) <= model.hi_ref_cost_ns(t_ms + 16.0)
        assert model.memcon_cost_ns(
            t_ms, Mode.READ_AND_COMPARE
        ) <= model.memcon_cost_ns(t_ms + 64.0, Mode.READ_AND_COMPARE)


def _savings_ns(model, interval_ms):
    """Net latency saved over one write interval by testing at its start."""
    return model.hi_ref_cost_ns(interval_ms) - model.memcon_cost_ns(
        interval_ms, Mode.READ_AND_COMPARE
    )


class TestRefreshSavings:
    def test_negative_below_crossover(self):
        assert _savings_ns(CostModel(), 100.0) < 0

    def test_positive_above_crossover(self):
        assert _savings_ns(CostModel(), 2000.0) > 0

    def test_grows_with_interval(self):
        model = CostModel()
        assert _savings_ns(model, 4000.0) > _savings_ns(model, 2000.0)


class TestValidation:
    def test_lo_must_exceed_hi(self):
        with pytest.raises(ValueError, match="LO-REF"):
            CostModel(hi_ref_interval_ms=64.0, lo_ref_interval_ms=32.0)

    def test_negative_time_raises(self):
        with pytest.raises(ValueError):
            CostModel().hi_ref_cost_ns(-1.0)


class TestStorageOverhead:
    def test_paper_value(self):
        # 512 reserved rows/bank in a 2 GB module: 1.56%.
        assert copy_and_compare_storage_overhead() == pytest.approx(0.015625)

    def test_scales_with_reservation(self):
        assert copy_and_compare_storage_overhead(
            reserved_rows_per_bank=1024
        ) == pytest.approx(0.03125)

    def test_over_reservation_raises(self):
        with pytest.raises(ValueError):
            copy_and_compare_storage_overhead(
                reserved_rows_per_bank=40_000
            )
