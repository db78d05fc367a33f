"""Tests for the refresh ledger of the event-driven MEMCON oracle."""

import pytest

from tests.oracles.memcon import RefreshLedger, RefreshState, StateTimes


class TestStateTimes:
    def test_accumulates_per_state(self):
        times = StateTimes()
        times.add(RefreshState.HI_REF, 10.0)
        times.add(RefreshState.LO_REF, 20.0)
        times.add(RefreshState.TESTING, 5.0)
        assert (times.hi_ms, times.lo_ms, times.testing_ms) == (10.0, 20.0, 5.0)
        assert times.total_ms == 35.0

    def test_negative_duration_raises(self):
        with pytest.raises(ValueError):
            StateTimes().add(RefreshState.HI_REF, -1.0)


class TestLedger:
    def test_untouched_rows_default_to_hi(self):
        ledger = RefreshLedger(total_rows=4)
        ledger.finalize(160.0)
        # 4 rows x 160 ms / 16 ms = 40 refreshes, same as the baseline.
        assert ledger.refresh_count() == 40.0
        assert ledger.refresh_reduction() == 0.0

    def test_all_lo_hits_upper_bound(self):
        ledger = RefreshLedger(total_rows=4)
        for row in range(4):
            ledger.set_state(row, RefreshState.LO_REF, 0.0)
        ledger.finalize(640.0)
        assert ledger.refresh_reduction() == pytest.approx(0.75)

    def test_mixed_states_accounting(self):
        ledger = RefreshLedger(total_rows=2)
        ledger.set_state(0, RefreshState.LO_REF, 64.0)  # HI 64ms then LO
        ledger.finalize(128.0)
        # Row 0: 64 ms HI (4 refreshes) + 64 ms LO (1) = 5.
        # Row 1: 128 ms HI = 8.
        assert ledger.refresh_count() == pytest.approx(13.0)

    def test_testing_time_has_no_refreshes(self):
        ledger = RefreshLedger(total_rows=1)
        ledger.set_state(0, RefreshState.TESTING, 0.0)
        ledger.set_state(0, RefreshState.HI_REF, 64.0)
        ledger.finalize(128.0)
        assert ledger.refresh_count() == pytest.approx(4.0)  # only HI span

    def test_row_times_query(self):
        ledger = RefreshLedger(total_rows=2)
        ledger.set_state(0, RefreshState.LO_REF, 100.0)
        ledger.finalize(300.0)
        times = ledger.row_times(0)
        assert times.hi_ms == 100.0
        assert times.lo_ms == 200.0
        untouched = ledger.row_times(1)
        assert untouched.hi_ms == 300.0

    def test_lo_ref_time_fraction(self):
        ledger = RefreshLedger(total_rows=2)
        ledger.set_state(0, RefreshState.LO_REF, 0.0)
        ledger.finalize(100.0)
        assert ledger.lo_ref_time_fraction() == pytest.approx(0.5)

    def test_baseline_refresh_count(self):
        ledger = RefreshLedger(total_rows=10)
        ledger.finalize(160.0)
        assert ledger.baseline_refresh_count() == 100.0

    def test_time_backwards_raises(self):
        ledger = RefreshLedger(total_rows=1)
        ledger.set_state(0, RefreshState.LO_REF, 50.0)
        with pytest.raises(ValueError, match="backwards"):
            ledger.set_state(0, RefreshState.HI_REF, 40.0)

    def test_double_finalize_raises(self):
        ledger = RefreshLedger(total_rows=1)
        ledger.finalize(10.0)
        with pytest.raises(RuntimeError):
            ledger.finalize(20.0)

    def test_query_before_finalize_raises(self):
        ledger = RefreshLedger(total_rows=1)
        with pytest.raises(RuntimeError):
            ledger.refresh_count()

    def test_set_state_after_finalize_raises(self):
        ledger = RefreshLedger(total_rows=1)
        ledger.finalize(10.0)
        with pytest.raises(RuntimeError):
            ledger.set_state(0, RefreshState.LO_REF, 20.0)

    def test_invalid_intervals_raise(self):
        with pytest.raises(ValueError, match="LO-REF"):
            RefreshLedger(total_rows=1, hi_ref_interval_ms=64.0,
                          lo_ref_interval_ms=16.0)

    def test_out_of_range_row_raises(self):
        ledger = RefreshLedger(total_rows=2)
        with pytest.raises(ValueError):
            ledger.set_state(2, RefreshState.LO_REF, 0.0)
