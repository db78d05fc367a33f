"""Property-based tests for refresh-ledger accounting invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from tests.oracles.memcon import RefreshLedger, RefreshState

STATES = [RefreshState.HI_REF, RefreshState.LO_REF, RefreshState.TESTING]

# A transition script: per row, a list of (time offset, state index).
transition_lists = st.lists(
    st.tuples(
        st.integers(0, 3),                    # row
        st.floats(0.0, 1000.0),               # time delta from previous
        st.integers(0, 2),                    # state index
    ),
    max_size=30,
)


class TestLedgerInvariants:
    @given(transition_lists)
    @settings(max_examples=80, deadline=None)
    def test_state_times_partition_the_window(self, script):
        """Every row's hi+lo+testing time must equal the window exactly."""
        ledger = RefreshLedger(total_rows=4)
        clock = {row: 0.0 for row in range(4)}
        now = 0.0
        for row, delta, state_idx in script:
            now += delta
            ledger.set_state(row, STATES[state_idx], now)
            clock[row] = now
        end = now + 1.0
        ledger.finalize(end)
        for row in range(4):
            times = ledger.row_times(row)
            assert times.total_ms == pytest.approx(end)

    @given(transition_lists)
    @settings(max_examples=80, deadline=None)
    def test_reduction_bounded_by_upper_bound(self, script):
        """Refresh reduction can never exceed 1 - hi/lo (75%)."""
        ledger = RefreshLedger(total_rows=4)
        now = 0.0
        for row, delta, state_idx in script:
            now += delta
            ledger.set_state(row, STATES[state_idx], now)
        ledger.finalize(now + 1.0)
        reduction = ledger.refresh_reduction()
        # TESTING time receives no refreshes at all, so the reduction can
        # exceed the pure LO-REF bound only through testing time.
        testing = sum(
            ledger.row_times(r).testing_ms for r in range(4)
        )
        if testing == 0:
            assert reduction <= 0.75 + 1e-12
        assert reduction <= 1.0

    @given(transition_lists)
    @settings(max_examples=60, deadline=None)
    def test_refresh_count_decomposes_per_state(self, script):
        """Total refreshes == hi_time/16 + lo_time/64, summed over rows."""
        ledger = RefreshLedger(total_rows=4)
        now = 0.0
        for row, delta, state_idx in script:
            now += delta
            ledger.set_state(row, STATES[state_idx], now)
        ledger.finalize(now + 1.0)
        expected = 0.0
        for row in range(4):
            times = ledger.row_times(row)
            expected += times.hi_ms / 16.0 + times.lo_ms / 64.0
        assert ledger.refresh_count() == pytest.approx(expected)

    @given(st.floats(1.0, 10_000.0))
    @settings(max_examples=30, deadline=None)
    def test_all_hi_equals_baseline(self, window):
        ledger = RefreshLedger(total_rows=8)
        ledger.finalize(window)
        assert ledger.refresh_count() == pytest.approx(
            ledger.baseline_refresh_count()
        )
