"""Tests for the write-trace container."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.traces.events import WriteTrace


class TestValidation:
    def test_unsorted_timestamps_raise(self, trace_factory):
        with pytest.raises(ValueError, match="sorted"):
            trace_factory({0: [5.0, 1.0]})

    def test_timestamp_past_window_raises(self, trace_factory):
        with pytest.raises(ValueError, match="outside"):
            trace_factory({0: [10_000.0]}, duration_ms=10_000.0)

    def test_negative_timestamp_raises(self, trace_factory):
        with pytest.raises(ValueError, match="outside"):
            trace_factory({0: [-1.0]})

    def test_more_written_pages_than_total_raises(self, trace_factory):
        with pytest.raises(ValueError, match="total_pages"):
            trace_factory({i: [1.0] for i in range(17)}, total_pages=16)

    @pytest.mark.parametrize("page", [-1, 16])
    def test_page_outside_footprint_raises(self, trace_factory, page):
        with pytest.raises(ValueError, match="total_pages=16"):
            trace_factory({page: [1.0]}, total_pages=16)

    def test_non_positive_duration_raises(self, trace_factory):
        with pytest.raises(ValueError):
            trace_factory({}, duration_ms=0.0)


class TestAccessors:
    def test_written_pages_excludes_empty(self, trace_factory):
        trace = trace_factory({0: [1.0], 1: [], 2: [2.0]})
        assert trace.written_pages == [0, 2]

    def test_n_writes(self, trace_factory):
        trace = trace_factory({0: [1.0, 2.0], 2: [3.0]})
        assert trace.n_writes == 3

    def test_read_only_pages(self, trace_factory):
        trace = trace_factory({0: [1.0]}, total_pages=16)
        assert trace.read_only_pages == 15

    def test_merged_events_globally_sorted(self, trace_factory):
        trace = trace_factory({0: [5.0, 9.0], 1: [1.0, 7.0]})
        events = list(trace.merged_events())
        times = [t for t, _ in events]
        assert times == sorted(times)
        assert events[0] == (1.0, 1)


class TestIntervals:
    def test_page_intervals(self, trace_factory):
        trace = trace_factory({0: [1.0, 4.0, 9.0]})
        assert list(trace.page_intervals(0)) == [3.0, 5.0]

    def test_trailing_interval_appended(self, trace_factory):
        trace = trace_factory({0: [1.0, 4.0]}, duration_ms=10.0)
        assert list(trace.page_intervals(0, include_trailing=True)) == [
            3.0, 6.0,
        ]

    def test_single_write_has_no_closed_interval(self, trace_factory):
        trace = trace_factory({0: [3.0]})
        assert len(trace.page_intervals(0)) == 0

    def test_unwritten_page_empty(self, trace_factory):
        trace = trace_factory({0: [1.0]})
        assert len(trace.page_intervals(5)) == 0

    def test_all_intervals_pools_pages(self, trace_factory):
        trace = trace_factory({0: [0.0, 2.0], 1: [0.0, 5.0]})
        assert sorted(trace.all_intervals()) == [2.0, 5.0]

    def test_all_intervals_empty_when_no_writes(self, trace_factory):
        trace = trace_factory({})
        assert len(trace.all_intervals()) == 0


class TestScaledIntervals:
    def test_halving_halves_gaps(self, trace_factory):
        trace = trace_factory({0: [100.0, 300.0, 700.0]})
        halved = trace.scaled_intervals(0.5)
        assert list(halved.writes[0]) == [100.0, 200.0, 400.0]

    def test_first_write_time_preserved(self, trace_factory):
        trace = trace_factory({0: [42.0, 50.0]})
        assert trace.scaled_intervals(0.5).writes[0][0] == 42.0

    def test_doubling_drops_writes_past_window(self, trace_factory):
        trace = trace_factory({0: [100.0, 6000.0]}, duration_ms=10_000.0)
        doubled = trace.scaled_intervals(2.0)
        assert list(doubled.writes[0]) == [100.0]

    def test_invalid_factor_raises(self, trace_factory):
        trace = trace_factory({0: [1.0]})
        with pytest.raises(ValueError):
            trace.scaled_intervals(0.0)

    @given(st.floats(min_value=0.1, max_value=0.9))
    @settings(max_examples=20, deadline=None)
    def test_scaling_preserves_write_count_when_shrinking(self, factor):
        trace = WriteTrace(
            duration_ms=1000.0,
            writes={0: np.array([10.0, 200.0, 900.0])},
            total_pages=4,
        )
        scaled = trace.scaled_intervals(factor)
        assert len(scaled.writes[0]) == 3
        intervals = np.diff(scaled.writes[0])
        expected = np.diff(trace.writes[0]) * factor
        assert np.allclose(intervals, expected)
