"""Tests for the write-trace container."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.traces.events import WriteTrace
from tests.oracles.traces import page_intervals, pooled_intervals


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


class TestIntervals:
    """The per-page oracle, and the pooled intervals held to it."""

    def test_page_intervals(self, trace_factory):
        trace = trace_factory({0: [1.0, 4.0, 9.0]})
        assert list(page_intervals(trace, 0)) == [3.0, 5.0]

    def test_trailing_interval_appended(self, trace_factory):
        trace = trace_factory({0: [1.0, 4.0]}, duration_ms=10.0)
        assert list(page_intervals(trace, 0, include_trailing=True)) == [
            3.0, 6.0,
        ]

    def test_single_write_has_no_closed_interval(self, trace_factory):
        trace = trace_factory({0: [3.0]})
        assert len(page_intervals(trace, 0)) == 0

    def test_unwritten_page_empty(self, trace_factory):
        trace = trace_factory({0: [1.0]})
        assert len(page_intervals(trace, 5)) == 0

    def test_all_intervals_pools_pages(self, trace_factory):
        trace = trace_factory({0: [0.0, 2.0], 1: [0.0, 5.0]})
        assert sorted(trace.all_intervals()) == [2.0, 5.0]

    def test_all_intervals_empty_when_no_writes(self, trace_factory):
        trace = trace_factory({})
        assert len(trace.all_intervals()) == 0

    def test_all_intervals_keeps_page_order_and_trailing_gaps(
        self, trace_factory
    ):
        trace = trace_factory(
            {3: [1.0, 4.0, 9.0], 0: [], 1: [2.0], 2: [0.5, 0.75]},
            duration_ms=10.0,
        )
        assert list(trace.all_intervals()) == [3.0, 5.0, 0.25]
        assert list(trace.all_intervals(include_trailing=True)) == [
            3.0, 5.0, 1.0, 8.0, 0.25, 9.25,
        ]

    @given(
        pages=st.dictionaries(
            st.integers(0, 31),
            st.lists(
                st.floats(0.0, 999.0, allow_nan=False), max_size=6
            ).map(sorted),
            max_size=10,
        ),
        include_trailing=st.booleans(),
        factor=st.sampled_from([None, 0.5, 1.7]),
    )
    @settings(max_examples=150, deadline=None)
    def test_all_intervals_match_per_page_pooling(
        self, pages, include_trailing, factor
    ):
        trace = WriteTrace(
            duration_ms=1000.0,
            writes={p: np.asarray(t, dtype=np.float64)
                    for p, t in pages.items()},
            total_pages=32,
        )
        if factor is not None:
            trace = trace.scaled_intervals(factor)
        got = trace.all_intervals(include_trailing)
        want = pooled_intervals(trace, include_trailing)
        assert got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes()


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
