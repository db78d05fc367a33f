"""Tests for write-interval statistics (Figures 7, 9, 11, 12 machinery)."""

import numpy as np
import pytest

from repro.analysis.intervals import (
    CIL_GRID_MS,
    LONG_INTERVAL_MS,
    coverage_curve,
    interval_distribution,
    ril_exceeds_probability,
    ril_probability_curve,
    time_in_long_intervals,
)


class TestDistribution:
    def test_counts_sum_to_intervals(self, trace_factory):
        trace = trace_factory({0: [0.0, 0.5, 10.0, 600.0]})
        dist = interval_distribution(trace)
        assert dist.counts.sum() == dist.n_intervals == 3

    def test_bucket_placement(self, trace_factory):
        trace = trace_factory({0: [0.0, 0.5, 10.0, 600.0]})
        dist = interval_distribution(trace)
        # Intervals: 0.5 (bucket <1), 9.5 (8-64), 590 (512-4096).
        assert dist.counts[0] == 1
        assert dist.counts[2] == 1
        assert dist.counts[4] == 1

    def test_percentages(self, trace_factory):
        trace = trace_factory({0: [0.0, 0.5, 10.0, 600.0]})
        dist = interval_distribution(trace)
        assert dist.percentages.sum() == pytest.approx(100.0)

    def test_fraction_below(self, trace_factory):
        trace = trace_factory({0: [0.0, 0.5, 10.0]})
        below_1ms = interval_distribution(trace).percentages[0]
        assert below_1ms == pytest.approx(50.0)

    def test_empty_trace(self, trace_factory):
        dist = interval_distribution(trace_factory({}))
        assert dist.n_intervals == 0
        assert not dist.percentages.any()


class TestTimeInLongIntervals:
    def test_manual_computation(self, trace_factory):
        # Intervals: 100, 2000; trailing: 10000 - 2100 = 7900.
        trace = trace_factory({0: [0.0, 100.0, 2100.0]})
        expected = (2000.0 + 7900.0) / (100.0 + 2000.0 + 7900.0)
        assert time_in_long_intervals(trace) == pytest.approx(expected)

    def test_excluding_trailing(self, trace_factory):
        trace = trace_factory({0: [0.0, 100.0, 2100.0]})
        assert time_in_long_intervals(
            trace, include_trailing=False
        ) == pytest.approx(2000.0 / 2100.0)

    def test_all_short(self, trace_factory):
        trace = trace_factory({0: [0.0, 1.0, 2.0, 9999.5]},
                              duration_ms=10_000.0)
        assert time_in_long_intervals(trace, include_trailing=False) == \
            pytest.approx(9997.5 / 9999.5)

    def test_empty(self, trace_factory):
        assert time_in_long_intervals(trace_factory({})) == 0.0


class TestRilProbability:
    def test_manual_conditional(self, trace_factory):
        # Intervals (with trailing): 2000, 500, 7500  (writes at 0,2000,2500)
        trace = trace_factory({0: [0.0, 2000.0, 2500.0]})
        # CIL=100: all three reach it; remaining = 1900, 400, 7400;
        # two exceed 1024.
        assert ril_exceeds_probability(trace, 100.0) == pytest.approx(2 / 3)

    def test_probability_increases_with_cil_for_pareto_gaps(
        self, trace_factory
    ):
        # The DHR property holds for heavy-tailed gaps: the conditional
        # long-interval probability grows with elapsed idle time.
        rng = np.random.default_rng(0)
        gaps = 2.0 * rng.random(3000) ** (-1.0 / 0.7)
        times = np.cumsum(gaps)
        times = times[times < 500_000.0]
        trace = trace_factory({0: times}, duration_ms=500_000.0)
        grid = np.array([1.0, 64.0, 512.0])
        curve = ril_probability_curve(trace, grid)
        assert curve[0] < curve[1] < curve[2]

    def test_no_intervals_reaching_cil(self, trace_factory):
        trace = trace_factory({0: [0.0, 1.0]}, duration_ms=10.0)
        assert ril_exceeds_probability(trace, 100.0) == 0.0

    def test_default_grid_shape(self, trace_factory):
        trace = trace_factory({0: [0.0, 5000.0]})
        assert len(ril_probability_curve(trace)) == len(CIL_GRID_MS)


class TestCoverage:
    def test_manual_coverage(self, trace_factory):
        # Intervals with trailing: 2000 and 8000.
        trace = trace_factory({0: [0.0, 2000.0]})
        expected = ((2000 - 500) + (8000 - 500)) / 10_000
        assert coverage_curve(trace, [500.0])[0] == pytest.approx(expected)

    def test_coverage_one_at_zero_cil(self, trace_factory):
        trace = trace_factory({0: [0.0, 2000.0]})
        assert coverage_curve(trace, [0.0])[0] == pytest.approx(1.0)

    def test_coverage_monotone_decreasing(self, trace_factory):
        rng = np.random.default_rng(1)
        times = np.sort(rng.uniform(0, 9000, 30))
        trace = trace_factory({0: times})
        curve = coverage_curve(trace)
        assert np.all(np.diff(curve) <= 1e-12)

    def test_cil_larger_than_all_intervals(self, trace_factory):
        trace = trace_factory({0: [0.0, 10.0]}, duration_ms=100.0)
        assert coverage_curve(trace, [1000.0])[0] == 0.0

    def test_long_interval_constant(self):
        assert LONG_INTERVAL_MS == 1024.0
