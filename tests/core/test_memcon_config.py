"""Validation and report-API tests for MEMCON configuration."""

import pytest

from repro.core.costmodel import TestMode
from repro.core.memcon import (
    MemconConfig,
    MemconReport,
    simulate_refresh_reduction,
)


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"quantum_ms": 0.0},
        {"hi_ref_interval_ms": 0.0},
        {"lo_ref_interval_ms": 8.0},   # below HI-REF
        {"test_duration_ms": 0.0},
    ])
    def test_invalid_config_raises(self, kwargs):
        with pytest.raises(ValueError):
            MemconConfig(**kwargs)

    def test_defaults_match_paper(self):
        config = MemconConfig()
        assert config.hi_ref_interval_ms == 16.0
        assert config.lo_ref_interval_ms == 64.0
        assert config.test_mode is TestMode.READ_AND_COMPARE
        assert config.long_interval_ms == 1024.0


class TestReportApi:
    def _report(self, trace_factory, **config_kwargs):
        trace = trace_factory({0: [100.0]}, duration_ms=10_000.0,
                              total_pages=4)
        return simulate_refresh_reduction(
            trace, MemconConfig(**config_kwargs),
        )

    def test_upper_bound_follows_intervals(self, trace_factory):
        report = self._report(trace_factory, hi_ref_interval_ms=16.0,
                              lo_ref_interval_ms=128.0)
        assert report.upper_bound_reduction == pytest.approx(0.875)

    def test_zero_baseline_guard(self):
        report = MemconReport(
            workload="x", config=MemconConfig(), window_ms=1.0,
            total_pages=1, refresh_count=0.0, baseline_refresh_count=0.0,
            lo_ref_time_fraction=0.0, tests_total=0, tests_failed=0,
            tests_correct=0, tests_mispredicted=0, refresh_time_ns=0.0,
            baseline_refresh_time_ns=0.0, testing_time_ns=0.0,
            testing_time_correct_ns=0.0, testing_time_mispredicted_ns=0.0,
        )
        assert report.refresh_reduction == 0.0

    def test_copy_mode_costs_more_testing_time(self, trace_factory):
        read = self._report(trace_factory,
                            test_mode=TestMode.READ_AND_COMPARE)
        copy = self._report(trace_factory,
                            test_mode=TestMode.COPY_AND_COMPARE)
        assert copy.testing_time_ns > read.testing_time_ns
        assert copy.tests_total == read.tests_total

    def test_disabling_read_only_tests(self, trace_factory):
        trace = trace_factory({0: [100.0]}, duration_ms=10_000.0,
                              total_pages=8)
        with_ro = simulate_refresh_reduction(
            trace, MemconConfig(test_read_only_pages=True),
        )
        without_ro = simulate_refresh_reduction(
            trace, MemconConfig(test_read_only_pages=False),
        )
        assert with_ro.tests_total == without_ro.tests_total + 7
        assert with_ro.refresh_reduction > without_ro.refresh_reduction
