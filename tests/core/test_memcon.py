"""Tests for MEMCON's accounting and the event-driven controller oracle."""

import dataclasses

import pytest

from repro import obs
from repro.core.memcon import MemconConfig, simulate_refresh_reduction
from repro.traces.generator import generate_trace
from repro.traces.workloads import WORKLOADS
from tests.oracles.memcon import (
    MemconController,
    assert_reports_agree,
    merged_events,
)


def _config(**overrides):
    defaults = dict(quantum_ms=1000.0, test_duration_ms=64.0,
                    test_read_only_pages=True)
    defaults.update(overrides)
    return MemconConfig(**defaults)


class TestFastAccounting:
    def test_read_only_pages_go_lo(self, trace_factory):
        trace = trace_factory({}, duration_ms=64_000.0, total_pages=4)
        report = simulate_refresh_reduction(trace, _config())
        # Every page: one 64 ms test then LO-REF for the rest.
        assert report.tests_total == 4
        assert report.lo_ref_time_fraction == pytest.approx(
            (64_000.0 - 64.0) / 64_000.0
        )
        assert report.refresh_reduction == pytest.approx(0.75, abs=0.01)

    def test_single_write_page_predicted_and_tested(self, trace_factory):
        # One write at t=100 in quantum 0; prediction at 2000; test ends
        # 2064; LO until the end of the window.
        trace = trace_factory({0: [100.0]}, duration_ms=10_000.0,
                              total_pages=1)
        report = simulate_refresh_reduction(trace, _config())
        assert report.tests_total == 1
        expected_lo = (10_000.0 - 2064.0) / 10_000.0
        assert report.lo_ref_time_fraction == pytest.approx(expected_lo)

    def test_double_write_in_quantum_never_tested(self, trace_factory):
        trace = trace_factory({0: [100.0, 200.0]}, duration_ms=10_000.0,
                              total_pages=1)
        report = simulate_refresh_reduction(trace, _config())
        assert report.tests_total == 0
        assert report.lo_ref_time_fraction == 0.0

    def test_write_before_prediction_boundary_cancels(self, trace_factory):
        # Write at 100 (quantum 0), rewritten at 1500 (quantum 1): the
        # page is evicted from the previous buffer, no test for the first
        # write. The second write (alone in quantum 1, idle in quantum 2)
        # is predicted at 3000.
        trace = trace_factory({0: [100.0, 1500.0]}, duration_ms=10_000.0,
                              total_pages=1)
        report = simulate_refresh_reduction(trace, _config())
        assert report.tests_total == 1
        expected_lo = (10_000.0 - 3064.0) / 10_000.0
        assert report.lo_ref_time_fraction == pytest.approx(expected_lo)

    def test_failing_page_stays_hi(self, trace_factory):
        trace = trace_factory({0: [100.0]}, duration_ms=10_000.0,
                              total_pages=1)
        report = simulate_refresh_reduction(
            trace, _config(test_read_only_pages=False),
            failing_page_fraction=1.0,
        )
        assert report.tests_failed == report.tests_total == 1
        assert report.lo_ref_time_fraction == 0.0

    def test_misprediction_classified(self, trace_factory):
        # Single write in quantum 0, idle through quantum 1 (predicted at
        # 2000), next write at 2500: remaining interval 500 < 1024 ms.
        trace = trace_factory({0: [100.0, 2500.0, 2600.0]},
                              duration_ms=10_000.0, total_pages=1)
        report = simulate_refresh_reduction(
            trace, _config(test_read_only_pages=False)
        )
        assert report.tests_mispredicted == 1

    def test_upper_bound_and_reduction_relationship(self, trace_factory):
        trace = trace_factory({0: [100.0]}, duration_ms=20_000.0,
                              total_pages=2)
        report = simulate_refresh_reduction(trace, _config())
        assert report.upper_bound_reduction == pytest.approx(0.75)
        assert 0.0 <= report.refresh_reduction <= 0.75

    def test_no_prediction_when_trace_ends_early(self, trace_factory):
        # Prediction boundary (2000) is past the window end: no test.
        trace = trace_factory({0: [100.0]}, duration_ms=1500.0,
                              total_pages=1)
        report = simulate_refresh_reduction(
            trace, _config(test_read_only_pages=False)
        )
        assert report.tests_total == 0

    def test_read_only_test_outlasting_window(self, trace_factory):
        # A 256 ms test on read-only pages in a 192 ms window is charged
        # the window, not the whole test.
        trace = trace_factory({}, duration_ms=192.0, total_pages=4)
        report = simulate_refresh_reduction(
            trace, _config(test_duration_ms=256.0)
        )
        assert report.refresh_count >= 0.0
        assert report.refresh_reduction <= 1.0

    def test_invalid_failing_fraction_raises(self, trace_factory):
        trace = trace_factory({0: [1.0]})
        with pytest.raises(ValueError):
            simulate_refresh_reduction(trace, _config(),
                                       failing_page_fraction=1.5)


class TestControllerAgreement:
    """The event-driven controller must agree with the fast accounting."""

    @pytest.mark.parametrize("writes,total_pages", [
        ({}, 4),
        ({0: [100.0]}, 2),
        ({0: [100.0, 200.0]}, 2),
        ({0: [100.0, 1500.0]}, 1),
        ({0: [100.0], 1: [50.0, 5000.0], 2: [3000.0]}, 6),
        # Rewritten on its prediction boundary (2000): the test that
        # boundary starts is aborted at once.
        ({0: [100.0, 2000.0]}, 1),
    ])
    def test_matches_fast_path(self, trace_factory, writes, total_pages):
        trace = trace_factory(writes, duration_ms=10_000.0,
                              total_pages=total_pages)
        config = _config()
        controller = MemconController(total_pages=total_pages, config=config)
        assert_reports_agree(simulate_refresh_reduction(trace, config),
                             controller.run(trace))

    def test_matches_on_generated_trace(self):
        profile = WORKLOADS["BlurMotion"]
        trace = generate_trace(profile, seed=4, duration_ms=8_000.0)
        config = _config()
        controller = MemconController(
            total_pages=trace.total_pages, config=config
        )
        assert_reports_agree(simulate_refresh_reduction(trace, config),
                             controller.run(trace))

    def test_failing_pages_agree(self, trace_factory):
        trace = trace_factory({0: [100.0]}, duration_ms=10_000.0,
                              total_pages=4)
        config = _config()
        fast = simulate_refresh_reduction(trace, config,
                                          failing_page_fraction=1.0)
        controller = MemconController(total_pages=4, config=config)
        slow = controller.run(trace, failing_page_fraction=1.0)
        assert_reports_agree(fast, slow)
        assert slow.lo_ref_time_fraction == pytest.approx(0.0)


class TestTracedMatchesUntraced:
    """A trace sink only adds the verdict stream to the vectorised pass;
    the report must stay bit-identical to an untraced run's."""

    @pytest.mark.parametrize("failing_page_fraction", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("name", ["BlurMotion", "Netflix", "SystemMgt"])
    def test_reports_identical(self, name, failing_page_fraction):
        trace = generate_trace(WORKLOADS[name], seed=2, duration_ms=8_000.0)
        assert not obs.trace_active()
        untraced = simulate_refresh_reduction(
            trace, _config(), failing_page_fraction, seed=5
        )
        previous = obs.set_sink(obs.ListTraceSink())
        try:
            traced = simulate_refresh_reduction(
                trace, _config(), failing_page_fraction, seed=5
            )
        finally:
            obs.set_sink(previous)
        assert untraced.tests_total > 0
        assert dataclasses.asdict(traced) == dataclasses.asdict(untraced)


class TestControllerBehaviour:
    def test_merged_events_globally_sorted(self, trace_factory):
        trace = trace_factory({0: [5.0, 9.0], 1: [1.0, 7.0]})
        events = merged_events(trace)
        times = [t for t, _ in events]
        assert times == sorted(times)
        assert events[0] == (1.0, 1)

    def test_write_during_test_aborts_to_hi(self, trace_factory):
        # Write at 100, predicted at 2000, test would end 2064, but the
        # next write lands at 2030 — inside the test window, so the first
        # test never yields LO-REF. The second write (alone in quantum 2,
        # idle in quantum 3) is then predicted at 4000 and tested.
        trace = trace_factory({0: [100.0, 2030.0]}, duration_ms=10_000.0,
                              total_pages=1)
        controller = MemconController(total_pages=1, config=_config(
            test_read_only_pages=False,
        ))
        report = controller.run(trace)
        assert report.tests_total == 2
        assert report.lo_ref_time_fraction == pytest.approx(
            (10_000.0 - 4064.0) / 10_000.0
        )

    def test_buffer_capacity_limits_tests(self, trace_factory):
        writes = {page: [float(page + 1)] for page in range(8)}
        trace = trace_factory(writes, duration_ms=10_000.0, total_pages=8)
        unlimited = MemconController(
            total_pages=8, config=_config(test_read_only_pages=False),
        ).run(trace)
        limited = MemconController(
            total_pages=8, config=_config(test_read_only_pages=False),
            buffer_capacity=2,
        ).run(trace)
        assert unlimited.tests_total == 8
        assert limited.tests_total == 2

    def test_footprint_mismatch_raises(self, trace_factory):
        trace = trace_factory({0: [1.0]}, total_pages=4)
        controller = MemconController(total_pages=8)
        with pytest.raises(ValueError, match="footprint"):
            controller.run(trace)

    def test_report_metadata(self, trace_factory):
        trace = trace_factory({0: [1.0]}, total_pages=4, name="wl")
        report = MemconController(total_pages=4, config=_config()).run(trace)
        assert report.workload == "wl"
        assert report.total_pages == 4
        assert report.window_ms == trace.duration_ms
