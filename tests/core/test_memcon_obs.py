"""End-to-end: the controller's trace/metrics reconcile with its report.

The observability layer is only trustworthy if the event stream and the
report agree exactly: every test the controller accounts for must appear
as a ``test_started`` event, and every started test must resolve to
exactly one of aborted / passed / failed. The same reconciliation holds
for refresh-state transitions and the registry counters.
"""

import numpy as np
import pytest

from repro.core import MemconConfig, MemconController
from repro.core.memcon import simulate_refresh_reduction


def _run(trace, obs_env, **kwargs):
    controller = MemconController(
        total_pages=trace.total_pages,
        config=MemconConfig(quantum_ms=1024.0),
        **kwargs,
    )
    return controller.run(trace), controller


@pytest.fixture
def busy_trace(trace_factory):
    # Page 0: one early write, predicted and tested, stays idle -> passes.
    # Page 1: write, predicted, then rewritten inside the test window -> abort.
    # Page 2: rewritten every quantum -> never predicted.
    # Pages 3..5: read-only -> tested once at start-up.
    return trace_factory(
        {
            0: [100.0],
            1: [100.0, 2048.0 + 30.0],
            2: list(np.arange(10) * 1024.0 + 50.0),
        },
        duration_ms=10_240.0,
        total_pages=6,
    )


class TestTraceReconciliation:
    def test_started_equals_tests_total(self, busy_trace, obs_env):
        _, sink = obs_env
        report, _ = _run(busy_trace, obs_env)
        kinds = sink.kinds()
        assert kinds.get("test_started", 0) == report.tests_total

    def test_started_equals_aborted_plus_passed_plus_failed(
        self, busy_trace, obs_env
    ):
        _, sink = obs_env
        report, _ = _run(busy_trace, obs_env)
        kinds = sink.kinds()
        assert kinds.get("test_started", 0) == (
            kinds.get("test_aborted", 0)
            + kinds.get("test_passed", 0)
            + kinds.get("test_failed", 0)
        )
        assert kinds.get("test_aborted", 0) == report.tests_aborted
        assert kinds.get("test_failed", 0) == report.tests_failed
        assert kinds.get("test_passed", 0) == (
            report.tests_total - report.tests_aborted - report.tests_failed
        )

    def test_abort_actually_happens_in_fixture(self, busy_trace, obs_env):
        _, sink = obs_env
        report, _ = _run(busy_trace, obs_env)
        assert report.tests_aborted >= 1

    def test_failing_pages_reconcile(self, busy_trace, obs_env):
        _, sink = obs_env
        report, _ = _run(busy_trace, obs_env)
        # Re-run with every page failing its content test.
        registry2, sink2 = obs_env
        sink2.records.clear()
        controller = MemconController(
            total_pages=busy_trace.total_pages,
            config=MemconConfig(quantum_ms=1024.0),
            fails=lambda page: True,
        )
        failing_report = controller.run(busy_trace)
        kinds = sink2.kinds()
        assert kinds["test_failed"] == failing_report.tests_failed
        assert failing_report.tests_failed == (
            failing_report.tests_total - failing_report.tests_aborted
        )
        assert "test_passed" not in kinds

    def test_transitions_reconcile_with_pass_counts(self, busy_trace, obs_env):
        _, sink = obs_env
        report, _ = _run(busy_trace, obs_env)
        transitions = [r for r in sink.records if r["kind"] == "ref_transition"]
        to_lo = [t for t in transitions if t["to"] == "lo_ref"]
        # Every passed test promotes exactly one row to LO-REF.
        passed = report.tests_total - report.tests_aborted - report.tests_failed
        assert len(to_lo) == passed
        # Transition records carry valid from/to states.
        states = {"hi_ref", "lo_ref", "testing"}
        assert all(t["from"] in states and t["to"] in states for t in transitions)
        assert all(t["from"] != t["to"] for t in transitions)

    def test_pril_quantum_events_cover_all_boundaries(
        self, busy_trace, obs_env
    ):
        _, sink = obs_env
        _, controller = _run(busy_trace, obs_env)
        quanta = [r for r in sink.records if r["kind"] == "pril_quantum"]
        assert len(quanta) == controller.pril.quantum_index
        assert sum(q["predicted"] for q in quanta) == (
            controller.pril.stats.predictions_made
        )


class TestCounterReconciliation:
    def test_registry_counters_match_report(self, busy_trace, obs_env):
        registry, _ = obs_env
        report, _ = _run(busy_trace, obs_env)
        counters = registry.snapshot()["counters"]
        assert counters["memcon.tests_started"] == report.tests_total
        assert counters["memcon.tests_aborted"] == report.tests_aborted
        assert counters["memcon.tests_failed"] == report.tests_failed
        assert counters["memcon.tests_passed"] == (
            report.tests_total - report.tests_aborted - report.tests_failed
        )
        assert counters["memcon.transitions_to_lo"] == (
            counters["memcon.tests_passed"]
        )
        assert counters["pril.writes_observed"] == (
            sum(len(t) for t in busy_trace.writes.values())
        )

    def test_fast_model_counts_tests(self, busy_trace, obs_env):
        registry, _ = obs_env
        report = simulate_refresh_reduction(
            busy_trace, MemconConfig(quantum_ms=1024.0)
        )
        counters = registry.snapshot()["counters"]
        assert counters["memcon.tests_started"] == report.tests_total
        assert counters["memcon.tests_aborted"] == report.tests_aborted

    def test_disabled_registry_records_nothing(self, busy_trace):
        from repro import obs

        registry = obs.MetricsRegistry(enabled=False)
        previous = obs.set_registry(registry)
        try:
            report, _ = _run(busy_trace, None)
            assert report.tests_total > 0
            counters = registry.snapshot()["counters"]
            assert all(value == 0 for value in counters.values())
        finally:
            obs.set_registry(previous)


class TestFastVsControllerAbortAccounting:
    def test_fast_model_reports_same_aborts(self, busy_trace, obs_env):
        slow, _ = _run(busy_trace, obs_env)
        fast = simulate_refresh_reduction(
            busy_trace, MemconConfig(quantum_ms=1024.0)
        )
        assert fast.tests_aborted == slow.tests_aborted
        assert fast.tests_total == slow.tests_total


class TestFastModelEventStream:
    """The accounting model replays its verdicts as a valid event stream."""

    def test_stream_is_schema_valid_and_time_ordered(self, busy_trace, obs_env):
        from repro import obs as obs_mod

        _, sink = obs_env
        simulate_refresh_reduction(busy_trace, MemconConfig(quantum_ms=1024.0))
        assert sink.records
        for record in sink.records:
            obs_mod.validate_record(record)
        stamps = [r["t_ms"] for r in sink.records if "t_ms" in r]
        assert stamps == sorted(stamps)

    @pytest.mark.parametrize("failing_page_fraction", [0.0, 1.0])
    def test_lifecycle_reconciles_with_report(
        self, busy_trace, obs_env, failing_page_fraction
    ):
        _, sink = obs_env
        report = simulate_refresh_reduction(
            busy_trace, MemconConfig(quantum_ms=1024.0),
            failing_page_fraction=failing_page_fraction,
        )
        kinds = sink.kinds()
        assert kinds["test_started"] == report.tests_total
        assert kinds["test_started"] == (
            kinds.get("test_aborted", 0)
            + kinds.get("test_passed", 0)
            + kinds.get("test_failed", 0)
        )
        assert kinds.get("test_aborted", 0) == report.tests_aborted
        # An aborted test on a failing page is aborted, not failed.
        assert kinds.get("test_failed", 0) == report.tests_failed

    def test_pril_events_predict_the_tests_started(self, busy_trace, obs_env):
        from repro import obs as obs_mod

        _, sink = obs_env
        simulate_refresh_reduction(busy_trace, MemconConfig(quantum_ms=1024.0))
        rollup = obs_mod.aggregate_trace(sink.records, window_ms=1024.0)
        for quantum in rollup["pril"]:
            assert quantum["started"] == quantum["predicted"]
            assert quantum["resolved"] + quantum["aborted"] == (
                quantum["started"]
            )

    def test_transitions_keep_population_consistent(self, busy_trace, obs_env):
        from repro import obs as obs_mod

        _, sink = obs_env
        simulate_refresh_reduction(busy_trace, MemconConfig(quantum_ms=1024.0))
        aggregator = obs_mod.AggregatingSink(
            window_ms=1024.0, total_pages=busy_trace.total_pages
        )
        for record in sink.records:
            aggregator.emit(record)
        assert 0 <= aggregator.rows_lo <= busy_trace.total_pages
        assert aggregator.rows_testing == 0  # every test ended
        assert aggregator.tests_outstanding == 0

    def test_no_sink_means_no_event_work(self, busy_trace):
        from repro import obs as obs_mod

        previous = obs_mod.set_sink(None)
        try:
            report = simulate_refresh_reduction(
                busy_trace, MemconConfig(quantum_ms=1024.0)
            )
            assert report.tests_total > 0
        finally:
            obs_mod.set_sink(previous)
