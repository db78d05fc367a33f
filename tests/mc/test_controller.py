"""Tests for the cycle-level memory controller."""

import pytest

from repro.dram.timing import DDR3_1600
from repro.mc.controller import (
    MemoryController,
    RefreshSettings,
    TestTrafficSettings,
)
from repro.mc.request import Request, RequestKind


def _run_idle(controller, until_ns):
    now, tck = 0.0, controller.timing.tCK
    while now < until_ns:
        now = max(controller.drain(now, now + tck)[0], now + tck)


class TestRefreshSettings:
    def test_effective_trefi_baseline(self):
        settings = RefreshSettings(base_interval_ms=16.0)
        assert settings.effective_trefi_ns == pytest.approx(1953.125)

    def test_reduction_stretches_trefi(self):
        settings = RefreshSettings(base_interval_ms=16.0, reduction=0.75)
        assert settings.effective_trefi_ns == pytest.approx(4 * 1953.125)

    def test_invalid_reduction_raises(self):
        with pytest.raises(ValueError):
            RefreshSettings(reduction=1.0)


class TestTestTrafficSettings:
    def test_disabled_by_default(self):
        assert TestTrafficSettings().request_interval_ns is None

    def test_interval_matches_rate(self):
        # 256 tests x 256 requests per 64 ms window.
        settings = TestTrafficSettings(concurrent_tests=256)
        expected = 64e6 / (256 * 256)
        assert settings.request_interval_ns == pytest.approx(expected)


class TestRefreshCadence:
    def test_refresh_count_matches_trefi(self):
        controller = MemoryController()
        _run_idle(controller, 100_000.0)
        expected = int(100_000.0 / controller.refresh.effective_trefi_ns)
        assert abs(controller.rank.refreshes_issued - expected) <= 1

    def test_reduction_scales_refresh_count(self):
        base = MemoryController(refresh=RefreshSettings())
        reduced = MemoryController(
            refresh=RefreshSettings(reduction=0.75)
        )
        _run_idle(base, 100_000.0)
        _run_idle(reduced, 100_000.0)
        ratio = reduced.rank.refreshes_issued / base.rank.refreshes_issued
        assert ratio == pytest.approx(0.25, abs=0.02)

    def test_refresh_busy_time(self):
        controller = MemoryController()
        _run_idle(controller, 100_000.0)
        assert controller.rank.refresh_busy_ns == (
            controller.rank.refreshes_issued * controller.timing.tRFC
        )


class TestRequestService:
    def test_read_completes_with_callback(self):
        completed = []
        controller = MemoryController(on_read_complete=completed.append)
        controller.scheduler.enqueue(Request(
            kind=RequestKind.READ, core=0, bank=0, row=5, arrival_ns=0.0,
        ))
        _run_idle(controller, 2000.0)
        assert len(completed) == 1
        assert completed[0].completion_ns > 0

    def test_requests_not_served_during_refresh(self):
        completed = []
        controller = MemoryController(on_read_complete=completed.append)
        trefi = controller.refresh.effective_trefi_ns
        # Arrive just as a refresh is due.
        controller.scheduler.enqueue(Request(
            kind=RequestKind.READ, core=0, bank=0, row=1,
            arrival_ns=trefi + 1.0,
        ))
        _run_idle(controller, trefi + 5000.0)
        request = completed[0]
        # Data cannot return until the refresh (tRFC) has finished.
        assert request.completion_ns >= trefi + controller.timing.tRFC

    def test_test_traffic_injected_at_rate(self):
        controller = MemoryController(
            test_traffic=TestTrafficSettings(concurrent_tests=256),
        )
        _run_idle(controller, 100_000.0)
        # 256 tests x 256 requests / 64 ms = 1024 requests per ms.
        # The controller both injects and (idle otherwise) serves them.
        stats = controller.stats()
        served = stats.row_hits + stats.row_misses + stats.row_conflicts
        expected = 100_000.0 / controller.test_traffic.request_interval_ns
        assert served == pytest.approx(expected, rel=0.1)

    def test_row_buffer_stats_accumulate(self):
        controller = MemoryController()
        for i in range(4):
            controller.scheduler.enqueue(Request(
                kind=RequestKind.READ, core=0, bank=0, row=7,
                arrival_ns=float(i),
            ))
        _run_idle(controller, 5000.0)
        stats = controller.stats()
        assert stats.row_misses + stats.row_conflicts >= 1
        assert stats.row_hits >= 3

    def test_validation(self):
        with pytest.raises(ValueError):
            MemoryController(banks=0)
