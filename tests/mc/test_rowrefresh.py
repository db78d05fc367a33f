"""Tests for row-granularity refresh scheduling."""

import pytest

from repro.dram.timing import DDR3_1600
from repro.mc.bank import BankState
from repro.mc.rowrefresh import RowRefreshScheduler, RowRefreshSettings
from repro.sim.system import SystemConfig, SystemSimulator
from repro.traces.spec import get_benchmark


class TestSettings:
    def test_command_rate_two_populations(self):
        settings = RowRefreshSettings(hi_rows=100, lo_rows=300)
        # 100/16 + 300/64 = 6.25 + 4.6875 per ms.
        assert settings.commands_per_ms == pytest.approx(10.9375)

    def test_reduction_matches_raidr_formula(self):
        # 16% HI rows: reduction = 0.84 * 0.75 = 63%.
        settings = RowRefreshSettings(hi_rows=160, lo_rows=840)
        assert settings.refresh_reduction() == pytest.approx(0.63)

    def test_all_hi_means_no_reduction(self):
        settings = RowRefreshSettings(hi_rows=100, lo_rows=0)
        assert settings.refresh_reduction() == pytest.approx(0.0)

    def test_all_lo_hits_upper_bound(self):
        settings = RowRefreshSettings(hi_rows=0, lo_rows=100)
        assert settings.refresh_reduction() == pytest.approx(0.75)

    @pytest.mark.parametrize("kwargs", [
        {"hi_rows": -1, "lo_rows": 1},
        {"hi_rows": 0, "lo_rows": 0},
        {"hi_rows": 1, "lo_rows": 1, "hi_interval_ms": 0.0},
    ])
    def test_invalid_settings_raise(self, kwargs):
        with pytest.raises(ValueError):
            RowRefreshSettings(**kwargs)


class TestScheduler:
    def _scheduler(self, hi=160, lo=840):
        return RowRefreshScheduler(
            RowRefreshSettings(hi_rows=hi, lo_rows=lo), DDR3_1600, banks=4,
        )

    def test_row_cycle_cost(self):
        assert self._scheduler().row_cycle_ns == 39.0

    def test_issues_on_schedule(self):
        scheduler = self._scheduler()
        banks = [BankState() for _ in range(4)]
        due = scheduler.next_due_ns
        assert not scheduler.tick(due - 1.0, banks)
        assert scheduler.tick(due, banks)
        assert scheduler.commands_issued == 1

    def test_round_robin_across_banks(self):
        scheduler = self._scheduler()
        banks = [BankState() for _ in range(4)]
        for i in range(8):
            scheduler.tick(scheduler.next_due_ns, banks)
        # All four banks were touched twice.
        for bank in banks:
            assert bank.ready_ns > 0

    def test_refresh_closes_open_row(self):
        scheduler = self._scheduler()
        banks = [BankState(open_row=7) for _ in range(4)]
        scheduler.tick(scheduler.next_due_ns, banks)
        assert banks[0].open_row is None
        assert banks[1].open_row == 7  # other banks untouched

    def test_busy_time_accumulates(self):
        scheduler = self._scheduler()
        banks = [BankState() for _ in range(4)]
        for _ in range(10):
            scheduler.tick(scheduler.next_due_ns, banks)
        assert scheduler.busy_ns == pytest.approx(10 * 39.0)


class TestSystemIntegration:
    def _run(self, row_refresh=None, reduction=0.0, window=40_000.0):
        config = SystemConfig(
            density_gbit=32,
            row_refresh=row_refresh,
        )
        if reduction:
            from repro.mc.controller import RefreshSettings
            config = SystemConfig(
                density_gbit=32,
                refresh=RefreshSettings(reduction=reduction),
            )
        sim = SystemSimulator([get_benchmark("mcf")], config, seed=3)
        return sim.run(window)

    def test_row_refresh_disables_all_bank(self):
        settings = RowRefreshSettings(hi_rows=1311, lo_rows=6881)
        result = self._run(row_refresh=settings)
        # Only row-granular commands issued; the first fires one interval
        # in, so the count over the window is the floor of the rate.
        expected = int(40_000.0 / settings.command_interval_ns)
        assert result.refreshes_issued == expected

    def test_row_granular_beats_all_bank_at_equal_work(self):
        """For the same refresh-operation reduction, blocking one bank at
        a time interferes less than blocking the whole rank."""
        settings = RowRefreshSettings(hi_rows=1311, lo_rows=6881)
        row = self._run(row_refresh=settings)
        allbank = self._run(reduction=settings.refresh_reduction())
        assert row.cores[0].ipc > allbank.cores[0].ipc
