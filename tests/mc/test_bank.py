"""Tests for bank/rank timing state machines."""

import pytest

from repro.dram.timing import DDR3_1600
from repro.mc.bank import BankState, RankState, issue_refresh, service_request

T = DDR3_1600
BURST_NS = T.burst_cycles * T.tCK


class TestServiceRequest:
    def test_row_miss_pays_activation(self):
        bank, rank = BankState(), RankState()
        done = service_request(bank, rank, row=5, now_ns=0.0, timing=T)
        assert done == pytest.approx(T.tRCD + T.tCAS + BURST_NS)
        assert bank.open_row == 5
        assert bank.row_misses == 1

    def test_row_hit_skips_activation(self):
        bank, rank = BankState(open_row=5), RankState()
        done = service_request(bank, rank, row=5, now_ns=0.0, timing=T)
        assert done == pytest.approx(T.tCAS + BURST_NS)
        assert bank.row_hits == 1

    def test_row_conflict_pays_precharge_and_activate(self):
        bank, rank = BankState(open_row=3), RankState()
        done = service_request(bank, rank, row=5, now_ns=0.0, timing=T)
        assert done == pytest.approx(T.tRP + T.tRCD + T.tCAS + BURST_NS)
        assert bank.row_conflicts == 1
        assert bank.open_row == 5

    def test_bus_serialises_bursts(self):
        rank = RankState()
        bank_a, bank_b = BankState(open_row=1), BankState(open_row=2)
        done_a = service_request(bank_a, rank, row=1, now_ns=0.0, timing=T)
        done_b = service_request(bank_b, rank, row=2, now_ns=0.0, timing=T)
        # Second burst cannot start before the first releases the bus.
        assert done_b >= done_a

    def test_refresh_blocks_start(self):
        bank = BankState(open_row=1)
        rank = RankState(refresh_until_ns=500.0)
        done = service_request(bank, rank, row=1, now_ns=0.0, timing=T)
        assert done >= 500.0 + T.tCAS

    def test_hit_miss_conflict_counters_disjoint(self):
        bank, rank = BankState(), RankState()
        service_request(bank, rank, row=1, now_ns=0.0, timing=T)      # miss
        service_request(bank, rank, row=1, now_ns=1000.0, timing=T)   # hit
        service_request(bank, rank, row=2, now_ns=2000.0, timing=T)   # conflict
        assert (bank.row_misses, bank.row_hits, bank.row_conflicts) == (1, 1, 1)

    def test_activation_accounting_invariant(self):
        """Regression pin for the row-buffer branch taken per request.

        A hit issues no ACT/PRE, a miss exactly one ACT, a conflict
        exactly one PRE + one ACT; every request takes exactly one of
        the three branches, so the ACT count is ``row_misses +
        row_conflicts`` and the PRE count is ``row_conflicts``.
        """
        bank, rank = BankState(), RankState()
        t = 0.0
        for served, row in enumerate((1, 1, 2, 3, 3, 3, 1, 2), start=1):
            service_request(bank, rank, row=row, now_ns=t, timing=T)
            branches = bank.row_hits + bank.row_misses + bank.row_conflicts
            assert branches == served
            assert bank.open_row == row
            t += 1000.0
        # miss, hit, conflict, conflict, hit, hit, conflict, conflict:
        # 5 ACTs (1 miss + 4 conflicts) and 4 PREs.
        assert (bank.row_misses, bank.row_hits, bank.row_conflicts) == (
            1, 3, 4,
        )


class TestRefresh:
    def test_refresh_blocks_all_banks(self):
        rank = RankState()
        banks = [BankState(open_row=1), BankState(open_row=2)]
        end = issue_refresh(rank, banks, now_ns=100.0, timing=T)
        assert end == 100.0 + T.tRFC
        assert rank.refresh_until_ns == end
        for bank in banks:
            assert bank.open_row is None
            assert bank.ready_ns >= end

    def test_refresh_statistics(self):
        rank = RankState()
        issue_refresh(rank, [BankState()], now_ns=0.0, timing=T)
        issue_refresh(rank, [BankState()], now_ns=2000.0, timing=T)
        assert rank.refreshes_issued == 2
        assert rank.refresh_busy_ns == 2 * T.tRFC
