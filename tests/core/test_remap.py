"""Tests for row remapping and the combined mitigation cascade."""

import pytest

from repro.core.ecc import EccConfig
from repro.core.remap import MitigationPlan, RemapTable, plan_mitigations
from repro.dram.faults import VulnerableCell


def _cell(column: int) -> VulnerableCell:
    return VulnerableCell(row_index=0, physical_column=column,
                          threshold=0.5, true_cell=True)


class TestRemapTable:
    def test_remap_and_lookup(self):
        table = RemapTable(spare_rows=[100, 101])
        spare = table.remap(5)
        assert spare in (100, 101)
        assert table.lookup(5) == spare
        assert table.remapped_rows == 1
        assert table.available == 1

    def test_pool_exhaustion_returns_none(self):
        table = RemapTable(spare_rows=[100])
        assert table.remap(1) is not None
        assert table.remap(2) is None

    def test_release_recycles_spare(self):
        table = RemapTable(spare_rows=[100])
        table.remap(1)
        table.release(1)
        assert table.available == 1
        assert table.lookup(1) is None
        assert table.remap(2) == 100

    def test_double_remap_raises(self):
        table = RemapTable(spare_rows=[100, 101])
        table.remap(1)
        with pytest.raises(ValueError, match="already remapped"):
            table.remap(1)

    def test_release_unmapped_raises(self):
        with pytest.raises(ValueError, match="not remapped"):
            RemapTable(spare_rows=[100]).release(7)

    def test_duplicate_spares_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            RemapTable(spare_rows=[100, 100])

    def test_storage_overhead(self):
        table = RemapTable(spare_rows=list(range(10)))
        assert table.storage_overhead_bits(18) == 10 * 36


class TestCascade:
    def test_clean_rows_lo_ref(self):
        plan = plan_mitigations({0: [], 1: []})
        assert plan.lo_ref_rows == 2
        assert plan.total == 2

    def test_correctable_rows_take_ecc(self):
        plan = plan_mitigations(
            {0: [_cell(3)]},
            ecc=EccConfig(),
        )
        assert plan.ecc_rows == 1
        assert plan.hi_ref_rows == 0

    def test_uncorrectable_rows_remapped_first(self):
        plan = plan_mitigations(
            {0: [_cell(3), _cell(4)]},
            remap_table=RemapTable(spare_rows=[99]),
            ecc=EccConfig(),
        )
        assert plan.remapped_rows == 1
        assert plan.hi_ref_rows == 0

    def test_exhausted_spares_fall_to_hi_ref(self):
        plan = plan_mitigations(
            {
                0: [_cell(3), _cell(4)],
                1: [_cell(3), _cell(4)],
            },
            remap_table=RemapTable(spare_rows=[99]),
            ecc=EccConfig(),
        )
        assert plan.remapped_rows == 1
        assert plan.hi_ref_rows == 1

    def test_uncorrectable_row_goes_hi(self):
        plan = plan_mitigations({0: [_cell(3), _cell(4)]}, ecc=EccConfig())
        assert plan.hi_ref_rows == 1
        assert plan.ecc_rows == 0

    def test_stronger_code_corrects_more(self):
        plan = plan_mitigations(
            {0: [_cell(3), _cell(4)]},
            ecc=EccConfig(correctable_per_word=2),
        )
        assert plan.ecc_rows == 1
        assert plan.hi_ref_rows == 0

    def test_ecc_reduces_refresh_cost(self):
        rows = {row: [_cell(3)] for row in range(10)}
        with_ecc = plan_mitigations(rows, ecc=EccConfig())
        without_ecc = plan_mitigations(rows)
        assert (with_ecc.refresh_ops_per_window()
                < without_ecc.refresh_ops_per_window())

    def test_no_ecc_no_remap_all_failures_hi(self):
        plan = plan_mitigations({0: [_cell(3)], 1: []})
        assert plan.hi_ref_rows == 1
        assert plan.lo_ref_rows == 1

    def test_refresh_ops_cheapest_first(self):
        spares = RemapTable(spare_rows=[99])
        full = plan_mitigations(
            {0: [], 1: [_cell(3)], 2: [_cell(3), _cell(4)]},
            remap_table=spares, ecc=EccConfig(),
        )
        bare = plan_mitigations(
            {0: [], 1: [_cell(3)], 2: [_cell(3), _cell(4)]},
        )
        assert full.refresh_ops_per_window() == 3.0   # all LO-like
        assert bare.refresh_ops_per_window() == 9.0   # 1 + 2 rows at 4x

    def test_plan_totals(self):
        plan = MitigationPlan(lo_ref_rows=5, ecc_rows=2,
                              remapped_rows=1, hi_ref_rows=2)
        assert plan.total == 10
        assert plan.refresh_ops_per_window() == 8 + 2 * 4
