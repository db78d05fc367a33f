"""End-to-end checks of the fast (non-simulator) experiments.

Each test runs the experiment in quick mode and asserts the *shape* claim
the paper makes — who wins, by roughly what factor, where crossovers fall.
"""

import pytest

from repro.core.costmodel import CostModel, TestMode
from repro.experiments import fig03
from repro.experiments.runner import run_experiments


def _run(name):
    return run_experiments([name], quick=True, seed=1)[0]


class TestFig03:
    def test_failures_are_pattern_conditional(self):
        result = _run("fig03")
        counts = [row["failing_cells"] for row in result.rows]
        # Different patterns trip different numbers of cells; solid0 rows
        # never charge true-cells so variance must exist.
        assert max(counts) > min(counts)

    def test_scatter_points_exist(self):
        points = [
            ((row, bit), pattern_id)
            for unit in fig03.units(quick=True, seed=1)
            for row, bit, pattern_id in fig03.run_unit(
                unit, quick=True, seed=1
            )["cells"]
        ]
        assert len(points) > 50
        cells = {cell for cell, _ in points}
        patterns_per_cell = {
            cell: {p for c, p in points if c == cell} for cell in cells
        }
        n_patterns = 24
        conditional = [
            cell for cell, pats in patterns_per_cell.items()
            if 0 < len(pats) < n_patterns
        ]
        assert len(conditional) > 0.5 * len(cells)


class TestFig04:
    @pytest.fixture(scope="class")
    def result(self):
        return _run("fig04")

    def test_all_fail_near_paper(self, result):
        all_fail = float(result.rows[-1]["failing_rows"].rstrip("%"))
        assert 10.0 <= all_fail <= 18.0  # paper: 13.5%

    def test_program_content_fails_far_less(self, result):
        fractions = [
            float(row["failing_rows"].rstrip("%"))
            for row in result.rows[:-1]
        ]
        all_fail = float(result.rows[-1]["failing_rows"].rstrip("%"))
        assert max(fractions) < all_fail / 2      # at least 2x fewer
        assert min(fractions) < all_fail / 20     # sparse content ~30x fewer

    def test_perlbench_sparser_than_lbm(self, result):
        by_name = {row["benchmark"]: row for row in result.rows}
        perl = float(by_name["perlbench"]["failing_rows"].rstrip("%"))
        lbm = float(by_name["lbm"]["failing_rows"].rstrip("%"))
        assert perl < lbm


class TestFig06:
    def test_every_crossover_matches_paper(self):
        result = _run("fig06")
        assert all(row["match"] == "yes" for row in result.rows)

    def test_curve_series_monotone(self):
        model = CostModel()
        _, hi, read_cmp = model.cost_curves(TestMode.READ_AND_COMPARE, 1500.0)
        _, _, copy_cmp = model.cost_curves(TestMode.COPY_AND_COMPARE, 1500.0)
        assert hi == sorted(hi)
        assert read_cmp == sorted(read_cmp)
        assert copy_cmp[0] > read_cmp[0]  # Copy&Compare starts higher


class TestFig07:
    def test_sub_ms_majority(self):
        result = _run("fig07")
        for row in result.rows:
            assert float(row["<1ms"].rstrip("%")) > 95.0

    def test_long_intervals_rare_by_count(self):
        result = _run("fig07")
        for row in result.rows:
            assert float(row[">=1024ms"].rstrip("%")) < 2.0


class TestFig08:
    def test_pareto_fits_meet_paper_quality(self):
        result = _run("fig08")
        for row in result.rows:
            assert row["r_squared"] > 0.93
            assert row["dhr"] == "True"


class TestFig09:
    def test_long_intervals_dominate_time(self):
        result = _run("fig09")
        average = result.rows[-1]
        assert average["workload"] == "AVERAGE"
        assert float(average["time_in_long_intervals"].rstrip("%")) > 80.0


class TestFig11:
    def test_dhr_shape(self):
        result = _run("fig11")
        for row in result.rows:
            assert row["cil_64ms"] < row["cil_512ms"] < row["cil_16384ms"]
            # Paper: ~50-80% at CIL = 512 ms; near 1 past 16 s.
            assert 0.4 <= row["cil_512ms"] <= 0.9
            assert row["cil_16384ms"] > 0.85


class TestFig12:
    def test_coverage_decreases_with_cil(self):
        result = _run("fig12")
        for row in result.rows:
            assert row["cil_64ms"] >= row["cil_2048ms"] >= row["cil_32768ms"]
            # Paper's sweet spot: 512-2048 ms retains most interval time.
            assert row["cil_2048ms"] > 0.6


class TestFig14:
    def test_reduction_in_paper_band(self):
        result = _run("fig14")
        for row in result.rows:
            for key in ("cil_512ms", "cil_1024ms", "cil_2048ms"):
                value = float(row[key].rstrip("%"))
                assert 55.0 <= value <= 75.0
                assert value < 75.0  # never beats the upper bound


class TestFig17:
    def test_lo_ref_coverage_high(self):
        result = _run("fig17")
        for row in result.rows:
            assert float(row["cil_1024ms"].rstrip("%")) > 75.0


class TestFig18:
    def test_testing_time_negligible(self):
        result = _run("fig18")
        for row in result.rows:
            correct = float(row["testing_correct"].rstrip("%"))
            mispredicted = float(row["testing_mispredicted"].rstrip("%"))
            refresh = float(row["refresh"].rstrip("%"))
            assert correct + mispredicted < 3.0
            assert refresh < 45.0
            # At the paper's 8 GB module scale testing vanishes entirely.
            assert float(row["testing_at_8GB"].rstrip("%")) < 0.01


class TestFig19:
    def test_halving_barely_moves_probability(self):
        result = _run("fig19")
        for row in result.rows:
            assert abs(row["delta"]) < 0.1
