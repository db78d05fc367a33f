"""Reduced-scale checks of the simulator-driven experiments.

The full fig15/fig16/table3 runs take minutes; these tests exercise the
same code paths with a couple of workloads and short windows, asserting
the orderings the paper reports rather than the full sweep.
"""

import pytest

from repro.experiments.common import mean_speedups

WINDOW_NS = 50_000.0
WORKLOADS = (["mcf"], ["lbm"])


def _mean_speedup(reduction, density=32, tests=0, seed=3):
    (mean,) = mean_speedups(
        WORKLOADS, {"density_gbit": density},
        [{"density_gbit": density, "refresh_reduction": reduction,
          "concurrent_tests": tests}],
        WINDOW_NS, seed,
    )
    return mean


class TestFig15Shape:
    def test_75_beats_60_percent_reduction(self):
        assert _mean_speedup(0.75) > _mean_speedup(0.60)

    def test_speedup_grows_with_density(self):
        assert _mean_speedup(0.75, density=32) > _mean_speedup(
            0.75, density=8
        )

    def test_32gb_improvement_in_paper_band(self):
        # Paper: ~40-50% mean improvement for memory-bound workloads.
        assert 1.2 < _mean_speedup(0.75, density=32, tests=256) < 1.75


class TestFig16Shape:
    def test_mechanism_ordering(self):
        # 32 ms < RAIDR < MEMCON <= ideal 64 ms, as in the paper.
        s_32ms = _mean_speedup(0.50)
        s_raidr = _mean_speedup(0.63)
        s_memcon = _mean_speedup(0.66, tests=256)
        s_ideal = _mean_speedup(0.75)
        assert s_32ms < s_raidr
        assert s_raidr < s_memcon + 0.02
        assert s_memcon < s_ideal + 0.02

    def test_memcon_close_to_ideal(self):
        # Paper: within 3-5% of the 64 ms ideal.
        gap = _mean_speedup(0.75) / _mean_speedup(0.66, tests=256)
        assert gap < 1.12


class TestTable3Shape:
    def test_more_tests_cost_more(self):
        base = _mean_speedup(0.66, tests=0)
        losses = [
            1.0 - _mean_speedup(0.66, tests=n) / base
            for n in (256, 1024)
        ]
        assert losses[1] >= losses[0] - 0.005

    def test_testing_overhead_small(self):
        base = _mean_speedup(0.66, tests=0)
        loss = 1.0 - _mean_speedup(0.66, tests=1024) / base
        assert loss < 0.05  # paper: at most ~2%
