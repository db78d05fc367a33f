"""Tests for workload mixes and performance metrics."""

import pytest

from repro.sim.metrics import geometric_mean
from repro.sim.workloads import multicore_mixes, singlecore_workloads
from repro.traces.spec import BENCHMARKS


class TestMixes:
    def test_default_shape(self):
        mixes = multicore_mixes()
        assert len(mixes) == 30
        assert all(len(mix) == 4 for mix in mixes)

    def test_no_duplicates_within_mix(self):
        for mix in multicore_mixes():
            assert len(set(mix)) == 4

    def test_all_names_valid(self):
        for mix in multicore_mixes():
            assert all(name in BENCHMARKS for name in mix)

    def test_deterministic_per_seed(self):
        assert multicore_mixes(seed=5) == multicore_mixes(seed=5)
        assert multicore_mixes(seed=5) != multicore_mixes(seed=6)

    def test_singlecore_shape(self):
        workloads = singlecore_workloads(10)
        assert len(workloads) == 10
        assert all(len(w) == 1 for w in workloads)

    def test_singlecore_cycles_through_pool(self):
        workloads = singlecore_workloads(30)
        names = [w[0] for w in workloads]
        assert len(set(names)) == 22  # full pool before repeating

    def test_invalid_counts_raise(self):
        with pytest.raises(ValueError):
            multicore_mixes(0)
        with pytest.raises(ValueError):
            singlecore_workloads(0)


class TestMeans:
    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_geometric_mean_single(self):
        assert geometric_mean([3.0]) == 3.0

    @pytest.mark.parametrize("fn", [geometric_mean])
    def test_empty_raises(self, fn):
        with pytest.raises(ValueError):
            fn([])

    @pytest.mark.parametrize("fn", [geometric_mean])
    def test_non_positive_raises(self, fn):
        with pytest.raises(ValueError):
            fn([1.0, 0.0])

    def test_geometric_mean_many_large_values_no_overflow(self):
        # A running product of these overflows float64 after ~16 terms;
        # the log-sum formulation must return the exact mean anyway.
        values = [1e20] * 1000
        assert geometric_mean(values) == pytest.approx(1e20, rel=1e-12)

    def test_geometric_mean_many_tiny_values_no_underflow(self):
        values = [1e-20] * 1000
        assert geometric_mean(values) == pytest.approx(1e-20, rel=1e-12)

    def test_geometric_mean_mixed_large_speedups(self):
        # 500 speedups of 100x and 500 of 0.01x cancel to exactly 1.0.
        values = [100.0] * 500 + [0.01] * 500
        assert geometric_mean(values) == pytest.approx(1.0, rel=1e-9)
