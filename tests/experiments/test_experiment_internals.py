"""Micro-scale tests for the simulator-driven experiment internals.

The full fig15/fig16/table3 sweeps run in the benchmark suite; these
tests exercise their helper functions and registries directly with tiny
inputs so the experiment code paths stay covered by the fast suite.
"""

import inspect
import random

import pytest

from repro.experiments import fig15, fig16, table3
from repro.sim.metrics import geometric_mean, speedup
from repro.sim.system import CoreResult, SystemResult, simulate_workload
from repro.sim.workloads import multicore_mixes, singlecore_workloads


def _configuration(*args, **kwargs):
    """A ``simulate_workload`` call's arguments, defaults applied."""
    bound = inspect.signature(simulate_workload).bind(*args, **kwargs)
    bound.apply_defaults()
    return tuple(
        (name, tuple(value) if isinstance(value, list) else value)
        for name, value in bound.arguments.items()
    )


def _fake_result(configuration):
    """A result that differs between configurations, and is fixed for each."""
    rng = random.Random(repr(configuration))
    names = dict(configuration)["benchmark_names"]
    return SystemResult(
        window_ns=100_000.0,
        cores=[
            CoreResult(benchmark=name, instructions=1.0,
                       ipc=rng.uniform(0.5, 2.0), reads_completed=1,
                       mean_read_latency_ns=1.0)
            for name in names
        ],
        refreshes_issued=0, refresh_busy_fraction=0.0, row_hit_rate=0.0,
    )


class TestFig15Internals:
    def test_paper_targets_complete(self):
        # Every (cores, reduction, density) combination has a target.
        assert len(fig15.PAPER_IMPROVEMENT) == 12
        for cores in (1, 4):
            for reduction in fig15.REDUCTIONS:
                for density in fig15.DENSITIES_GBIT:
                    assert (cores, reduction, density) in fig15.PAPER_IMPROVEMENT

    def test_improvement_targets_monotone_in_density(self):
        for cores in (1, 4):
            for reduction in fig15.REDUCTIONS:
                values = [
                    fig15.PAPER_IMPROVEMENT[(cores, reduction, d)]
                    for d in fig15.DENSITIES_GBIT
                ]
                assert values == sorted(values)

    def test_mean_speedup_single_workload(self):
        workloads = singlecore_workloads(1, seed=1)
        baselines = [simulate_workload(
            workloads[0], density_gbit=32, window_ns=30_000.0, seed=1,
        )]
        mean = fig15._mean_speedup(
            workloads, baselines, density=32, reduction=0.75,
            window_ns=30_000.0, seed=1,
        )
        assert mean > 1.0

    @pytest.mark.parametrize("key", ["fig15:c1-d8", "fig15:c4-d32"])
    def test_run_unit_simulates_each_configuration_once(
        self, monkeypatch, key
    ):
        calls = []

        def recording(*args, **kwargs):
            config = _configuration(*args, **kwargs)
            calls.append(config)
            return _fake_result(config)

        monkeypatch.setattr(fig15, "simulate_workload", recording)
        unit = next(u for u in fig15.units() if u.key == key)
        row = fig15.run_unit(unit, quick=True, seed=1)["row"]

        # 6 baselines plus 6 MEMCON runs per reduction, none repeated.
        assert len(calls) == 6 + 6 * len(fig15.REDUCTIONS)
        assert len(set(calls)) == len(calls)
        # The row is the one built by pairing each MEMCON run with a
        # baseline simulated on its own.
        cores, density = unit.params["cores"], unit.params["density"]
        workloads = (
            singlecore_workloads(6, seed=1) if cores == 1
            else multicore_mixes(6, seed=1)
        )
        for reduction in fig15.REDUCTIONS:
            speedups = [
                speedup(
                    _fake_result(_configuration(
                        names, density_gbit=density,
                        refresh_reduction=reduction,
                        concurrent_tests=fig15.CONCURRENT_TESTS,
                        window_ns=100_000.0, seed=1 + i,
                    )),
                    _fake_result(_configuration(
                        names, density_gbit=density, window_ns=100_000.0,
                        seed=1 + i,
                    )),
                )
                for i, names in enumerate(workloads)
            ]
            label = f"speedup_{int(reduction * 100)}pct"
            assert row[label] == geometric_mean(speedups)


class TestFig16Internals:
    def test_mechanism_reductions_ordered(self):
        reductions = [reduction for _, reduction, _ in fig16.MECHANISMS]
        assert reductions == sorted(reductions)

    def test_raidr_reduction_formula(self):
        # 16% HI rows at 4:1 rate ratio -> 63%.
        raidr = dict(
            (label, reduction) for label, reduction, _ in fig16.MECHANISMS
        )["RAIDR"]
        assert raidr == pytest.approx(0.63)

    def test_only_memcon_injects_tests(self):
        testing = {
            label: tests for label, _, tests in fig16.MECHANISMS
        }
        assert testing["MEMCON"] > 0
        assert testing["32ms"] == testing["RAIDR"] == testing["64ms"] == 0


class TestTable3Internals:
    def test_paper_losses_monotone_in_tests(self):
        for cores in (1, 4):
            values = [
                table3.PAPER_LOSS[(cores, n)]
                for n in table3.CONCURRENT_TESTS
            ]
            assert values == sorted(values)

    def test_multicore_losses_below_singlecore(self):
        for n in table3.CONCURRENT_TESTS:
            assert table3.PAPER_LOSS[(4, n)] < table3.PAPER_LOSS[(1, n)]
