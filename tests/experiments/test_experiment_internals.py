"""Micro-scale tests for the simulator-driven experiment internals.

The full fig15/fig16/table3 sweeps run in the benchmark suite; these
tests exercise their helper functions and registries directly with tiny
inputs so the experiment code paths stay covered by the fast suite.
"""

import inspect
import random

import pytest

from repro.experiments import common, fig15, fig16, table3
from repro.experiments.common import mean_speedups, percent
from repro.sim.metrics import geometric_mean, speedup
from repro.sim.system import CoreResult, SystemResult, simulate_workload
from repro.sim.workloads import multicore_mixes, singlecore_workloads


def _configuration(*args, **kwargs):
    """A ``simulate_workload`` call's arguments, defaults applied. The
    stream map is left out: it replays requests, and configures nothing."""
    bound = inspect.signature(simulate_workload).bind(*args, **kwargs)
    bound.apply_defaults()
    del bound.arguments["streams"]
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
        (mean,) = mean_speedups(
            singlecore_workloads(1, seed=1), {"density_gbit": 32},
            [{"density_gbit": 32, "refresh_reduction": 0.75,
              "concurrent_tests": fig15.CONCURRENT_TESTS}],
            window_ns=30_000.0, seed=1,
        )
        assert mean > 1.0

    @pytest.mark.parametrize("key", [
        "fig15:c1-d8", "fig15:c4-d32", "fig16:c1-d8", "fig16:c4-d16",
        "table3:c1-ch1", "table3:c4-ch2",
    ])
    def test_run_unit_simulates_each_configuration_once(
        self, monkeypatch, key
    ):
        """fig15, fig16 and table3 all run their units through one sweep
        (``common.mean_speedups``); the calls it makes, and their order,
        fix the unit's table and its ``--trace`` records."""
        calls = []
        maps = set()

        def recording(*args, **kwargs):
            config = _configuration(*args, **kwargs)
            calls.append(config)
            maps.add(id(kwargs["streams"]))
            return _fake_result(config)

        monkeypatch.setattr(common, "simulate_workload", recording)
        experiment = key.split(":")[0]
        module = {"fig15": fig15, "fig16": fig16, "table3": table3}[experiment]
        unit = next(u for u in module.units() if u.key == key)
        row = module.run_unit(unit, quick=True, seed=1)["row"]

        # The unit's base run, and the run behind each column of its row,
        # as simulate_workload keywords.
        params = unit.params
        if experiment == "table3":
            fixed = {"refresh_reduction": table3.MEMCON_REDUCTION,
                     "channels": params["channels"]}
            base = {**fixed, "concurrent_tests": 0}
            columns = {
                f"tests_{tests}": {**fixed, "concurrent_tests": tests}
                for tests in table3.CONCURRENT_TESTS
            }
        else:
            density = params["density"]
            base = {"density_gbit": density}
            mechanisms = (
                [(f"speedup_{int(reduction * 100)}pct", reduction,
                  fig15.CONCURRENT_TESTS) for reduction in fig15.REDUCTIONS]
                if experiment == "fig15" else fig16.MECHANISMS
            )
            columns = {
                label: {"density_gbit": density,
                        "refresh_reduction": reduction,
                        "concurrent_tests": tests}
                for label, reduction, tests in mechanisms
            }
        workloads = (
            singlecore_workloads(6, seed=1) if params["cores"] == 1
            else multicore_mixes(6, seed=1)
        )

        def run(i, keywords):
            return _configuration(workloads[i], window_ns=100_000.0,
                                  seed=1 + i, **keywords)

        # Every workload's base run first, then each configuration over
        # every workload: no run repeated, all replaying one stream map.
        indices = range(len(workloads))
        assert calls == [run(i, base) for i in indices] + [
            run(i, keywords) for keywords in columns.values()
            for i in indices
        ]
        assert len(set(calls)) == len(calls)
        assert len(maps) == 1
        # Each column pairs its runs with the base runs of their workloads.
        for label, keywords in columns.items():
            mean = geometric_mean([
                speedup(_fake_result(run(i, keywords)),
                        _fake_result(run(i, base)))
                for i in indices
            ])
            assert row[label] == (
                percent(1.0 - mean, 2) if experiment == "table3" else mean
            )


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
