"""Integration tests for the full-system performance simulator."""

from dataclasses import asdict

import pytest

from repro.mc.controller import RefreshSettings, TestTrafficSettings
from repro.sim.system import (
    SystemConfig,
    SystemSimulator,
    simulate_workload,
)
from repro.sim.metrics import speedup
from repro.traces.spec import get_benchmark

WINDOW_NS = 60_000.0


class TestBasicRuns:
    def test_single_core_runs(self):
        result = simulate_workload(["mcf"], window_ns=WINDOW_NS, seed=1)
        assert len(result.cores) == 1
        assert result.cores[0].ipc > 0
        assert result.cores[0].reads_completed > 0

    def test_four_core_runs(self):
        result = simulate_workload(
            ["mcf", "lbm", "gcc", "omnetpp"], window_ns=WINDOW_NS, seed=1,
        )
        assert len(result.cores) == 4
        assert all(core.ipc > 0 for core in result.cores)

    def test_deterministic_for_seed(self):
        a = simulate_workload(["mcf"], window_ns=WINDOW_NS, seed=4)
        b = simulate_workload(["mcf"], window_ns=WINDOW_NS, seed=4)
        assert a.cores[0].ipc == b.cores[0].ipc

    def test_compute_bound_core_at_peak_ipc(self):
        result = simulate_workload(["perlbench"], window_ns=WINDOW_NS, seed=1)
        # perlbench (MPKI 1.1) barely touches memory: IPC near 4-wide peak.
        assert result.cores[0].ipc > 3.5

    def test_memory_bound_core_below_peak(self):
        result = simulate_workload(["mcf"], window_ns=WINDOW_NS, seed=1)
        assert result.cores[0].ipc < 1.5


class TestRefreshEffects:
    def test_refresh_busy_fraction_matches_duty_cycle(self):
        result = simulate_workload(["perlbench"], density_gbit=32,
                                   window_ns=WINDOW_NS, seed=1)
        # tRFC / tREFI = 890 / 1953 = 45.6%.
        assert result.refresh_busy_fraction == pytest.approx(0.456, abs=0.02)

    def test_reduction_lowers_busy_fraction(self):
        base = simulate_workload(["mcf"], density_gbit=32,
                                 window_ns=WINDOW_NS, seed=1)
        reduced = simulate_workload(["mcf"], density_gbit=32,
                                    refresh_reduction=0.75,
                                    window_ns=WINDOW_NS, seed=1)
        assert reduced.refresh_busy_fraction == pytest.approx(
            base.refresh_busy_fraction / 4.0, rel=0.1,
        )

    def test_memory_bound_speedup_from_reduction(self):
        base = simulate_workload(["mcf"], density_gbit=32,
                                 window_ns=WINDOW_NS, seed=1)
        memcon = simulate_workload(["mcf"], density_gbit=32,
                                   refresh_reduction=0.75,
                                   window_ns=WINDOW_NS, seed=1)
        assert speedup(memcon, base) > 1.2

    def test_compute_bound_insensitive_to_refresh(self):
        base = simulate_workload(["perlbench"], density_gbit=32,
                                 window_ns=WINDOW_NS, seed=1)
        memcon = simulate_workload(["perlbench"], density_gbit=32,
                                   refresh_reduction=0.75,
                                   window_ns=WINDOW_NS, seed=1)
        assert speedup(memcon, base) == pytest.approx(1.0, abs=0.15)

    def test_speedup_grows_with_density(self):
        speedups = {}
        for density in (8, 32):
            base = simulate_workload(["mcf"], density_gbit=density,
                                     window_ns=WINDOW_NS, seed=1)
            memcon = simulate_workload(["mcf"], density_gbit=density,
                                       refresh_reduction=0.75,
                                       window_ns=WINDOW_NS, seed=1)
            speedups[density] = speedup(memcon, base)
        assert speedups[32] > speedups[8]


class TestTestTraffic:
    def test_tests_conserved_across_channels(self):
        # 10 tests over 3 channels used to floor-divide to 3+3+3 and drop
        # one; the remainder now lands on the leading channels.
        config = SystemConfig(
            channels=3,
            test_traffic=TestTrafficSettings(concurrent_tests=10),
        )
        sim = SystemSimulator([get_benchmark("mcf")], config)
        per_channel = [
            c.test_traffic.concurrent_tests for c in sim.controllers
        ]
        assert sum(per_channel) == 10
        assert per_channel == [4, 3, 3]

    def test_even_split_unchanged(self):
        config = SystemConfig(
            channels=2,
            test_traffic=TestTrafficSettings(concurrent_tests=8),
        )
        sim = SystemSimulator([get_benchmark("mcf")], config)
        assert [
            c.test_traffic.concurrent_tests for c in sim.controllers
        ] == [4, 4]

    def test_testing_slows_down_slightly(self):
        free = simulate_workload(["mcf"], refresh_reduction=0.66,
                                 concurrent_tests=0,
                                 window_ns=WINDOW_NS, seed=1)
        testing = simulate_workload(["mcf"], refresh_reduction=0.66,
                                    concurrent_tests=1024,
                                    window_ns=WINDOW_NS, seed=1)
        ratio = speedup(testing, free)
        assert 0.9 < ratio <= 1.01


class TestResultApi:
    def test_row_hit_rate_bounded(self):
        result = simulate_workload(["lbm"], window_ns=WINDOW_NS, seed=1)
        assert 0.0 <= result.row_hit_rate <= 1.0

    def test_weighted_speedup_identity(self):
        result = simulate_workload(["mcf", "lbm"], window_ns=WINDOW_NS,
                                   seed=1)
        assert result.weighted_speedup_vs(result) == pytest.approx(2.0)

    def test_zero_ipc_baseline_rejected(self):
        # A dead baseline core used to be skipped silently, shrinking the
        # weighted sum and understating every comparison against it.
        result = simulate_workload(["mcf", "lbm"], window_ns=WINDOW_NS,
                                   seed=1)
        broken = simulate_workload(["mcf", "lbm"], window_ns=WINDOW_NS,
                                   seed=1)
        broken.cores[1].ipc = 0.0
        with pytest.raises(ValueError, match="zero IPC"):
            result.weighted_speedup_vs(broken)

    def test_mismatched_core_counts_raise(self):
        one = simulate_workload(["mcf"], window_ns=WINDOW_NS, seed=1)
        two = simulate_workload(["mcf", "lbm"], window_ns=WINDOW_NS, seed=1)
        with pytest.raises(ValueError):
            two.weighted_speedup_vs(one)

    def test_empty_benchmarks_raise(self):
        with pytest.raises(ValueError):
            SystemSimulator([], SystemConfig())

    def test_invalid_window_raises(self):
        sim = SystemSimulator([get_benchmark("mcf")], SystemConfig())
        with pytest.raises(ValueError):
            sim.run(0.0)


class TestStreamReplay:
    """Runs sharing a stream map replay each other's request streams."""

    MIX = ["mcf", "libquantum", "gcc", "tonto"]
    #: A baseline, then runs that differ in refresh, test traffic,
    #: density and channel count, in the order an experiment makes them.
    RUNS = (
        {},
        {"refresh_reduction": 0.75, "concurrent_tests": 256},
        {"density_gbit": 32},
        {"channels": 2},
    )

    def _results(self, streams):
        return [
            asdict(simulate_workload(self.MIX, window_ns=20_000.0, seed=5,
                                     streams=streams, **kwargs))
            for kwargs in self.RUNS
        ]

    def test_shared_map_matches_fresh_streams(self):
        streams = {}
        assert self._results(streams) == self._results(None)
        # One stream per core for each channel count.
        assert len(streams) == 8
