"""Equivalence tests: the event-heap engine vs the poll-loop oracle.

``SystemSimulator.run`` must be bit-identical to the retired
cycle-polling loop (``tests/oracles/sim_poll.py`` — the same oracle
pattern the vectorised fault engine uses): identical ``SystemResult``s
and identical traced event streams across randomized configurations.
The one intentional divergence is backpressure fairness, covered by its
own regression test.
"""

from dataclasses import asdict

from hypothesis import given, settings, strategies as st

from repro import obs
from repro.mc.controller import RefreshSettings, TestTrafficSettings
from repro.mc.scheduler import FrFcfsScheduler, SchedulerConfig
from repro.sim.core import CoreConfig
from repro.sim.system import SystemConfig, SystemSimulator
from repro.traces.spec import get_benchmark
from tests.oracles.sim_poll import poll_run

BENCH_POOL = ["mcf", "tonto", "libquantum", "gcc"]


def _config(channels, tests, reduction):
    return SystemConfig(
        channels=channels,
        refresh=RefreshSettings(base_interval_ms=16.0, reduction=reduction),
        test_traffic=TestTrafficSettings(concurrent_tests=tests),
    )


def _simulate(simulator, window_ns, engine):
    """Run ``simulator`` with the event loop or the poll-loop oracle."""
    if engine == "poll":
        return poll_run(simulator, window_ns)
    return simulator.run(window_ns)


def _run(engine, bench_names, config, seed, window_ns, traced=False):
    """One fresh simulator run; returns (result dict, trace records)."""
    benchmarks = [get_benchmark(name) for name in bench_names]
    simulator = SystemSimulator(benchmarks, config, seed=seed)
    records = []
    if traced:
        sink = obs.ListTraceSink()
        previous = obs.set_sink(sink)
        try:
            result = _simulate(simulator, window_ns, engine)
        finally:
            obs.set_sink(previous)
        records = sink.records
    else:
        result = _simulate(simulator, window_ns, engine)
    return (
        {
            "window_ns": result.window_ns,
            "cores": [asdict(core) for core in result.cores],
            "refreshes_issued": result.refreshes_issued,
            "refresh_busy_fraction": result.refresh_busy_fraction,
            "row_hit_rate": result.row_hit_rate,
        },
        records,
    )


class TestEngineMatchesOracle:
    @settings(max_examples=12, deadline=None)
    @given(
        benches=st.lists(st.sampled_from(BENCH_POOL), min_size=1, max_size=3),
        channels=st.integers(1, 2),
        tests=st.sampled_from([0, 2]),
        reduction=st.sampled_from([0.0, 0.6]),
        seed=st.integers(0, 2**16),
        window_us=st.integers(5, 20),
    )
    def test_results_identical(
        self, benches, channels, tests, reduction, seed, window_us
    ):
        window_ns = window_us * 1_000.0
        config = _config(channels, tests, reduction)
        expected, _ = _run("poll", benches, config, seed, window_ns)
        got, _ = _run("event", benches, config, seed, window_ns)
        assert got == expected

    @settings(max_examples=6, deadline=None)
    @given(
        benches=st.lists(st.sampled_from(BENCH_POOL), min_size=1, max_size=2),
        channels=st.integers(1, 2),
        tests=st.sampled_from([0, 2]),
        seed=st.integers(0, 2**16),
    )
    def test_traced_streams_identical(self, benches, channels, tests, seed):
        config = _config(channels, tests, 0.0)
        expected, expected_records = _run(
            "poll", benches, config, seed, 10_000.0, traced=True
        )
        got, got_records = _run(
            "event", benches, config, seed, 10_000.0, traced=True
        )
        assert got == expected
        assert got_records == expected_records

    def test_zero_request_window_identical(self):
        # A window shorter than any core's first arrival: the engines
        # must agree on a run where only refresh events exist.
        config = SystemConfig(core=CoreConfig())
        expected, _ = _run("poll", ["tonto"], config, 3, 50.0)
        got, _ = _run("event", ["tonto"], config, 3, 50.0)
        assert got == expected
        assert all(core["reads_completed"] == 0 for core in got["cores"])


class TestHoldbackFairness:
    """The per-core holdback fix: backpressure must not starve cores.

    The poll loop's global ``while not holdback`` guard stopped polling
    *every* later core once one request was refused; the event engine
    gives each core its own holdback queue.
    """

    def _run_congested(self, engine):
        registry = obs.MetricsRegistry(enabled=True)
        previous = obs.set_registry(registry)
        try:
            benchmarks = [get_benchmark("mcf")] * 4
            simulator = SystemSimulator(benchmarks, SystemConfig(), seed=11)
            # Near-zero queue capacity forces refusals under 4 mcf cores.
            # (Built after set_registry: schedulers bind counters at init.)
            for controller in simulator.controllers:
                controller.scheduler = FrFcfsScheduler(SchedulerConfig(
                    write_queue_drain_threshold=2,
                    read_queue_capacity=2,
                    write_queue_capacity=2,
                ))
            result = _simulate(simulator, 100_000.0, engine)
        finally:
            obs.set_registry(previous)
        rejected = registry.counter("mc.sched.rejected").value
        return result, rejected

    def test_backpressure_reaches_every_core(self):
        result, rejected = self._run_congested("event")
        assert rejected > 0, "config failed to trigger backpressure"
        # The fix's guarantee: no core is starved outright.
        for core in result.cores:
            assert core.reads_completed > 0

    def test_poll_oracle_starves_later_cores(self):
        # Documents the defect the fix removes: under the same load the
        # global-holdback loop never lets the last cores issue at all.
        event_result, _ = self._run_congested("event")
        poll_result, _ = self._run_congested("poll")
        poll_reads = [core.reads_completed for core in poll_result.cores]
        event_reads = [core.reads_completed for core in event_result.cores]
        assert min(poll_reads) == 0
        assert min(event_reads) > min(poll_reads)
