"""Simulator engine bench: the event loop vs the poll-loop oracle.

Times the same simulation twice — ``SystemSimulator.run`` (the
discrete-event loop over a flat per-actor calendar) against
``poll_run`` from ``tests/oracles/sim_poll.py`` (the retired
poll-everything loop kept as the equivalence oracle) — and records wall
clock, loop iterations and events/sec per engine into
``BENCH_sim.json``. The oracle import needs the repository root on
``sys.path``: run this file from the root with ``python -m pytest``.

Honest numbers, recorded PR-4 style: bit-identity with the oracle pins
the event engine to the *same instant grid* the poll loop walks (the
tCK-floor advance rule is observable through RNG draw order), so the
structural win is per-iteration cost — only due actors are visited, and
finding them is one comparison per actor — not a smaller iteration
count. On small single-channel configs that is parity-to-modest; it
grows with idle actors (multi-channel, many cores). A >= 5x target is
unattainable under bit-identity, and the gate here is a no-regression
bound plus exact result equality; the trajectory file keeps the
measured reality.
"""

import os
import time
from dataclasses import asdict

from repro import obs
from repro.mc.controller import RefreshSettings, TestTrafficSettings
from repro.sim.system import SystemConfig, SystemSimulator
from repro.traces.spec import get_benchmark
from tests.oracles.sim_poll import poll_run

BENCH_SIM_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "BENCH_sim.json"
)

SCENARIOS = {
    # fig15/table3 shape: 4 cores, one channel, MEMCON test traffic.
    "sim_engine_fig15_4core": dict(
        benches=["mcf", "libquantum", "gcc", "tonto"],
        channels=1,
        tests=4,
        window_ns=100_000.0,
    ),
    # The engine's favourable regime: many mostly-idle actors.
    "sim_engine_8core_4ch": dict(
        benches=["mcf", "tonto", "gcc", "libquantum"] * 2,
        channels=4,
        tests=0,
        window_ns=100_000.0,
    ),
}


def _simulator(spec, seed=1):
    config = SystemConfig(
        channels=spec["channels"],
        refresh=RefreshSettings(base_interval_ms=16.0, reduction=0.0),
        test_traffic=TestTrafficSettings(concurrent_tests=spec["tests"]),
    )
    benchmarks = [get_benchmark(name) for name in spec["benches"]]
    return SystemSimulator(benchmarks, config, seed=seed)


def _timed_run(spec, engine):
    """(result, wall seconds, loop iterations) for one fresh run."""
    registry = obs.MetricsRegistry(enabled=True)
    previous = obs.set_registry(registry)
    try:
        simulator = _simulator(spec)
        started = time.perf_counter()
        if engine == "poll":
            result = poll_run(simulator, spec["window_ns"])
        else:
            result = simulator.run(spec["window_ns"])
        wall_s = time.perf_counter() - started
    finally:
        obs.set_registry(previous)
    return result, wall_s, registry.counter("sim.loop_iterations").value


def test_bench_sim_engines(record_bench):
    for name, spec in SCENARIOS.items():
        event_result, event_s, event_iters = _timed_run(spec, "event")
        poll_result, poll_s, poll_iters = _timed_run(spec, "poll")
        # Correctness before speed: the engines must agree exactly.
        assert asdict(event_result) == asdict(poll_result)

        speedup = poll_s / event_s if event_s > 0 else 0.0
        # No-regression bound (generous: 1-cpu CI boxes are noisy).
        # Bit-identity caps the upside — see the module docstring — so
        # the gate guards against the event engine losing ground, not
        # for a multiple the instant grid cannot produce.
        assert speedup >= 0.6, (
            f"{name}: event engine regressed vs poll oracle "
            f"({event_s:.3f}s vs {poll_s:.3f}s)"
        )
        record_bench(
            name,
            path=BENCH_SIM_PATH,
            cores=len(spec["benches"]),
            channels=spec["channels"],
            window_ns=spec["window_ns"],
            event_s=round(event_s, 6),
            event_iterations=event_iters,
            event_iters_per_s=round(event_iters / event_s, 1),
            poll_s=round(poll_s, 6),
            poll_iterations=poll_iters,
            poll_iters_per_s=round(poll_iters / poll_s, 1),
            speedup=round(speedup, 3),
        )
