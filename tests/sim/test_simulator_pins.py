"""Exact results of four short simulator runs, floats included.

``test_engine_equivalence`` holds ``SystemSimulator.run`` to the poll
loop, but the poll loop drives the same controller, scheduler and cores,
so a change that shifts both engines together passes it. These pins
catch such a shift: each case's ``asdict(SystemResult)`` must match the
values recorded before the simulator's hot path was rewritten, bit for
bit. The cases cover one core, four cores sharing one channel with
MEMCON test traffic, four cores over two channels, and four cores whose
tiny queues refuse requests (the per-core holdback path, where the
event loop deliberately differs from the poll loop).
"""

from dataclasses import asdict

import pytest

from repro import obs
from repro.mc.scheduler import FrFcfsScheduler, SchedulerConfig
from repro.sim.system import SystemConfig, SystemSimulator, simulate_workload
from repro.traces.spec import get_benchmark

CASES = {
    "one_core": dict(
        benchmark_names=["mcf"], window_ns=30_000.0, seed=1,
    ),
    "four_core_32gb": dict(
        benchmark_names=["mcf", "libquantum", "gcc", "tonto"],
        density_gbit=32, refresh_reduction=0.75, concurrent_tests=256,
        window_ns=30_000.0, seed=2,
    ),
    "four_core_two_channels": dict(
        benchmark_names=["lbm", "mcf", "omnetpp", "soplex"],
        refresh_reduction=0.66, concurrent_tests=1024, channels=2,
        window_ns=30_000.0, seed=3,
    ),
}

PINNED = {
    "one_core": {
        "cores": [
            {"benchmark": "mcf",
             "instructions": 63916.00494800258,
             "ipc": 0.5326333745666881,
             "mean_read_latency_ns": 93.9828746751651,
             "reads_completed": 3242},
        ],
        "refresh_busy_fraction": 0.175,
        "refreshes_issued": 15,
        "row_hit_rate": 0.2848904267589389,
        "window_ns": 30000.0,
    },
    "four_core_32gb": {
        "cores": [
            {"benchmark": "mcf",
             "instructions": 23457.97211827254,
             "ipc": 0.1954831009856045,
             "mean_read_latency_ns": 213.6657837958713,
             "reads_completed": 1192},
            {"benchmark": "libquantum",
             "instructions": 49536.28190927118,
             "ipc": 0.4128023492439265,
             "mean_read_latency_ns": 258.38715334008907,
             "reads_completed": 971},
            {"benchmark": "gcc",
             "instructions": 195399.2627507819,
             "ipc": 1.6283271895898492,
             "mean_read_latency_ns": 205.89882281045396,
             "reads_completed": 1159},
            {"benchmark": "tonto",
             "instructions": 440864.20764513884,
             "ipc": 3.6738683970428236,
             "mean_read_latency_ns": 239.8723074666181,
             "reads_completed": 327},
        ],
        "refresh_busy_fraction": 0.089,
        "refreshes_issued": 3,
        "row_hit_rate": 0.4794159399716082,
        "window_ns": 30000.0,
    },
    "four_core_two_channels": {
        "cores": [
            {"benchmark": "lbm",
             "instructions": 65140.439855087505,
             "ipc": 0.5428369987923959,
             "mean_read_latency_ns": 225.40997783363477,
             "reads_completed": 1118},
            {"benchmark": "mcf",
             "instructions": 35277.89989727308,
             "ipc": 0.2939824991439423,
             "mean_read_latency_ns": 146.59901964418415,
             "reads_completed": 1842},
            {"benchmark": "omnetpp",
             "instructions": 125719.19577679466,
             "ipc": 1.047659964806622,
             "mean_read_latency_ns": 152.4555522670876,
             "reads_completed": 1715},
            {"benchmark": "soplex",
             "instructions": 73219.50699552213,
             "ipc": 0.6101625582960177,
             "mean_read_latency_ns": 157.0333490524398,
             "reads_completed": 1679},
        ],
        "refresh_busy_fraction": 0.058333333333333334,
        "refreshes_issued": 10,
        "row_hit_rate": 0.40422477440525023,
        "window_ns": 30000.0,
    },
    "congested": {
        "cores": [
            {"benchmark": "mcf",
             "instructions": 44865.42476087236,
             "ipc": 0.3738785396739363,
             "mean_read_latency_ns": 13363.653859432365,
             "reads_completed": 2213},
            {"benchmark": "mcf",
             "instructions": 1073.1628757012502,
             "ipc": 0.008943023964177085,
             "mean_read_latency_ns": 16693.618295490593,
             "reads_completed": 45},
            {"benchmark": "mcf",
             "instructions": 130.5125228562795,
             "ipc": 0.0010876043571356625,
             "mean_read_latency_ns": 13640.880795495534,
             "reads_completed": 4},
            {"benchmark": "mcf",
             "instructions": 56.53666631630982,
             "ipc": 0.0004711388859692485,
             "mean_read_latency_ns": 12638.948897161072,
             "reads_completed": 4},
        ],
        "refresh_busy_fraction": 0.175,
        "refreshes_issued": 15,
        "row_hit_rate": 0.31835686777920413,
        "window_ns": 30000.0,
    },
}


def _congested_run():
    """Four mcf cores on queues of two: requests are refused."""
    simulator = SystemSimulator([get_benchmark("mcf")] * 4, SystemConfig(),
                                seed=11)
    for controller in simulator.controllers:
        controller.scheduler = FrFcfsScheduler(SchedulerConfig(
            write_queue_drain_threshold=2,
            read_queue_capacity=2,
            write_queue_capacity=2,
        ))
    return simulator.run(30_000.0)


def _simulate(case):
    if case == "congested":
        return _congested_run()
    return simulate_workload(**CASES[case])


@pytest.mark.parametrize("case", sorted(PINNED))
def test_result_matches_pin(case):
    # Plain ==: the floats must be identical, not merely close.
    assert asdict(_simulate(case)) == PINNED[case]


def test_pinned_runs_exercise_every_queue_path():
    """The pins are only as strong as the paths their runs take."""
    registry = obs.MetricsRegistry(enabled=True)
    previous = obs.set_registry(registry)
    try:
        for case in PINNED:
            _simulate(case)
    finally:
        obs.set_registry(previous)
    for name in ("mc.sched.write_drains", "mc.sched.rejected",
                 "mc.test_requests_served", "mc.refreshes_issued"):
        assert registry.counter(name).value > 0, name
