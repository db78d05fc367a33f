"""Parallel-execution bench: sharded fig14 vs serial, recorded honestly.

Measures the end-to-end unit path (decompose -> pool dispatch -> merge)
for the heaviest decomposable experiment and records serial vs
``--jobs 4`` wall clock into ``BENCH_parallel.json`` together with the
CPU count it was measured on. The >= 2.5x speedup assertion only fires
on machines with >= 4 cores — on smaller boxes the numbers are still
recorded (a 1-core container cannot speed up CPU-bound work, and the
trajectory file should say so rather than flatter).
"""

import os
import time

from repro.parallel import ParallelExecutor, decompose, merge_payloads
from repro.traces.generator import clear_trace_cache

BENCH_PARALLEL_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir,
    "BENCH_parallel.json",
)

JOBS = 4
EXPERIMENT = "fig14"


def _run_units(jobs):
    # Both legs start cold: forked workers would otherwise inherit the
    # traces the serial leg left in this process's trace cache.
    clear_trace_cache()
    units = decompose(EXPERIMENT, quick=True, seed=1)
    started = time.perf_counter()
    with ParallelExecutor(jobs, quick=True, seed=1) as executor:
        payloads, stats = executor.run_units(units)
    wall_s = time.perf_counter() - started
    result = merge_payloads(EXPERIMENT, payloads, quick=True, seed=1)
    return result, stats, wall_s


def test_bench_parallel_speedup(record_bench):
    serial_result, _, serial_s = _run_units(1)
    sharded_result, stats, sharded_s = _run_units(JOBS)

    # Correctness before speed: the sharded table is the serial table.
    assert sharded_result.to_text() == serial_result.to_text()
    assert stats.degraded == 0

    speedup = serial_s / sharded_s if sharded_s > 0 else 0.0
    cpus = record_bench(
        f"parallel_{EXPERIMENT}_jobs{JOBS}",
        path=BENCH_PARALLEL_PATH,
        serial_s=round(serial_s, 3),
        sharded_s=round(sharded_s, 3),
        speedup=round(speedup, 3),
        units=len(decompose(EXPERIMENT, quick=True, seed=1)),
        jobs=JOBS,
    )["cpus"]
    print(
        f"{EXPERIMENT}: serial {serial_s:.2f}s, jobs={JOBS} {sharded_s:.2f}s "
        f"(speedup {speedup:.2f}x on {cpus} cpus)"
    )
    if cpus >= 4:
        # Four workers over twelve CPU-bound units: the pool must win big.
        assert speedup >= 2.5
