"""Figure 7 bench: write-interval distributions of the traced workloads.

Also times what every trace experiment pays first: generating the twelve
seed-1 workload traces at paper scale. Their writes must match a pinned
digest, so the recorded rate is the rate of producing the same traces.
"""

import hashlib
import time

import numpy as np

from repro.experiments.runner import run_experiments
from repro.traces.generator import clear_trace_cache, generate_trace
from repro.traces.workloads import WORKLOADS

#: Write count and sha256 (page id as int64, then write times as float64,
#: page by page in ``writes`` order, trace by trace in ``WORKLOADS``
#: order) of the twelve seed-1 traces at their profiles' full windows.
TRACES_SEED1 = (
    10_446_637,
    "2cd765e089e773d01a618220741acf5cb34d8c3cea3256a6edc1958a102e71e6",
)


def test_bench_fig07_interval_distribution(run_once):
    result = run_once(run_experiments, ["fig07"], quick=True, seed=1)[0]
    for row in result.rows:
        assert float(row["<1ms"].rstrip("%")) > 95.0
    print(result.to_text())


def test_bench_trace_generation_seed1(run_once, record_bench):
    def generate():
        clear_trace_cache()
        started = time.process_time()
        traces = [generate_trace(profile, seed=1)
                  for profile in WORKLOADS.values()]
        return traces, time.process_time() - started

    try:
        traces, cpu_s = run_once(generate)
    finally:
        clear_trace_cache()
    digest = hashlib.sha256()
    for trace in traces:
        for page, times in trace.writes.items():
            digest.update(np.int64(page).tobytes())
            digest.update(np.asarray(times, dtype="<f8").tobytes())
    writes = sum(trace.n_writes for trace in traces)
    assert (writes, digest.hexdigest()) == TRACES_SEED1
    record_bench(
        "trace_generation_seed1",
        traces=len(traces),
        pages=sum(len(trace.writes) for trace in traces),
        writes=writes,
        cpu_s=round(cpu_s, 4),
        writes_per_s=round(writes / cpu_s),
    )
