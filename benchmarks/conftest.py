"""Shared benchmark helpers.

Every benchmark regenerates one of the paper's tables or figures via its
experiment module and asserts the claim's *shape* (who wins, by roughly
what factor). Heavy experiments run one pedantic round; analytic ones
benchmark normally.

Headline numbers land in ``BENCH_obs.json`` at the repository root (via
the ``record_bench`` fixture) so successive PRs accumulate a measured
perf trajectory instead of prose claims. Re-recording an entry keeps
the previous values in its ``history`` list (newest last, capped at
``HISTORY_LIMIT``) instead of overwriting them, so the trajectory
survives repeated local runs; ``python -m repro.obs.compare`` diffs the
latest values of two such files.
"""

import json
import os
import time

import pytest

from repro import obs

#: The committed perf-trajectory file, next to this directory.
BENCH_OBS_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "BENCH_obs.json"
)

#: Prior recordings kept per entry (newest last).
HISTORY_LIMIT = 20


@pytest.fixture
def run_once(benchmark):
    """Run a callable exactly once under the benchmark clock."""

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1)

    return runner


@pytest.fixture
def obs_env():
    """Fresh enabled registry + in-memory sink, restored afterwards."""
    registry = obs.MetricsRegistry(enabled=True)
    sink = obs.ListTraceSink()
    previous_registry = obs.set_registry(registry)
    previous_sink = obs.set_sink(sink)
    try:
        yield registry, sink
    finally:
        obs.set_registry(previous_registry)
        obs.set_sink(previous_sink)


@pytest.fixture
def record_bench():
    """Merge one named entry into a BENCH_*.json trajectory file.

    Entries land in ``BENCH_obs.json`` unless ``path=`` points elsewhere
    (the parallel-execution benchmarks keep their own
    ``BENCH_parallel.json``). Every entry records the worker count it
    was measured with (``jobs``, default 1) and the CPUs the process
    could run on (``cpus``), so sharded and serial numbers, and numbers
    from machines of different sizes, are never conflated in the
    history. Returns the recorded entry.
    """

    def recorder(name, path=BENCH_OBS_PATH, **fields):
        path = os.path.abspath(path)
        data = {}
        if os.path.exists(path):
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    data = json.load(handle)
            except (OSError, json.JSONDecodeError):
                data = {}
        entry = dict(fields)
        entry.setdefault("jobs", 1)
        entry.setdefault("cpus", len(os.sched_getaffinity(0)))
        entry["recorded_at"] = time.strftime("%Y-%m-%dT%H:%M:%S")
        # Append, don't overwrite: the displaced entry joins the new
        # entry's history so the measured trajectory accumulates.
        previous = data.get(name)
        if isinstance(previous, dict):
            history = previous.pop("history", [])
            history.append(previous)
            entry["history"] = history[-HISTORY_LIMIT:]
        data[name] = entry
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle, indent=2, sort_keys=True)
            handle.write("\n")
        return entry

    return recorder
