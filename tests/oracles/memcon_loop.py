"""The retired per-page MEMCON accounting loop: an equivalence oracle.

:func:`repro.core.memcon.simulate_refresh_reduction` evaluates the
accounting in one vectorised pass and emits its verdict stream from the
pass's own arrays. This module keeps the page-by-page loop it replaced,
which builds the same report and the same stream one page, one test and
one record at a time. The differential suites hold the two to identical
reports and record-for-record identical streams.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro import obs
from repro.core.costmodel import test_cost_ns
from repro.core.memcon import MemconConfig, MemconReport, _memcon_report
from repro.traces.events import WriteTrace


def simulate_refresh_reduction_loop(
    trace: WriteTrace,
    config: MemconConfig,
    failing_page_fraction: float = 0.0,
    seed: int = 0,
) -> MemconReport:
    """The per-page accounting loop, with its verdict event stream.

    Semantics are those of :func:`simulate_refresh_reduction`; with a
    trace sink installed it emits the verdict stream one ``obs.emit`` at
    a time, sorted by ``(t_ms, pril_quantum first)`` and otherwise in
    the order it visits pages and tests.
    """
    rng = np.random.default_rng(seed)
    quantum = config.quantum_ms
    window = trace.duration_ms
    test_ms = config.test_duration_ms
    cost_ns = test_cost_ns(config.test_mode)
    emit_trace = obs.trace_active()
    emit_forensics = emit_trace and obs.forensics_active()
    # (t_ms, order, kind, fields); order ranks pril_quantum events ahead
    # of the tests they predict at the same boundary instant.
    trace_events: List[tuple] = []
    predicted_per_quantum: Dict[int, int] = {}

    lo_time_ms = 0.0
    testing_time_ms = 0.0
    tests_total = 0
    tests_failed = 0
    tests_correct = 0
    tests_mispredicted = 0
    tests_aborted = 0

    written = set(trace.writes)
    for page, times in trace.writes.items():
        if len(times) == 0:
            written.discard(page)
            continue
        page_fails = rng.random() < failing_page_fraction
        quanta = np.floor(times / quantum).astype(np.int64)
        unique, first_idx, counts = np.unique(
            quanta, return_index=True, return_counts=True
        )
        next_write = np.append(times[1:], window)
        for u, idx, count in zip(unique, first_idx, counts):
            if count != 1:
                continue
            boundary = (u + 2) * quantum  # end of the following quantum
            if boundary >= window:
                continue  # the trace ends before PRIL could predict
            if next_write[idx] < boundary:
                continue  # written again before prediction fired
            tests_total += 1
            test_end = boundary + test_ms
            idle_until = next_write[idx]
            if idle_until < test_end:
                tests_aborted += 1
            testing_time_ms += min(test_ms, max(0.0, idle_until - boundary))
            if idle_until - boundary > config.long_interval_ms:
                tests_correct += 1
            else:
                tests_mispredicted += 1
            if emit_trace:
                q_start = int(u) + 2
                predicted_per_quantum[q_start] = (
                    predicted_per_quantum.get(q_start, 0) + 1
                )
                p = int(page)
                if emit_forensics:
                    # The grant and its write-interval evidence: the one
                    # write that qualified the page, and how long the
                    # page actually stayed idle (the trace's future).
                    trace_events.append(
                        (float(boundary), 1, "pril_grant",
                         {"page": p, "quantum": q_start,
                          "write_ms": float(times[idx]),
                          "next_write_ms": float(idle_until)}))
                trace_events.append(
                    (float(boundary), 1, "test_started", {"page": p}))
                trace_events.append((float(boundary), 1, "ref_transition",
                                     {"page": p, "from": "hi_ref",
                                      "to": "testing"}))
                if idle_until < test_end:
                    end = float(idle_until)
                    trace_events.append((end, 1, "test_aborted", {"page": p}))
                    trace_events.append((end, 1, "ref_transition",
                                         {"page": p, "from": "testing",
                                          "to": "hi_ref"}))
                elif page_fails:
                    trace_events.append(
                        (float(test_end), 1, "test_failed", {"page": p}))
                    trace_events.append((float(test_end), 1, "ref_transition",
                                         {"page": p, "from": "testing",
                                          "to": "hi_ref"}))
                else:
                    trace_events.append(
                        (float(test_end), 1, "test_passed", {"page": p}))
                    trace_events.append((float(test_end), 1, "ref_transition",
                                         {"page": p, "from": "testing",
                                          "to": "lo_ref"}))
                    if idle_until < window:
                        trace_events.append(
                            (float(idle_until), 1, "ref_transition",
                             {"page": p, "from": "lo_ref", "to": "hi_ref"}))
            if page_fails:
                if idle_until >= test_end:
                    tests_failed += 1
                continue
            if idle_until > test_end:
                lo_time_ms += min(idle_until, window) - test_end

    # Read-only pages: one test at start-up, then LO-REF for the window.
    n_read_only = trace.total_pages - len(written)
    if config.test_read_only_pages and n_read_only > 0:
        n_ro_failing = int(round(n_read_only * failing_page_fraction))
        n_ro_passing = n_read_only - n_ro_failing
        tests_total += n_read_only
        tests_failed += n_ro_failing
        tests_correct += n_read_only
        testing_time_ms += n_read_only * test_ms
        lo_time_ms += n_ro_passing * max(0.0, window - test_ms)
        if emit_trace:
            ro_pages = [
                p for p in range(trace.total_pages) if p not in written
            ][:n_read_only]
            for i, p in enumerate(ro_pages):
                trace_events.append((0.0, 1, "test_started", {"page": p}))
                trace_events.append((0.0, 1, "ref_transition",
                                     {"page": p, "from": "hi_ref",
                                      "to": "testing"}))
                outcome = "test_failed" if i < n_ro_failing else "test_passed"
                state = "hi_ref" if i < n_ro_failing else "lo_ref"
                trace_events.append(
                    (float(test_ms), 1, outcome, {"page": p}))
                trace_events.append((float(test_ms), 1, "ref_transition",
                                     {"page": p, "from": "testing",
                                      "to": state}))

    if emit_trace:
        for q, n in predicted_per_quantum.items():
            trace_events.append(
                (q * quantum, 0, "pril_quantum",
                 {"quantum": q, "predicted": n, "buffer": n}))
        trace_events.sort(key=lambda e: (e[0], e[1]))
        for t_ms, _, kind, fields in trace_events:
            if kind == "pril_quantum":
                obs.emit(kind, **fields)
            else:
                obs.emit(kind, t_ms=t_ms, **fields)

    return _memcon_report(
        trace, config, cost_ns, lo_time_ms, testing_time_ms, tests_total,
        tests_failed, tests_correct, tests_mispredicted, tests_aborted,
    )

