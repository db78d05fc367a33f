"""MEMCON's refresh-reduction accounting.

MEMCON tests the current content of pages PRIL predicts will stay idle:
every write bumps its row to HI-REF; at each quantum boundary PRIL picks
the pages written exactly once in the previous quantum and not since,
and MEMCON tests them; rows that pass run at LO-REF until their next
write, rows that fail stay at HI-REF.

:func:`simulate_refresh_reduction` evaluates that workflow in one
vectorised pass over the whole write trace, with unbounded PRIL buffers,
and integrates LO-REF time directly. Every experiment runs it. The test
suite checks it against two retired implementations of the same
mechanism, the per-page loop and the event-driven controller
(``tests/oracles/memcon.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .. import obs
from ..dram.timing import HI_REF_INTERVAL_MS, LO_REF_INTERVAL_MS, DDR3_1600
from ..traces.events import WriteTrace
from .costmodel import TestMode, test_cost_ns


@dataclass
class MemconConfig:
    """MEMCON's knobs: quantum, refresh rates and the content test."""

    quantum_ms: float = 1024.0
    hi_ref_interval_ms: float = HI_REF_INTERVAL_MS
    lo_ref_interval_ms: float = LO_REF_INTERVAL_MS
    test_mode: TestMode = TestMode.READ_AND_COMPARE
    #: Duration a row sits idle during a test: one LO-REF retention window.
    test_duration_ms: float = LO_REF_INTERVAL_MS
    #: Test read-only pages (never written in the trace) once at start-up
    #: and run them at LO-REF — the paper's read-only-row optimisation.
    test_read_only_pages: bool = True
    #: Threshold separating correct from mispredicted tests in reporting.
    long_interval_ms: float = 1024.0

    def __post_init__(self) -> None:
        if self.quantum_ms <= 0:
            raise ValueError("quantum_ms must be positive")
        if self.hi_ref_interval_ms <= 0 or self.lo_ref_interval_ms <= 0:
            raise ValueError("refresh intervals must be positive")
        if self.lo_ref_interval_ms <= self.hi_ref_interval_ms:
            raise ValueError("LO-REF interval must exceed HI-REF interval")
        if self.test_duration_ms <= 0:
            raise ValueError("test_duration_ms must be positive")


@dataclass
class MemconReport:
    """Outcome of running MEMCON over one trace."""

    workload: str
    config: MemconConfig
    window_ms: float
    total_pages: int
    refresh_count: float
    baseline_refresh_count: float
    lo_ref_time_fraction: float
    tests_total: int
    tests_failed: int
    tests_correct: int        # prediction held: no write within long_interval
    tests_mispredicted: int
    refresh_time_ns: float
    baseline_refresh_time_ns: float
    testing_time_ns: float
    testing_time_correct_ns: float
    testing_time_mispredicted_ns: float
    #: Tests interrupted by a write inside the test window (the row goes
    #: straight back to HI-REF without a pass/fail verdict).
    tests_aborted: int = 0

    @property
    def refresh_reduction(self) -> float:
        if self.baseline_refresh_count == 0:
            return 0.0
        return 1.0 - self.refresh_count / self.baseline_refresh_count

    @property
    def upper_bound_reduction(self) -> float:
        """Reduction if every row ran at LO-REF always (75% for 16/64 ms)."""
        return 1.0 - (
            self.config.hi_ref_interval_ms / self.config.lo_ref_interval_ms
        )

    @property
    def testing_time_vs_baseline_refresh(self) -> float:
        """Figure 18's headline: testing time / baseline refresh time."""
        if self.baseline_refresh_time_ns == 0:
            return 0.0
        return self.testing_time_ns / self.baseline_refresh_time_ns


@obs.timed("memcon.simulate")
def simulate_refresh_reduction(
    trace: WriteTrace,
    config: Optional[MemconConfig] = None,
    failing_page_fraction: float = 0.0,
    seed: int = 0,
) -> MemconReport:
    """Account MEMCON's refresh and testing costs over a write trace.

    Semantics (unbounded PRIL buffers): a write qualifies for testing iff
    it is the only write to its page within its quantum and the page stays
    unwritten through the following quantum; the test starts at that
    quantum boundary, holds the row for ``test_duration_ms``, and — if the
    content passes — the row runs at LO-REF until its next write. Failing
    pages (drawn pseudo-randomly with ``failing_page_fraction``, modelling
    content that trips the fault model) always return to HI-REF.

    Read-only pages are tested once at time zero when enabled; a test
    that outlasts the window is charged for the window only.

    The accounting is evaluated in one vectorised pass over the flattened
    write stream (all pages at once). It is bit-identical to the retired
    per-page loop kept as the test suite's equivalence oracle: the
    failing-page draws consume the same RNG stream (one double per
    written page, in dict order) and both time accumulators sum their
    contributions in the same order (``np.cumsum`` is sequential
    left-to-right, like the loop's ``+=``).

    With a trace sink active the pass also replays its verdicts as the
    standard event stream (``pril_quantum``, ``test_*``,
    ``ref_transition``, plus ``pril_grant`` under forensics), built from
    its own arrays and emitted as one batch in global time order so
    windowed aggregation over the stream is meaningful.
    """
    config = config or MemconConfig()
    if not 0.0 <= failing_page_fraction <= 1.0:
        raise ValueError("failing_page_fraction must be a probability")
    rng = np.random.default_rng(seed)
    quantum = config.quantum_ms
    window = trace.duration_ms
    test_ms = config.test_duration_ms
    cost_ns = test_cost_ns(config.test_mode)

    lo_time_ms = 0.0
    testing_time_ms = 0.0

    # Flatten every page's (sorted) write times into one stream, keeping
    # dict order so the per-page failing draws consume the RNG exactly as
    # the loop did: one double per written page, skipping empty pages.
    kept_arrays = [times for times in trace.writes.values() if len(times)]
    n_written = len(kept_arrays)
    page_fails = rng.random(n_written) < failing_page_fraction
    counts = np.array([len(a) for a in kept_arrays], dtype=np.int64)
    all_times = np.concatenate(kept_arrays) if n_written else np.empty(0)
    n = len(all_times)
    ends = np.cumsum(counts)
    starts = ends - counts
    first_of_page = np.zeros(n, dtype=bool)
    first_of_page[starts] = True
    # A write qualifies iff it is alone in its quantum (neither neighbour
    # within the same page shares it). `quanta` stays float64: floor(t / q)
    # is exact below 2**53, so comparisons and the boundary product below
    # match the loop's int64 arithmetic bit for bit — and the candidate
    # set is narrowed before any further full-width work (bursty traces
    # are mostly non-single).
    quanta = np.floor(all_times / quantum)
    same_prev = np.zeros(n, dtype=bool)
    same_prev[1:] = (quanta[1:] == quanta[:-1]) & ~first_of_page[1:]
    same_next = np.zeros(n, dtype=bool)
    same_next[:-1] = same_prev[1:]
    single = np.flatnonzero(~(same_prev | same_next))
    # The page must stay unwritten through the following quantum (the
    # prediction boundary), which must land inside the window.
    is_last = np.zeros(n, dtype=bool)
    is_last[ends - 1] = True
    next_write = np.where(
        is_last[single], window, all_times[np.minimum(single + 1, n - 1)]
    )
    boundary = (quanta[single] + 2) * quantum
    qualify = (boundary < window) & (next_write >= boundary)
    tested = single[qualify]  # write-stream index of each test's write
    idle = next_write[qualify]
    start = boundary[qualify]
    test_end = start + test_ms
    page_of = np.searchsorted(starts, tested, side="right") - 1
    fails = page_fails[page_of]

    tests_total = len(tested)
    tests_aborted = int(np.count_nonzero(idle < test_end))
    tests_failed = int(np.count_nonzero(fails & (idle >= test_end)))
    tests_correct = int(
        np.count_nonzero(idle - start > config.long_interval_ms)
    )
    tests_mispredicted = tests_total - tests_correct
    if tests_total:
        testing_contrib = np.minimum(test_ms, np.maximum(0.0, idle - start))
        testing_time_ms = float(np.cumsum(testing_contrib)[-1])
        lo_mask = ~fails & (idle > test_end)
        if lo_mask.any():
            lo_contrib = np.minimum(idle[lo_mask], window) - test_end[lo_mask]
            lo_time_ms = float(np.cumsum(lo_contrib)[-1])

    # Read-only pages: one test at start-up, then LO-REF for the window.
    n_read_only = trace.total_pages - n_written
    ro_tested = config.test_read_only_pages and n_read_only > 0
    n_ro_failing = 0
    if ro_tested:
        n_ro_failing = int(round(n_read_only * failing_page_fraction))
        n_ro_passing = n_read_only - n_ro_failing
        tests_total += n_read_only
        tests_failed += n_ro_failing
        tests_correct += n_read_only
        testing_time_ms += n_read_only * min(test_ms, window)
        lo_time_ms += n_ro_passing * max(0.0, window - test_ms)

    if obs.trace_active():
        _emit_verdicts(
            trace, config, page_of, quanta[tested], all_times[tested],
            start, test_end, idle, fails,
            n_read_only if ro_tested else 0, n_ro_failing,
        )

    return _memcon_report(
        trace, config, cost_ns, lo_time_ms, testing_time_ms, tests_total,
        tests_failed, tests_correct, tests_mispredicted, tests_aborted,
    )


#: Records one test can contribute, in lifecycle order: the forensic
#: grant, test_started, hi->testing, its outcome, the outcome's
#: transition and, for a passed test rewritten in the window, lo->hi.
_TEST_SLOTS = 6


def _emit_verdicts(
    trace: WriteTrace,
    config: MemconConfig,
    page_of: np.ndarray,
    quanta: np.ndarray,
    write_ms: np.ndarray,
    start: np.ndarray,
    test_end: np.ndarray,
    idle: np.ndarray,
    fails: np.ndarray,
    n_read_only: int,
    n_ro_failing: int,
) -> None:
    """Emit one accounting pass's verdicts as a single time-ordered batch.

    The array arguments hold one entry per PRIL-predicted test, in
    write-stream order (``page_of`` indexes the written pages in dict
    order; ``quanta`` is the quantum of the test's write). The
    ``n_read_only`` start-up tests go to the lowest unwritten pages, the
    first ``n_ro_failing`` of them failing.

    Records are ordered by ``t_ms``. At one instant a ``pril_quantum``
    record precedes the tests it predicts; otherwise records keep their
    tests' order (page by page, write by write, read-only pages last) and
    each test's lifecycle order (:data:`_TEST_SLOTS`). That is one stable
    ``np.lexsort`` over (time, sequence number).
    """
    window = trace.duration_ms
    test_ms = float(config.test_duration_ms)
    version = obs.SCHEMA_VERSION
    written = np.array(
        [page for page, times in trace.writes.items() if len(times)],
        dtype=np.int64,
    )
    page = written[page_of]
    seq = np.arange(len(page), dtype=np.int64) * _TEST_SLOTS
    times: List[np.ndarray] = []
    seqs: List[np.ndarray] = []
    records: List[dict] = []

    def add(kind, t_ms, order, pages, fields=None):
        times.append(t_ms)
        seqs.append(order)
        extra = fields or {}
        records.extend([
            {"v": version, "kind": kind, "t_ms": t, "page": p, **extra}
            for t, p in zip(t_ms.tolist(), pages.tolist())
        ])

    # PRIL's predictions, one record per quantum boundary that started a
    # test; sequence -1 puts each ahead of its tests at the same instant.
    q_start = quanta.astype(np.int64) + 2
    predicted_q, predicted = np.unique(q_start, return_counts=True)
    times.append(predicted_q * config.quantum_ms)
    seqs.append(np.full(len(predicted_q), -1, dtype=np.int64))
    records.extend([
        {"v": version, "kind": "pril_quantum", "quantum": q,
         "predicted": count, "buffer": count}
        for q, count in zip(predicted_q.tolist(), predicted.tolist())
    ])
    if obs.forensics_active():
        # The grant and its write-interval evidence: the one write that
        # qualified the page, and how long the page actually stayed idle
        # (the trace's future).
        times.append(start)
        seqs.append(seq)
        records.extend([
            {"v": version, "kind": "pril_grant", "t_ms": t,
             "page": p, "quantum": q, "write_ms": w, "next_write_ms": nw}
            for t, p, q, w, nw in zip(
                start.tolist(), page.tolist(), q_start.tolist(),
                write_ms.tolist(), idle.tolist(),
            )
        ])
    add("test_started", start, seq + 1, page)
    add("ref_transition", start, seq + 2, page,
        {"from": "hi_ref", "to": "testing"})
    aborted = idle < test_end
    passed = ~aborted & ~fails
    for mask, kind, at, state in (
        (aborted, "test_aborted", idle, "hi_ref"),
        (~aborted & fails, "test_failed", test_end, "hi_ref"),
        (passed, "test_passed", test_end, "lo_ref"),
    ):
        add(kind, at[mask], seq[mask] + 3, page[mask])
        add("ref_transition", at[mask], seq[mask] + 4, page[mask],
            {"from": "testing", "to": state})
    rewritten = passed & (idle < window)
    add("ref_transition", idle[rewritten], seq[rewritten] + 5,
        page[rewritten], {"from": "lo_ref", "to": "hi_ref"})

    if n_read_only:
        unwritten = np.setdiff1d(np.arange(trace.total_pages), written)
        ro_page = unwritten[:n_read_only]
        ro_seq = len(page) * _TEST_SLOTS + 4 * np.arange(n_read_only)
        at_zero = np.zeros(n_read_only)
        at_end = np.full(n_read_only, test_ms)
        add("test_started", at_zero, ro_seq, ro_page)
        add("ref_transition", at_zero, ro_seq + 1, ro_page,
            {"from": "hi_ref", "to": "testing"})
        for kind, state, part in (
            ("test_failed", "hi_ref", slice(None, n_ro_failing)),
            ("test_passed", "lo_ref", slice(n_ro_failing, None)),
        ):
            add(kind, at_end[part], ro_seq[part] + 2, ro_page[part])
            add("ref_transition", at_end[part], ro_seq[part] + 3,
                ro_page[part], {"from": "testing", "to": state})

    order = np.lexsort((np.concatenate(seqs), np.concatenate(times)))
    obs.emit_many([records[i] for i in order.tolist()])


def _memcon_report(
    trace: WriteTrace,
    config: MemconConfig,
    cost_ns: float,
    lo_time_ms: float,
    testing_time_ms: float,
    tests_total: int,
    tests_failed: int,
    tests_correct: int,
    tests_mispredicted: int,
    tests_aborted: int,
) -> MemconReport:
    """Fold accumulated times and counts into the :class:`MemconReport`."""
    window = trace.duration_ms
    hi_time_ms = trace.total_pages * window - lo_time_ms - testing_time_ms
    refresh_count = (
        hi_time_ms / config.hi_ref_interval_ms
        + lo_time_ms / config.lo_ref_interval_ms
    )
    baseline_count = trace.total_pages * window / config.hi_ref_interval_ms
    refresh_ns = DDR3_1600.row_refresh_ns
    correct_frac = tests_correct / tests_total if tests_total else 0.0
    registry = obs.get_registry()
    registry.counter("memcon.tests_started").inc(tests_total)
    registry.counter("memcon.tests_failed").inc(tests_failed)
    registry.counter("memcon.tests_aborted").inc(tests_aborted)
    return MemconReport(
        workload=trace.name,
        config=config,
        window_ms=window,
        total_pages=trace.total_pages,
        refresh_count=refresh_count,
        baseline_refresh_count=baseline_count,
        lo_ref_time_fraction=lo_time_ms / (trace.total_pages * window),
        tests_total=tests_total,
        tests_failed=tests_failed,
        tests_correct=tests_correct,
        tests_mispredicted=tests_mispredicted,
        refresh_time_ns=refresh_count * refresh_ns,
        baseline_refresh_time_ns=baseline_count * refresh_ns,
        testing_time_ns=tests_total * cost_ns,
        testing_time_correct_ns=tests_total * cost_ns * correct_frac,
        testing_time_mispredicted_ns=tests_total * cost_ns * (1 - correct_frac),
        tests_aborted=tests_aborted,
    )
