"""MEMCON's retired implementations, kept as equivalence oracles.

:func:`repro.core.memcon.simulate_refresh_reduction` is the one MEMCON
implementation in ``src/``: a vectorised pass over the whole write
trace. Two retired implementations of the same mechanism check it.

* :func:`simulate_refresh_reduction_loop` is the per-page loop the
  vectorised pass replaced. It builds the same report and the same
  verdict stream one page, one test and one record at a time. The
  differential suites hold the two to identical reports and
  record-for-record identical streams.
* :class:`MemconController` follows the paper's workflow event by
  event. Every write bumps its row to HI-REF and updates PRIL
  (:class:`PrilPredictor`). At each quantum boundary PRIL yields the
  pages predicted idle, and MEMCON tests them. Rows that pass run at
  LO-REF in a :class:`RefreshLedger`; rows that fail stay at HI-REF. Its
  report matches the vectorised pass: counts exactly, times to rounding.
  It also models what the vectorised pass leaves out: a bounded PRIL
  buffer, a ``fails`` predicate, and Read&Compare tests of real device
  content (:class:`RowTestEngine`). The observability benchmarks time
  its per-record counters, trace guards and emits.

Both oracles fail pages by one rule (:func:`failing_pages`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, List, Optional, Set

import numpy as np
import pytest

from repro import obs
from repro.core.costmodel import TestMode, test_cost_ns
from repro.core.memcon import MemconConfig, MemconReport, _memcon_report
from repro.dram.device import DramDevice
from repro.dram.timing import (
    DDR3_1600,
    HI_REF_INTERVAL_MS,
    LO_REF_INTERVAL_MS,
)
from repro.traces.events import WriteTrace


def failing_pages(trace: WriteTrace, fraction: float, seed: int) -> Set[int]:
    """The pages whose content tests fail at ``failing_page_fraction``.

    One draw per written page, in dict order, fails the page below
    ``fraction``; then the first ``round(n_read_only * fraction)``
    unwritten pages fail. The vectorised pass consumes the same stream.
    """
    written = [page for page, times in trace.writes.items() if len(times)]
    draws = np.random.default_rng(seed).random(len(written)) < fraction
    unwritten = np.setdiff1d(np.arange(trace.total_pages), written)
    n_failing = int(round(len(unwritten) * fraction))
    failing = {page for page, fails in zip(written, draws) if fails}
    return failing | set(unwritten[:n_failing].tolist())


# ----------------------------------------------------------------------
# The per-page accounting loop
# ----------------------------------------------------------------------
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
    quantum = config.quantum_ms
    window = trace.duration_ms
    test_ms = config.test_duration_ms
    cost_ns = test_cost_ns(config.test_mode)
    failing = failing_pages(trace, failing_page_fraction, seed)
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
        page_fails = page in failing
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
        testing_time_ms += n_read_only * min(test_ms, window)
        lo_time_ms += n_ro_passing * max(0.0, window - test_ms)
        if emit_trace:
            ro_pages = [
                p for p in range(trace.total_pages) if p not in written
            ]
            for p in ro_pages:
                trace_events.append((0.0, 1, "test_started", {"page": p}))
                trace_events.append((0.0, 1, "ref_transition",
                                     {"page": p, "from": "hi_ref",
                                      "to": "testing"}))
                outcome = "test_failed" if p in failing else "test_passed"
                state = "hi_ref" if p in failing else "lo_ref"
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


# ----------------------------------------------------------------------
# PRIL (paper §4.2, Figure 13)
# ----------------------------------------------------------------------
@dataclass
class PrilStats:
    """PRIL's bookkeeping counters."""

    writes_observed: int = 0
    first_writes: int = 0
    repeat_write_drops: int = 0
    cross_quantum_drops: int = 0
    buffer_overflow_drops: int = 0
    predictions_made: int = 0


class PrilPredictor:
    """The quantum-based long-write-interval predictor.

    A write-map marks the pages written in the current quantum. A
    write-buffer holds the pages written *exactly once* in it; a second
    write drops the page. At each quantum boundary the pages still in
    the *previous* buffer were written once in that quantum and never
    since, so they are predicted idle. On overflow of a bounded buffer
    the new page is discarded (paper footnote 10): it stays at HI-REF.
    """

    def __init__(
        self,
        quantum_ms: float = 1024.0,
        buffer_capacity: Optional[int] = None,
    ) -> None:
        if quantum_ms <= 0:
            raise ValueError("quantum_ms must be positive")
        if buffer_capacity is not None and buffer_capacity <= 0:
            raise ValueError("buffer_capacity must be positive or None")
        self.quantum_ms = quantum_ms
        self.buffer_capacity = buffer_capacity
        self._written: Set[int] = set()   # write-map of this quantum
        self._buffer: Set[int] = set()    # written exactly once in it
        self._previous: Set[int] = set()  # the previous quantum's buffer
        self.quantum_index = 0
        self.stats = PrilStats()
        registry = obs.get_registry()
        self._c_writes = registry.counter("pril.writes_observed")
        self._c_predictions = registry.counter("pril.predictions")
        self._c_overflow_drops = registry.counter("pril.buffer_overflow_drops")
        # Writes are the hottest path, so the registry counter is synced
        # from ``stats`` once per quantum, not once per write.
        self._writes_synced = 0

    @property
    def current_buffer_size(self) -> int:
        return len(self._buffer)

    @property
    def previous_buffer_size(self) -> int:
        return len(self._previous)

    def observe_write(self, page: int) -> None:
        """Process one write access (Figure 13, left half)."""
        if page < 0:
            raise ValueError("page must be non-negative")
        stats = self.stats
        stats.writes_observed += 1
        if page in self._written:
            if page in self._buffer:
                self._buffer.discard(page)
                stats.repeat_write_drops += 1
        else:
            self._written.add(page)
            stats.first_writes += 1
            if (
                self.buffer_capacity is not None
                and len(self._buffer) >= self.buffer_capacity
            ):
                stats.buffer_overflow_drops += 1
                self._c_overflow_drops.inc()
            else:
                self._buffer.add(page)
        # The page's interval did not span the previous-quantum boundary.
        if page in self._previous:
            self._previous.discard(page)
            stats.cross_quantum_drops += 1

    def end_quantum(self) -> List[int]:
        """Close the quantum; return the pages predicted idle, sorted."""
        predicted = sorted(self._previous)
        self.flush_metrics()
        self.stats.predictions_made += len(predicted)
        self._c_predictions.inc(len(predicted))
        self._previous, self._buffer = self._buffer, set()
        self._written = set()
        self.quantum_index += 1
        if obs.trace_active():
            obs.emit(
                "pril_quantum",
                quantum=self.quantum_index,
                predicted=len(predicted),
                buffer=len(self._previous),
            )
        return predicted

    def flush_metrics(self) -> None:
        """Sync ``pril.writes_observed`` with the writes seen since."""
        delta = self.stats.writes_observed - self._writes_synced
        if delta:
            self._c_writes.inc(delta)
            self._writes_synced = self.stats.writes_observed


# ----------------------------------------------------------------------
# The HI-REF / TESTING / LO-REF ledger
# ----------------------------------------------------------------------
class RefreshState(Enum):
    """Refresh treatment of one row at a point in time."""

    HI_REF = "hi_ref"
    LO_REF = "lo_ref"
    TESTING = "testing"   # idle retention window: no refreshes at all


@dataclass
class StateTimes:
    """Accumulated milliseconds a row spent in each state."""

    hi_ms: float = 0.0
    lo_ms: float = 0.0
    testing_ms: float = 0.0

    def add(self, state: RefreshState, duration_ms: float) -> None:
        if duration_ms < 0:
            raise ValueError("duration must be non-negative")
        if state is RefreshState.HI_REF:
            self.hi_ms += duration_ms
        elif state is RefreshState.LO_REF:
            self.lo_ms += duration_ms
        else:
            self.testing_ms += duration_ms

    @property
    def total_ms(self) -> float:
        return self.hi_ms + self.lo_ms + self.testing_ms


class RefreshLedger:
    """Integrates per-row refresh state over time and counts refreshes.

    Rows start at HI-REF. Call :meth:`set_state` on transitions and
    :meth:`finalize` once at the end of the window.
    """

    def __init__(
        self,
        total_rows: int,
        hi_ref_interval_ms: float = HI_REF_INTERVAL_MS,
        lo_ref_interval_ms: float = LO_REF_INTERVAL_MS,
    ) -> None:
        if total_rows <= 0:
            raise ValueError("total_rows must be positive")
        if hi_ref_interval_ms <= 0 or lo_ref_interval_ms <= 0:
            raise ValueError("refresh intervals must be positive")
        if lo_ref_interval_ms <= hi_ref_interval_ms:
            raise ValueError("LO-REF interval must exceed HI-REF interval")
        self.total_rows = total_rows
        self.hi_ref_interval_ms = hi_ref_interval_ms
        self.lo_ref_interval_ms = lo_ref_interval_ms
        self._state: Dict[int, RefreshState] = {}
        self._since: Dict[int, float] = {}
        self._times: Dict[int, StateTimes] = {}
        self._finalized_at: Optional[float] = None

    def state_of(self, row: int) -> RefreshState:
        self._check_row(row)
        return self._state.get(row, RefreshState.HI_REF)

    def set_state(self, row: int, state: RefreshState, now_ms: float) -> None:
        """Transition a row to a new state at time ``now_ms``."""
        self._check_row(row)
        if self._finalized_at is not None:
            raise RuntimeError("ledger already finalized")
        since = self._since.get(row, 0.0)
        if now_ms < since:
            raise ValueError("time must not go backwards")
        current = self._state.get(row, RefreshState.HI_REF)
        self._times.setdefault(row, StateTimes()).add(current, now_ms - since)
        self._state[row] = state
        self._since[row] = now_ms

    def finalize(self, end_ms: float) -> None:
        """Close the accounting window at ``end_ms``."""
        if self._finalized_at is not None:
            raise RuntimeError("ledger already finalized")
        for row, times in self._times.items():
            since = self._since[row]
            if end_ms < since:
                raise ValueError("end time precedes a recorded transition")
            times.add(self._state[row], end_ms - since)
        self._finalized_at = end_ms

    def _end(self) -> float:
        if self._finalized_at is None:
            raise RuntimeError("finalize the ledger first")
        return self._finalized_at

    def row_times(self, row: int) -> StateTimes:
        """Per-state time of one row. Untouched rows are all-HI."""
        self._check_row(row)
        end = self._end()
        return self._times.get(row) or StateTimes(hi_ms=end)

    def refresh_count(self) -> float:
        """Total refresh operations issued across all rows."""
        end = self._end()
        touched_hi = 0.0
        touched_lo = 0.0
        for times in self._times.values():
            touched_hi += times.hi_ms
            touched_lo += times.lo_ms
        touched_hi += (self.total_rows - len(self._times)) * end
        return (
            touched_hi / self.hi_ref_interval_ms
            + touched_lo / self.lo_ref_interval_ms
        )

    def baseline_refresh_count(self) -> float:
        """Refreshes the all-HI-REF baseline issues over the same window."""
        return self.total_rows * self._end() / self.hi_ref_interval_ms

    def refresh_reduction(self) -> float:
        """Fractional reduction in refresh operations vs the baseline."""
        baseline = self.baseline_refresh_count()
        if baseline == 0:
            return 0.0
        return 1.0 - self.refresh_count() / baseline

    def lo_ref_time_fraction(self) -> float:
        """Fraction of row-time spent at LO-REF (Figure 17's coverage)."""
        total = self.total_rows * self._end()
        if total == 0:
            return 0.0
        return sum(t.lo_ms for t in self._times.values()) / total

    def _check_row(self, row: int) -> None:
        if not 0 <= row < self.total_rows:
            raise ValueError(f"row {row} out of range")


# ----------------------------------------------------------------------
# Read&Compare row tests on a functional device (paper §3.3)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RowTestResult:
    """Outcome of one Read&Compare content test."""

    passed: bool              # True -> no bit changed across the window
    started_ms: float
    finished_ms: float
    flipped_bits: int
    latency_cost_ns: float    # controller-side latency charged to the test
    extra_reads: int          # full-row reads issued


class RowTestEngine:
    """Read&Compare tests against a :class:`~repro.dram.DramDevice`.

    A test buffers the row in the controller, leaves it idle for one
    retention window, reads it back and compares. A failing row is
    repaired from the buffered copy, so a test never loses data.
    """

    def __init__(
        self,
        device: DramDevice,
        test_interval_ms: float = LO_REF_INTERVAL_MS,
    ) -> None:
        if test_interval_ms <= 0:
            raise ValueError("test_interval_ms must be positive")
        self.device = device
        self.test_interval_ms = test_interval_ms
        self.tests_run = 0
        self.tests_failed = 0

    def run_test(self, row: int, now_ms: float) -> RowTestResult:
        """Test ``row``'s current content across one retention window."""
        before = self.device.read_row(row, now_ms)
        finish_ms = now_ms + self.test_interval_ms
        after = self.device.read_row(row, finish_ms)
        flipped = 0
        if before != after:
            diff = np.frombuffer(before, np.uint8) ^ np.frombuffer(after,
                                                                   np.uint8)
            flipped = int(np.unpackbits(diff).sum())
        if flipped:
            self.device.write_row(row, before, finish_ms)
            self.tests_failed += 1
        self.tests_run += 1
        return RowTestResult(
            passed=flipped == 0,
            started_ms=now_ms,
            finished_ms=finish_ms,
            flipped_bits=flipped,
            latency_cost_ns=test_cost_ns(TestMode.READ_AND_COMPARE),
            extra_reads=2,
        )


# ----------------------------------------------------------------------
# The event-driven controller
# ----------------------------------------------------------------------
class MemconController:
    """Event-driven MEMCON over a write trace.

    Tests run real device content through ``test_engine`` when one is
    given; otherwise the ``fails`` predicate decides their outcome. Either
    way, the pages :func:`failing_pages` draws fail as well.
    """

    def __init__(
        self,
        total_pages: int,
        config: Optional[MemconConfig] = None,
        test_engine: Optional[RowTestEngine] = None,
        fails: Optional[Callable[[int], bool]] = None,
        buffer_capacity: Optional[int] = None,
    ) -> None:
        if total_pages <= 0:
            raise ValueError("total_pages must be positive")
        self.config = config or MemconConfig()
        self.total_pages = total_pages
        self.pril = PrilPredictor(
            quantum_ms=self.config.quantum_ms,
            buffer_capacity=buffer_capacity,
        )
        self.ledger = RefreshLedger(
            total_rows=total_pages,
            hi_ref_interval_ms=self.config.hi_ref_interval_ms,
            lo_ref_interval_ms=self.config.lo_ref_interval_ms,
        )
        self.engine = test_engine
        self._fails = fails if fails is not None else (lambda page: False)
        self._failing: Set[int] = set()
        self._next_boundary_ms = self.config.quantum_ms
        self.tests_total = 0
        self.tests_failed = 0
        self.tests_correct = 0
        self.tests_mispredicted = 0
        self.tests_aborted = 0
        registry = obs.get_registry()
        self._c_started = registry.counter("memcon.tests_started")
        self._c_aborted = registry.counter("memcon.tests_aborted")
        self._c_passed = registry.counter("memcon.tests_passed")
        self._c_failed = registry.counter("memcon.tests_failed")
        self._c_to_lo = registry.counter("memcon.transitions_to_lo")
        self._c_to_hi = registry.counter("memcon.transitions_to_hi")

    def _set_state(
        self, page: int, state: RefreshState, now_ms: float
    ) -> None:
        """Ledger transition plus transition counters and trace events."""
        previous = self.ledger.state_of(page)
        self.ledger.set_state(page, state, now_ms)
        if state is previous:
            return
        if state is RefreshState.LO_REF:
            self._c_to_lo.inc()
        elif state is RefreshState.HI_REF:
            self._c_to_hi.inc()
        if obs.trace_active():
            obs.emit(
                "ref_transition", t_ms=now_ms, page=page,
                **{"from": previous.value, "to": state.value},
            )

    def _finish_test(self, page: int, failed: bool, end_ms: float) -> None:
        """A completed test's verdict: LO-REF on a pass, HI-REF on a fail."""
        if failed:
            self.tests_failed += 1
            self._c_failed.inc()
            if obs.trace_active():
                obs.emit("test_failed", t_ms=end_ms, page=page)
            self._set_state(page, RefreshState.HI_REF, end_ms)
        else:
            self._c_passed.inc()
            if obs.trace_active():
                obs.emit("test_passed", t_ms=end_ms, page=page)
            self._set_state(page, RefreshState.LO_REF, end_ms)

    def _advance_to(self, now_ms: float, trace: WriteTrace) -> None:
        """Cross any quantum boundaries up to and including ``now_ms``."""
        while self._next_boundary_ms <= now_ms:
            boundary = self._next_boundary_ms
            for page in self.pril.end_quantum():
                self._start_test(page, boundary, trace)
            self._next_boundary_ms += self.config.quantum_ms

    def _start_test(self, page: int, boundary_ms: float,
                    trace: WriteTrace) -> None:
        cfg = self.config
        test_end = boundary_ms + cfg.test_duration_ms
        self.tests_total += 1
        self._c_started.inc()
        next_write = _next_write_at_or_after(page, boundary_ms, trace)
        if obs.trace_active():
            if obs.forensics_active():
                obs.emit(
                    "pril_grant", t_ms=boundary_ms, page=page,
                    quantum=int(round(boundary_ms / cfg.quantum_ms)),
                    next_write_ms=next_write,
                )
            obs.emit("test_started", t_ms=boundary_ms, page=page)
        # Classify the prediction against the trace's future.
        if next_write - boundary_ms > cfg.long_interval_ms:
            self.tests_correct += 1
        else:
            self.tests_mispredicted += 1
        self._set_state(page, RefreshState.TESTING, boundary_ms)
        if next_write < test_end:
            # The write aborts the test; its handler moves the row back
            # to HI-REF when it arrives.
            self.tests_aborted += 1
            self._c_aborted.inc()
            if obs.trace_active():
                obs.emit("test_aborted", t_ms=next_write, page=page)
            return
        if self.engine is not None:
            failed = not self.engine.run_test(page, boundary_ms).passed
        else:
            failed = self._fails(page)
        self._finish_test(page, failed or page in self._failing, test_end)

    @obs.timed("memcon.run")
    def run(self, trace: WriteTrace, failing_page_fraction: float = 0.0,
            seed: int = 0) -> MemconReport:
        """Process a whole trace and return the accounting report."""
        if trace.total_pages != self.total_pages:
            raise ValueError("trace footprint does not match controller")
        cfg = self.config
        window = trace.duration_ms
        self._failing = failing_pages(trace, failing_page_fraction, seed)
        if cfg.test_read_only_pages:
            # Read-only pages are tested once at start-up; a test that
            # outlasts the window ends with it.
            written = [p for p, t in trace.writes.items() if len(t)]
            test_end = min(cfg.test_duration_ms, window)
            for page in np.setdiff1d(np.arange(self.total_pages),
                                     written).tolist():
                self.tests_total += 1
                self.tests_correct += 1
                self._c_started.inc()
                if obs.trace_active():
                    obs.emit("test_started", t_ms=0.0, page=page)
                self._set_state(page, RefreshState.TESTING, 0.0)
                failed = self._fails(page) or page in self._failing
                self._finish_test(page, failed, test_end)
        for time_ms, page in trace.merged_events():
            self._advance_to(time_ms, trace)
            if self.ledger.state_of(page) is not RefreshState.HI_REF:
                self._set_state(page, RefreshState.HI_REF, time_ms)
            self.pril.observe_write(page)
        # Stop just below the window end: a quantum boundary landing
        # exactly on the capture edge cannot start a test.
        self._advance_to(float(np.nextafter(window, 0.0)), trace)
        self.pril.flush_metrics()  # writes in a trailing partial quantum
        self.ledger.finalize(window)

        cost_ns = test_cost_ns(cfg.test_mode)
        refresh_ns = DDR3_1600.row_refresh_ns
        refresh_count = self.ledger.refresh_count()
        baseline = self.ledger.baseline_refresh_count()
        return MemconReport(
            workload=trace.name,
            config=cfg,
            window_ms=window,
            total_pages=self.total_pages,
            refresh_count=refresh_count,
            baseline_refresh_count=baseline,
            lo_ref_time_fraction=self.ledger.lo_ref_time_fraction(),
            tests_total=self.tests_total,
            tests_failed=self.tests_failed,
            tests_correct=self.tests_correct,
            tests_mispredicted=self.tests_mispredicted,
            refresh_time_ns=refresh_count * refresh_ns,
            baseline_refresh_time_ns=baseline * refresh_ns,
            testing_time_ns=self.tests_total * cost_ns,
            testing_time_correct_ns=self.tests_correct * cost_ns,
            testing_time_mispredicted_ns=self.tests_mispredicted * cost_ns,
            tests_aborted=self.tests_aborted,
        )


def _next_write_at_or_after(page: int, t_ms: float,
                            trace: WriteTrace) -> float:
    """The page's first write at or after ``t_ms``, else the window end.

    A write landing exactly on the prediction boundary counts: it aborts
    the test that boundary starts.
    """
    times = trace.writes.get(page)
    if times is None:
        return trace.duration_ms
    idx = np.searchsorted(times, t_ms, side="left")
    return float(times[idx]) if idx < len(times) else trace.duration_ms


def assert_reports_agree(report: MemconReport, oracle: MemconReport) -> None:
    """Two MEMCON reports agree: counts equal, times within rel 1e-12."""
    for field in dataclasses.fields(MemconReport):
        value = getattr(report, field.name)
        expected = getattr(oracle, field.name)
        if isinstance(expected, float):
            expected = pytest.approx(expected, rel=1e-12)
        assert value == expected, field.name
