"""Streaming analytics over the event trace: fan-out sinks and rollups.

PR 2's trace made every pipeline event *recordable*; this module makes
the stream *consumable while it flows*. Two pieces:

* :class:`TeeSink` fans each emitted record out to several sinks, so a
  run can write the durable JSONL file **and** feed in-process analysis
  from the same ``obs.emit`` call — live analysis never re-reads the
  trace file.
* :class:`AggregatingSink` folds the stream into windowed time-series
  rollups: HI-REF vs LO-REF row population over simulated time, test
  pass/fail/abort counts per window, PRIL predicted-vs-actual hit rate
  per quantum, controller request counts / latency percentiles / refresh
  bandwidth per window, and energy rollups. The result
  (:meth:`AggregatingSink.to_dict`) is JSON-safe, lands in the run
  manifest under ``"timeseries"``, and renders via
  ``python -m repro.obs.report --timeseries``.

:func:`aggregate_trace` applies the *same* aggregation offline to an
iterable of records (e.g. ``read_trace(path)``); feeding the two paths
the same record sequence yields identical rollups, which the test suite
asserts as a property. A columnar :class:`~repro.obs.trace.RecordBatch`
(MEMCON's verdict stream) is folded from its columns with numpy instead
of record by record, to exactly the state its records would leave.

Windowing uses *simulated* time: events carrying ``t_ms`` fall into
window ``floor(t_ms / window_ms)``; controller events carrying ``t_ns``
are converted to milliseconds first, so both clock domains share one
window axis. The refresh-state population is sampled when the stream
first crosses a window boundary (events are processed in emission
order), and the in-progress window is sampled at :meth:`to_dict` time.
"""

from __future__ import annotations

import math
from collections import defaultdict, deque
from itertools import repeat
from typing import (
    Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple,
)

import numpy as np

from .trace import RecordBatch, TraceSchemaError, emit_batch

__all__ = [
    "LATENCY_BUCKET_BOUNDS_NS",
    "AggregatingSink",
    "TeeSink",
    "aggregate_trace",
]

#: Request-latency bucket upper bounds, matching the controller's
#: ``mc.read_latency_ns`` histogram so online and registry views agree.
LATENCY_BUCKET_BOUNDS_NS: Tuple[float, ...] = (
    25.0, 50.0, 100.0, 200.0, 400.0, 800.0, 1600.0,
)


class TeeSink:
    """Fans every record out to each of its child sinks, in order."""

    def __init__(self, *sinks) -> None:
        if not sinks:
            raise ValueError("TeeSink needs at least one child sink")
        self.sinks = list(sinks)

    def emit(self, record: Mapping) -> None:
        for sink in self.sinks:
            sink.emit(record)

    def emit_many(self, records: Sequence[Mapping]) -> None:
        """Hand the batch to each child in turn (see :func:`emit_batch`)."""
        for sink in self.sinks:
            emit_batch(sink, records)

    def close(self) -> None:
        """Close every child that knows how to close (first error wins)."""
        error: Optional[BaseException] = None
        for sink in self.sinks:
            close = getattr(sink, "close", None)
            if close is None:
                continue
            try:
                close()
            except BaseException as exc:  # keep closing the rest
                error = error or exc
        if error is not None:
            raise error


def _percentile_from_buckets(
    bounds: Tuple[float, ...], counts: List[int], total: int, q: float
) -> Optional[float]:
    """Upper bound of the bucket holding the q-quantile observation.

    Returns ``None`` with no observations or when the quantile falls in
    the overflow (+inf) bucket — the true value exceeds every bound.
    """
    if total <= 0:
        return None
    target = q * total
    cumulative = 0
    for bound, count in zip(bounds, counts):
        cumulative += count
        if cumulative >= target:
            return bound
    return None


#: Kind codes of the column fold. The kinds up to ``_ABORTED`` name a
#: page and fall in a window (the batch's "page records"); a kind
#: without a code is only counted.
_REF, _STARTED, _PASSED, _FAILED, _ABORTED, _PRIL, _OTHER = range(7)
_KIND_CODES = {
    "ref_transition": _REF,
    "test_started": _STARTED,
    "test_passed": _PASSED,
    "test_failed": _FAILED,
    "test_aborted": _ABORTED,
    "pril_quantum": _PRIL,
}
#: Kinds whose fields only the record fold reads; a batch holding one is
#: folded through its records.
_RECORD_KINDS = frozenset({"mc_request", "mc_refresh", "energy_rollup"})
#: A page's refresh state as the population counts see it: never seen,
#: HI-REF (or any state they do not count), LO-REF, testing.
_UNSEEN, _HI, _LO, _TESTING = range(4)
_STATE_CLASS = {None: _UNSEEN, "lo_ref": _LO, "testing": _TESTING}
#: Population change (LO-REF rows, testing rows, pages seen) of a page
#: record, indexed by ``16 * first_seen + 4 * from_class + to_class``.
#: A list, not an array: making the process's first numpy array costs a
#: few milliseconds, which belong to a run, not to every import.
_STEPS = [
    ((to == _LO) - (was == _LO), (to == _TESTING) - (was == _TESTING), seen)
    for seen in (0, 1) for was in range(4) for to in range(4)
]
#: The per-window test counter of each test kind, by code - _STARTED.
_TEST_COUNTERS = ("started", "passed", "failed", "aborted")
#: Integers up to this magnitude convert to float64 exactly.
_EXACT_INT = 2 ** 53


def _times(segment) -> Optional[np.ndarray]:
    """A segment's ``t_ms`` as float64: a float column, or a float or an
    int up to 2**53 (which converts exactly). ``None`` for anything else,
    which ``_fold`` might compare or divide differently."""
    value = segment.fields.get("t_ms")
    if isinstance(value, np.ndarray):
        if value.dtype.kind == "f" and value.dtype.itemsize <= 8:
            return value.astype(np.float64, copy=False)
        return None
    if isinstance(value, float) or (
        type(value) is int and abs(value) <= _EXACT_INT
    ):
        return np.full(segment.length, float(value))
    return None


def _pages(segment) -> Optional[np.ndarray]:
    """A segment's ``page`` as int64: a signed integer column or an int
    constant that fits. ``None`` for anything else."""
    value = segment.fields.get("page")
    if isinstance(value, np.ndarray):
        if value.dtype.kind == "i":
            return value.astype(np.int64, copy=False)
        return None
    if type(value) is int and -2 ** 63 <= value < 2 ** 63:
        return np.full(segment.length, value, dtype=np.int64)
    return None


def _previous(mask: np.ndarray, start: np.ndarray):
    """Over a page-sorted stream whose page groups begin at ``start``:
    for each record, the position of the last ``mask`` record before it
    in its group (-1 if none), and of the last one up to and including
    it in the whole stream."""
    last = np.maximum.accumulate(np.where(mask, np.arange(len(mask)), -1))
    before = np.empty_like(last)
    before[0] = -1
    before[1:] = last[:-1]
    return np.where(before >= start, before, -1), last


class AggregatingSink:
    """Folds trace records into windowed time-series rollups in-process.

    Parameters
    ----------
    window_ms:
        Width of one aggregation window in simulated milliseconds (the
        MEMCON quantum, 1024 ms, is the natural choice).
    total_pages:
        Row population for HI/LO-REF fractions; when ``None`` the number
        of distinct pages seen in refresh/test events is used, which
        undercounts never-touched (always HI-REF) rows.

    This sink rides inside traced hot loops and is benchmarked to stay
    under 5% of a traced MEMCON run (``benchmarks/test_bench_obs.py``),
    so ingestion is two-phase: ``emit`` *is* the buffer's C-level
    ``list.append`` (an instance attribute rebound on every drain), and
    :meth:`drain` folds buffered records in emission order inside one
    tight loop with the aggregation state bound to locals. Every read
    (the live properties, :meth:`kinds`, :meth:`to_dict`) drains first,
    so results are always exact; only the *moment* the fold runs is
    deferred, never its order.

    Because ``emit`` performs no bookkeeping at all, buffered records
    stay referenced until the next read. Long-running producers should
    call :meth:`drain` at natural checkpoints (the experiment runner
    drains after each experiment; a live reporter drains every tick) to
    keep memory proportional to the interval between drains. A batch
    handed to :meth:`emit_many` is folded on arrival instead, so the
    largest producer (MEMCON's verdict stream) never fills the buffer,
    and a :class:`~repro.obs.trace.RecordBatch` is folded from its
    columns (:meth:`_fold_batch`), building none of its records.

    A ``test_started`` is charged to the last ``pril_quantum`` before
    it, unless a test since that quantum started later than it: a test
    earlier than the one before it begins a new MEMCON pass, whose
    read-only start-up sweep no quantum predicted.
    """

    __slots__ = (
        "window_ms", "total_pages", "emit", "_events_total", "_buffer",
        "_kinds", "_tests", "_mc", "_ref_samples", "_max_window",
        "_page_state", "_pages_seen", "_n_lo", "_n_testing", "_pril",
        "_current_quantum", "_last_started_ms", "_outstanding", "_energy",
        "_energy_totals",
    )

    def __init__(
        self, window_ms: float = 1024.0, total_pages: Optional[int] = None
    ) -> None:
        if not (math.isfinite(window_ms) and window_ms > 0):
            raise ValueError("window_ms must be positive and finite")
        if total_pages is not None and total_pages <= 0:
            raise ValueError("total_pages must be positive or None")
        self.window_ms = float(window_ms)
        self.total_pages = total_pages
        self._events_total = 0
        self._buffer: List[Mapping] = []
        # The whole ingestion fast path: emit IS the buffer's append.
        self.emit = self._buffer.append
        self._kinds: Dict[str, int] = defaultdict(int)
        # Per-window accumulators, keyed by integer window index.
        self._tests: Dict[int, Dict[str, int]] = {}
        self._mc: Dict[int, Dict[str, Any]] = {}
        #: Refresh-state population sampled when the stream crossed out
        #: of the window: window index -> (lo_rows, testing_rows, seen).
        self._ref_samples: Dict[int, Tuple[int, int, int]] = {}
        self._max_window: Optional[int] = None
        # Current refresh-state population, indexed by page number
        # (``None`` = never seen; pages start at HI-REF). A flat list
        # because page indexing is the hottest operation in the fold.
        self._page_state: List[Optional[str]] = []
        self._pages_seen = 0
        self._n_lo = 0
        self._n_testing = 0
        # PRIL quanta and the tests attributed to each prediction batch;
        # the start time of the last test_started since the last
        # pril_quantum (-inf before the first test after one).
        self._pril: List[Dict[str, Any]] = []
        self._current_quantum: Optional[Dict[str, Any]] = None
        self._last_started_ms = float("-inf")
        #: page -> pril-quantum entry (or None for non-PRIL tests, e.g.
        #: the read-only start-up sweep) for every unresolved test.
        self._outstanding: Dict[int, Optional[Dict[str, Any]]] = {}
        # Energy rollups arrive whole (one per simulated window).
        self._energy: List[Dict[str, float]] = []
        self._energy_totals = {
            "refresh_pj": 0.0, "access_pj": 0.0, "background_pj": 0.0,
        }

    # -- live counters -------------------------------------------------
    @property
    def events_total(self) -> int:
        """Records consumed so far (buffered records included)."""
        return self._events_total + len(self._buffer)

    @property
    def rows_lo(self) -> int:
        """Rows currently at LO-REF."""
        self.drain()
        return self._n_lo

    @property
    def rows_testing(self) -> int:
        """Rows currently holding for a retention test."""
        self.drain()
        return self._n_testing

    @property
    def tests_outstanding(self) -> int:
        """Tests started but not yet passed/failed/aborted."""
        self.drain()
        return len(self._outstanding)

    @property
    def pages_seen(self) -> int:
        self.drain()
        return self._pages_seen

    def kinds(self) -> Dict[str, int]:
        self.drain()
        return dict(self._kinds)

    # -- ingestion -----------------------------------------------------
    #: test_* terminal kind -> (per-window counter, pril outcome field).
    _TEST_OUTCOMES = {
        "test_passed": ("passed", "resolved"),
        "test_failed": ("failed", "resolved"),
        "test_aborted": ("aborted", "aborted"),
    }

    def emit_many(self, records: Sequence[Mapping]) -> None:
        """Fold a batch now, after any records buffered before it.

        A :class:`~repro.obs.trace.RecordBatch` is folded from its
        columns (:meth:`_fold_batch`); any other sequence record by
        record. Both leave exactly the state the records would.
        """
        self.drain()
        if isinstance(records, RecordBatch):
            self._fold_batch(records)
        else:
            self._fold(records)

    def drain(self) -> None:
        """Fold every buffered record, in emission order.

        Reads call this implicitly; long-running producers may call it
        at checkpoints to release the buffered record references.
        """
        buffer = self._buffer
        if not buffer:
            return
        self._buffer = []
        self.emit = self._buffer.append
        self._fold(buffer)

    def _fold(self, records: Sequence[Mapping]) -> None:
        """Fold ``records`` into the aggregation state, in order."""
        self._events_total += len(records)
        # The fold is the hot path: bind all mutable state to locals and
        # dispatch on kind with a frequency-ordered if/elif chain.
        window_ms = self.window_ms
        kinds = self._kinds
        tests = self._tests
        tests_get = tests.get
        mc = self._mc
        mc_get = mc.get
        ref_samples = self._ref_samples
        page_state = self._page_state
        pages_seen = self._pages_seen
        outstanding = self._outstanding
        outstanding_pop = outstanding.pop
        test_outcomes_get = self._TEST_OUTCOMES.get
        pril_append = self._pril.append
        max_window = self._max_window
        n_lo = self._n_lo
        n_testing = self._n_testing
        current_quantum = self._current_quantum
        last_started = self._last_started_ms
        # Kind counts for the hot kinds accumulate in plain ints and merge
        # into the dict once per drain; only rare kinds touch it in-loop.
        n_ref = n_started = n_mc_req = n_mc_ref = 0
        # ref_transition only needs the window index when the stream
        # crosses a boundary, so the fast path is a single float compare
        # against the next boundary instead of a floordiv per record.
        if max_window is None:
            next_boundary = float("-inf")
        else:
            next_boundary = (max_window + 1) * window_ms
        for record in records:
            try:
                kind = record["kind"]
            except KeyError:
                continue
            if kind == "ref_transition":
                n_ref += 1
                t_ms = record["t_ms"]
                if t_ms >= next_boundary:
                    window = int(t_ms // window_ms)
                    if max_window is None:
                        max_window = window
                    elif window > max_window:
                        sample = (n_lo, n_testing, pages_seen)
                        for index in range(max_window, window):
                            ref_samples[index] = sample
                        max_window = window
                    next_boundary = (max_window + 1) * window_ms
                page = record["page"]
                state = record["to"]
                if page < 0:
                    raise TraceSchemaError(f"negative page: {page!r}")
                try:
                    previous = page_state[page]
                except IndexError:
                    page_state.extend(
                        [None] * (page + 1 - len(page_state)))
                    previous = None
                page_state[page] = state
                if previous is None:
                    pages_seen += 1
                    previous = "hi_ref"
                if previous == state:
                    continue
                if previous == "lo_ref":
                    n_lo -= 1
                elif previous == "testing":
                    n_testing -= 1
                if state == "lo_ref":
                    n_lo += 1
                elif state == "testing":
                    n_testing += 1
            elif kind == "test_started":
                n_started += 1
                t_ms = record["t_ms"]
                if t_ms < last_started:
                    current_quantum = None  # a new pass's read-only sweep
                last_started = t_ms
                window = int(t_ms // window_ms)
                if max_window is None:
                    max_window = window
                    next_boundary = (max_window + 1) * window_ms
                elif window > max_window:
                    sample = (n_lo, n_testing, pages_seen)
                    for index in range(max_window, window):
                        ref_samples[index] = sample
                    max_window = window
                    next_boundary = (max_window + 1) * window_ms
                page = record["page"]
                if page < 0:
                    raise TraceSchemaError(f"negative page: {page!r}")
                try:
                    if page_state[page] is None:
                        page_state[page] = "hi_ref"
                        pages_seen += 1
                except IndexError:
                    page_state.extend(
                        [None] * (page + 1 - len(page_state)))
                    page_state[page] = "hi_ref"
                    pages_seen += 1
                counts = tests_get(window)
                if counts is None:
                    counts = tests[window] = {
                        "started": 0, "passed": 0, "failed": 0, "aborted": 0,
                    }
                counts["started"] += 1
                outstanding[page] = current_quantum
                if current_quantum is not None:
                    current_quantum["started"] += 1
            else:
                pair = test_outcomes_get(kind)
                if pair is not None:
                    kinds[kind] += 1
                    window = int(record["t_ms"] // window_ms)
                    if max_window is None:
                        max_window = window
                        next_boundary = (max_window + 1) * window_ms
                    elif window > max_window:
                        sample = (n_lo, n_testing, pages_seen)
                        for index in range(max_window, window):
                            ref_samples[index] = sample
                        max_window = window
                        next_boundary = (max_window + 1) * window_ms
                    outcome, pril_field = pair
                    counts = tests_get(window)
                    if counts is None:
                        counts = tests[window] = {
                            "started": 0, "passed": 0,
                            "failed": 0, "aborted": 0,
                        }
                    counts[outcome] += 1
                    quantum = outstanding_pop(record["page"], None)
                    if quantum is not None:
                        quantum[pril_field] += 1
                elif kind == "mc_request":
                    n_mc_req += 1
                    window = int(record["t_ns"] * 1e-6 // window_ms)
                    if max_window is None:
                        max_window = window
                        next_boundary = (max_window + 1) * window_ms
                    elif window > max_window:
                        sample = (n_lo, n_testing, pages_seen)
                        for index in range(max_window, window):
                            ref_samples[index] = sample
                        max_window = window
                        next_boundary = (max_window + 1) * window_ms
                    entry = mc_get(window)
                    if entry is None:
                        entry = mc[window] = {
                            "requests": 0,
                            "refreshes": 0,
                            "latency_sum_ns": 0.0,
                            "latency_counts":
                                [0] * (len(LATENCY_BUCKET_BOUNDS_NS) + 1),
                        }
                    entry["requests"] += 1
                    latency = record["latency_ns"]
                    entry["latency_sum_ns"] += latency
                    index = 0
                    for bound in LATENCY_BUCKET_BOUNDS_NS:
                        if latency <= bound:
                            break
                        index += 1
                    entry["latency_counts"][index] += 1
                elif kind == "mc_refresh":
                    n_mc_ref += 1
                    window = int(record["t_ns"] * 1e-6 // window_ms)
                    if max_window is None:
                        max_window = window
                        next_boundary = (max_window + 1) * window_ms
                    elif window > max_window:
                        sample = (n_lo, n_testing, pages_seen)
                        for index in range(max_window, window):
                            ref_samples[index] = sample
                        max_window = window
                        next_boundary = (max_window + 1) * window_ms
                    entry = mc_get(window)
                    if entry is None:
                        entry = mc[window] = {
                            "requests": 0,
                            "refreshes": 0,
                            "latency_sum_ns": 0.0,
                            "latency_counts":
                                [0] * (len(LATENCY_BUCKET_BOUNDS_NS) + 1),
                        }
                    entry["refreshes"] += 1
                elif kind == "pril_quantum":
                    kinds[kind] += 1
                    current_quantum = {
                        "quantum": record["quantum"],
                        "predicted": record["predicted"],
                        "buffer": record["buffer"],
                        "started": 0,
                        "resolved": 0,
                        "aborted": 0,
                    }
                    pril_append(current_quantum)
                    last_started = float("-inf")
                elif kind == "energy_rollup":
                    kinds[kind] += 1
                    entry = {
                        "window_ns": record["window_ns"],
                        "refresh_pj": record["refresh_pj"],
                        "access_pj": record["access_pj"],
                        "background_pj": record["background_pj"],
                    }
                    if "channel" in record:
                        entry["channel"] = record["channel"]
                    self._energy.append(entry)
                    totals = self._energy_totals
                    for key in totals:
                        totals[key] += entry[key]
                else:
                    kinds[kind] += 1
        if n_ref:
            kinds["ref_transition"] += n_ref
        if n_started:
            kinds["test_started"] += n_started
        if n_mc_req:
            kinds["mc_request"] += n_mc_req
        if n_mc_ref:
            kinds["mc_refresh"] += n_mc_ref
        self._max_window = max_window
        self._pages_seen = pages_seen
        self._n_lo = n_lo
        self._n_testing = n_testing
        self._current_quantum = current_quantum
        self._last_started_ms = last_started

    def _fold_batch(self, batch: RecordBatch) -> None:
        """Fold a batch from its segments and order, building no record.

        Leaves the state ``_fold(batch)`` would. Kind counts come from
        segment lengths, test counts from one ``np.unique`` of (window,
        outcome) keys. The page records (transitions and tests) are
        taken in emission order, and one stable argsort by page lines up
        each page's records: it gives each transition's previous state,
        the pages seen for the first time and the open test (with its
        PRIL quantum) that each outcome closes. Running sums of the
        population are sampled where the stream first enters a window:
        ``np.maximum.accumulate`` finds the candidates, and each is
        tested with ``_fold``'s own comparisons. The touched entries of
        ``_page_state`` and ``_outstanding`` are read and written back
        through C-level ``map`` calls.

        A batch holding a kind whose fields only ``_fold`` reads
        (``_RECORD_KINDS``), a field this fold cannot read as ``_fold``
        does, or a time on which the two could round differently, is
        folded through its records instead.
        """
        segments = [s for s in batch.segments if s.length]
        codes, times, pages, states, prils = [], [], [], [], []
        for segment in segments:
            if segment.kind in _RECORD_KINDS:
                return self._fold(batch)
            code = _KIND_CODES.get(segment.kind, _OTHER)
            fields, n = segment.fields, segment.length
            state = None
            if code <= _ABORTED:
                t_ms, page = _times(segment), _pages(segment)
                if t_ms is None or page is None:
                    return self._fold(batch)
                if code == _REF:
                    state = fields.get("to")
                    if type(state) is not str:
                        return self._fold(batch)
            else:
                t_ms, page = np.zeros(n), np.zeros(n, dtype=np.int64)
            if code == _PRIL:
                try:
                    values = [fields[name]
                              for name in ("quantum", "predicted", "buffer")]
                except KeyError:
                    return self._fold(batch)
                prils.extend(zip(*[
                    v.tolist() if isinstance(v, np.ndarray) else [v] * n
                    for v in values
                ]))
            codes.append(code)
            times.append(t_ms)
            pages.append(page)
            states.append(state)
        if not segments:
            return

        # Each record's segment and kind code, in emission order; then
        # the page records' fields, in emission order.
        window_ms = self.window_ms
        seg_of = np.repeat(np.arange(len(segments)),
                           [s.length for s in segments])
        order = batch.order
        code_of = np.array(codes, dtype=np.int8)
        code_e = code_of[seg_of[order]]
        is_pril = code_e == _PRIL
        touch = code_e <= _ABORTED
        pos = order[touch]
        seg = seg_of[pos]
        code = code_of[seg]
        t_ms = np.concatenate(times)[pos]
        page = np.concatenate(pages)[pos]
        n = len(pos)
        windows = np.floor_divide(t_ms, window_ms)
        if not (np.abs(windows) < 2.0 ** 60).all():  # NaN, inf or huge
            return self._fold(batch)
        windows = windows.astype(np.int64)

        # Window crossings: the candidates raise the running maximum.
        # A transition crosses only at or past the next boundary, so a
        # candidate transition that rounds below it leaves the batch to
        # the record fold.
        max_window = self._max_window
        crossings = []
        if n:
            reach = np.empty(n, dtype=np.int64)
            reach[0] = (np.iinfo(np.int64).min if max_window is None
                        else max_window)
            np.maximum.accumulate(windows[:-1], out=reach[1:])
            np.maximum(reach[1:], reach[0], out=reach[1:])
            boundary = (float("-inf") if max_window is None
                        else (max_window + 1) * window_ms)
            for i in np.flatnonzero(windows > reach).tolist():
                if code[i] == _REF and not t_ms[i] >= boundary:
                    return self._fold(batch)
                window = int(windows[i])
                if max_window is not None:
                    crossings.append((i, max_window, window))
                max_window = window
                boundary = (max_window + 1) * window_ms
            lowest = page.min()
            if lowest < 0:
                negative = page[(code <= _STARTED) & (page < 0)]
                if len(negative):
                    raise TraceSchemaError(
                        f"negative page: {int(negative[0])!r}")

        # PRIL's announcements: each one's row of prils, in emission order.
        rows = (np.cumsum(code_of[seg_of] == _PRIL) - 1)[order[is_pril]]
        rows = rows.tolist()
        self._events_total += len(batch)
        kinds = self._kinds
        for segment in segments:
            kinds[segment.kind] += segment.length
        if not n:
            quanta = self._quanta(prils, rows, repeat((0, 0, 0)))
            if quanta:
                self._current_quantum = quanta[-1]
                self._last_started_ms = float("-inf")
            return
        self._max_window = max_window
        tests = self._tests
        test = code >= _STARTED
        keys, counts = np.unique(windows[test] * 4 + (code[test] - _STARTED),
                                 return_counts=True)
        for key, count in zip(keys.tolist(), counts.tolist()):
            window, outcome = divmod(key, 4)
            entry = tests.get(window)
            if entry is None:
                entry = tests[window] = {
                    "started": 0, "passed": 0, "failed": 0, "aborted": 0,
                }
            entry[_TEST_COUNTERS[outcome]] += count

        # Each test's quantum: 0 for the one current before the batch,
        # k for the k-th announced in it, -1 for none. A test belongs to
        # the last quantum announced before it unless a test since that
        # announcement started later than it (a new pass began).
        started = code == _STARTED
        group = np.cumsum(is_pril)[touch][started]
        started_ms = t_ms[started]
        quantum_of = np.full(n, -1, dtype=np.int64)
        n_quanta = len(rows)
        current = self._current_quantum
        last_started = self._last_started_ms
        if n_quanta:
            last_started = float("-inf")
        if len(group):
            previous = np.full(len(group), float("-inf"))
            if group[0] == 0:
                previous[0] = self._last_started_ms
            same = group[1:] == group[:-1]
            previous[1:][same] = started_ms[:-1][same]
            drop = started_ms < previous
            drops = np.cumsum(drop)
            head = np.searchsorted(group, group)
            cleared = drops > drops[head] - drop[head]
            quantum_of[started] = np.where(cleared, -1, group)
            if current is None:
                quantum_of[quantum_of == 0] = -1
            ends_cleared = group[-1] == n_quanta and cleared[-1]
            if group[-1] == n_quanta:
                last_started = float(started_ms[-1])
        else:
            ends_cleared = False

        # Line up each page's records, in emission order (a radix sort
        # when every page fits 16 bits).
        if lowest >= 0 and page.max() < 1 << 16:
            by_page = np.argsort(page.astype(np.uint16), kind="stable")
        else:
            by_page = np.argsort(page, kind="stable")
        ps, cs = page[by_page], code[by_page]
        first = np.empty(n, dtype=bool)
        first[0] = True
        np.not_equal(ps[1:], ps[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        group_of = np.cumsum(first) - 1
        start = starts[group_of]
        ends = np.append(starts[1:], n) - 1
        group_page = ps[starts]
        fill = deque(maxlen=0).extend

        # Refresh states: a page's first state record reads the state it
        # had before the batch; each transition the one before it.
        is_ref = cs == _REF
        prev_ref, last_ref = _previous(is_ref, start)
        is_state = cs <= _STARTED
        prev_state, _ = _previous(is_state, start)
        first_state = is_state & (prev_state < 0)
        state_pages = ps[first_state]
        page_state = self._page_state
        if len(state_pages) and state_pages[-1] >= len(page_state):
            page_state.extend(
                [None] * (int(state_pages[-1]) + 1 - len(page_state)))
        before = list(map(page_state.__getitem__, state_pages.tolist()))
        before_class = np.fromiter(
            map(_STATE_CLASS.get, before, repeat(_HI)),
            dtype=np.int8, count=len(before),
        )
        group_class = np.full(len(starts), _HI, dtype=np.int8)
        state_groups = group_of[first_state]
        group_class[state_groups] = before_class
        seg_sorted = seg[by_page]
        to_class = np.array(
            [_STATE_CLASS.get(state, _HI) for state in states],
            dtype=np.int8,
        )[seg_sorted]
        from_class = np.where(prev_ref >= 0, to_class[prev_ref],
                              group_class[group_of])
        # Each record's population change, as a _STEPS column: a test's
        # state is unchanged (from = to), a page's first record from
        # the unseen state counts it seen.
        step = np.empty(n, dtype=np.int8)
        step[by_page] = (
            np.where(is_ref, from_class * 4 + to_class, _HI * 5)
            + 16 * (first_state & (group_class[group_of] == _UNSEEN))
        )
        delta = np.take(np.array(_STEPS, dtype=np.int64), step, axis=0)
        running = np.cumsum(delta, axis=0)
        base = (self._n_lo, self._n_testing, self._pages_seen)
        if crossings:
            at = [i for i, _, _ in crossings]
            sampled = (running[at] - delta[at]).tolist()
            ref_samples = self._ref_samples
            for (_, old, new), counts in zip(crossings, sampled):
                sample = tuple(map(int.__add__, base, counts))
                for index in range(old, new):
                    ref_samples[index] = sample
        self._n_lo, self._n_testing, self._pages_seen = map(
            int.__add__, base, running[-1].tolist())
        group_ref = last_ref[ends][state_groups]
        has_ref = group_ref >= starts[state_groups]
        fill(map(page_state.__setitem__, state_pages[has_ref].tolist(),
                 map(states.__getitem__,
                     seg_sorted[group_ref[has_ref]].tolist())))
        fill(map(page_state.__setitem__,
                 state_pages[~has_ref & (before_class == _UNSEEN)].tolist(),
                 repeat("hi_ref")))

        # Tests: each outcome closes the page's last test opened before
        # it in the batch, or, with none, the one open before the batch.
        q_sorted = quantum_of[by_page]
        is_test = cs >= _STARTED
        prev_test, last_test = _previous(is_test, start)
        outcome = cs >= _PASSED
        opener = prev_test[outcome]
        aborted = cs[outcome] == _ABORTED
        in_batch = opener >= 0
        closes = np.where(in_batch & (cs[opener] == _STARTED),
                          q_sorted[opener], -1)
        size = n_quanta + 1
        counted = quantum_of[quantum_of >= 0]
        tallies = zip(
            np.bincount(counted, minlength=size).tolist(),
            np.bincount(closes[(closes >= 0) & ~aborted],
                        minlength=size).tolist(),
            np.bincount(closes[(closes >= 0) & aborted],
                        minlength=size).tolist(),
        )
        if current is not None:
            started_n, resolved_n, aborted_n = next(tallies)
            current["started"] += started_n
            current["resolved"] += resolved_n
            current["aborted"] += aborted_n
        else:
            next(tallies)
        quanta = self._quanta(prils, rows, tallies)
        outstanding = self._outstanding
        closed = map(outstanding.pop, ps[outcome][~in_batch].tolist(),
                     repeat(None))
        for quantum, was_aborted in zip(closed, aborted[~in_batch].tolist()):
            if quantum is not None:
                quantum["aborted" if was_aborted else "resolved"] += 1
        group_test = last_test[ends]
        has_test = group_test >= starts
        still_open = has_test & (cs[group_test] == _STARTED)
        # Index -1 (a test no quantum predicted) reads None.
        table = [current, *quanta, None]
        outstanding.update(zip(
            group_page[still_open].tolist(),
            map(table.__getitem__, q_sorted[group_test[still_open]].tolist()),
        ))
        fill(map(outstanding.pop, group_page[has_test & ~still_open].tolist(),
                 repeat(None)))
        if quanta:
            current = quanta[-1]
        self._current_quantum = None if ends_cleared else current
        self._last_started_ms = last_started

    def _quanta(self, prils, rows, tallies) -> List[Dict[str, Any]]:
        """Append the quanta announced in a batch to the PRIL rollup:
        ``prils[row]`` holds each one's fields, ``tallies`` its started,
        resolved and aborted test counts."""
        quanta = [
            {"quantum": q, "predicted": p, "buffer": b,
             "started": s, "resolved": r, "aborted": a}
            for (q, p, b), (s, r, a) in zip(map(prils.__getitem__, rows),
                                            tallies)
        ]
        self._pril.extend(quanta)
        return quanta

    # -- rollup --------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe time-series rollup of everything consumed so far.

        Idempotent: the in-progress window is sampled on the fly without
        mutating aggregation state, so calling this mid-run is safe.
        """
        self.drain()
        ref_samples = dict(self._ref_samples)
        if self._max_window is not None:
            ref_samples.setdefault(
                self._max_window,
                (self._n_lo, self._n_testing, self._pages_seen),
            )
        indices = sorted(set(self._tests) | set(self._mc) | set(ref_samples))
        windows = []
        for index in indices:
            entry: Dict[str, Any] = {
                "index": index,
                "t_ms": index * self.window_ms,
                "tests": dict(self._tests.get(index) or {
                    "started": 0, "passed": 0, "failed": 0, "aborted": 0,
                }),
            }
            sample = ref_samples.get(index)
            if sample is not None:
                lo, testing, seen = sample
                total = self.total_pages if self.total_pages else seen
                entry["ref"] = {
                    "lo_rows": lo,
                    "testing_rows": testing,
                    "total_rows": total,
                    "lo_fraction": lo / total if total else 0.0,
                    "testing_fraction": testing / total if total else 0.0,
                    "hi_fraction": (
                        (total - lo - testing) / total if total else 0.0
                    ),
                }
            else:
                entry["ref"] = None
            mc = self._mc.get(index)
            if mc is not None:
                requests = mc["requests"]
                counts = mc["latency_counts"]
                entry["mc"] = {
                    "requests": requests,
                    "refreshes": mc["refreshes"],
                    "refresh_per_s": mc["refreshes"] / (self.window_ms * 1e-3),
                    "latency_mean_ns": (
                        mc["latency_sum_ns"] / requests if requests else 0.0
                    ),
                    "latency_p50_ns": _percentile_from_buckets(
                        LATENCY_BUCKET_BOUNDS_NS, counts, requests, 0.50),
                    "latency_p95_ns": _percentile_from_buckets(
                        LATENCY_BUCKET_BOUNDS_NS, counts, requests, 0.95),
                    "latency_p99_ns": _percentile_from_buckets(
                        LATENCY_BUCKET_BOUNDS_NS, counts, requests, 0.99),
                }
            else:
                entry["mc"] = None
            windows.append(entry)
        pril = []
        for quantum in self._pril:
            entry = dict(quantum)
            started = entry["started"]
            entry["hit_rate"] = (
                entry["resolved"] / started if started else None
            )
            pril.append(entry)
        return {
            "window_ms": self.window_ms,
            "events_total": self.events_total,
            "kinds": dict(sorted(self._kinds.items())),
            "windows": windows,
            "pril": pril,
            "energy": {
                "rollups": [dict(e) for e in self._energy],
                "totals": dict(self._energy_totals),
            } if self._energy else None,
        }


def aggregate_trace(
    records: Iterable[Mapping],
    window_ms: float = 1024.0,
    total_pages: Optional[int] = None,
) -> Dict[str, Any]:
    """Offline aggregation: fold an iterable of records into rollups.

    Feeding this the records of a JSONL trace file produces exactly the
    rollups an in-process :class:`AggregatingSink` computed during the
    run (same record sequence, same arithmetic) — the property the test
    suite pins down.
    """
    sink = AggregatingSink(window_ms=window_ms, total_pages=total_pages)
    for record in records:
        sink.emit(record)
    return sink.to_dict()
