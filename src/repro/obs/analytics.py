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
asserts as a property.

Windowing uses *simulated* time: events carrying ``t_ms`` fall into
window ``floor(t_ms / window_ms)``; controller events carrying ``t_ns``
are converted to milliseconds first, so both clock domains share one
window axis. The refresh-state population is sampled when the stream
first crosses a window boundary (events are processed in emission
order), and the in-progress window is sampled at :meth:`to_dict` time.
"""

from __future__ import annotations

from collections import defaultdict
from typing import (
    Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple,
)

from .trace import TraceSchemaError, emit_batch

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
    largest producer (MEMCON's verdict stream) never fills the buffer.
    """

    __slots__ = (
        "window_ms", "total_pages", "emit", "_events_total", "_buffer",
        "_kinds", "_tests", "_mc", "_ref_samples", "_max_window",
        "_page_state", "_pages_seen", "_n_lo", "_n_testing", "_pril",
        "_current_quantum", "_outstanding", "_energy", "_energy_totals",
    )

    def __init__(
        self, window_ms: float = 1024.0, total_pages: Optional[int] = None
    ) -> None:
        if window_ms <= 0:
            raise ValueError("window_ms must be positive")
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
        # PRIL quanta and the tests attributed to each prediction batch.
        self._pril: List[Dict[str, Any]] = []
        self._current_quantum: Optional[Dict[str, Any]] = None
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
        """Fold a batch now, after any records buffered before it."""
        self.drain()
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
