"""Live run status: a periodic stderr line driven by the aggregators.

:class:`LiveReporter` is a trace *sink*: placed after an
:class:`~repro.obs.analytics.AggregatingSink` in a
:class:`~repro.obs.analytics.TeeSink`, it sees every record the
aggregator just consumed and — at most once per ``interval_s`` of wall
time — prints a one-line status::

    [live] 48210 events (61233 ev/s) | lo-ref rows 623 | tests outstanding 4 | experiments 3/15 | eta 41s

It holds no aggregation state of its own beyond run progress (the
``run_started``/``experiment_finished`` records for the ETA); row
populations and outstanding-test counts come straight from the shared
aggregator, so watching a run costs one clock read per event, or per
batch for records delivered through ``emit_many`` (of a columnar batch
it reads only the progress records).

A sharded run feeds the same sinks: the executor emits each unit's
records in the parent as units are accepted. The runner also passes
the executor's worker rows to :meth:`show_workers`, and each repaint
then prints one row per pool worker — units done, the last unit it
finished and its RSS peak::

    [live] 194464 events (183173 ev/s) | lo-ref rows 1857 | tests outstanding 0 | experiments 1/2 | eta 1s
      worker-g1-4711: units 14 | last fig14/AVCHD | rss 90MB

Lines are clipped to the terminal width, re-queried on every repaint
(so window resizes are picked up without any SIGWINCH handler) and
falling back to 80 columns when there is no terminal (CI redirects,
pipes).
"""

from __future__ import annotations

import os
import sys
import time
from typing import Any, Callable, Mapping, Optional, Sequence, TextIO

from .analytics import AggregatingSink
from .trace import RecordBatch

__all__ = ["LiveReporter"]

#: Width used when the output is not a terminal (CI logs, pipes).
FALLBACK_COLUMNS = 80


class LiveReporter:
    """Throttled status-line sink over a shared aggregator.

    Parameters
    ----------
    aggregator:
        The :class:`AggregatingSink` receiving the same record stream.
    stream:
        Where status lines go (default ``sys.stderr``).
    interval_s:
        Minimum wall-clock spacing between status lines.
    clock:
        Monotonic time source, injectable for tests.
    """

    def __init__(
        self,
        aggregator: AggregatingSink,
        stream: Optional[TextIO] = None,
        interval_s: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if interval_s < 0:
            raise ValueError("interval_s must be non-negative")
        self.aggregator = aggregator
        self.stream = stream if stream is not None else sys.stderr
        self.interval_s = interval_s
        self._clock = clock
        self._started = clock()
        self._last_report = self._started
        self._experiments_total: Optional[int] = None
        self._experiments_done = 0
        self._workers: Sequence[Mapping[str, Any]] = ()
        self.reports_written = 0

    def emit(self, record: Mapping) -> None:
        self._track(record)
        self.tick()

    #: The run-progress kinds :meth:`_track` reads.
    _PROGRESS_KINDS = frozenset({"run_started", "experiment_finished"})

    def emit_many(self, records: Sequence[Mapping]) -> None:
        """Track a batch's run progress, then repaint at most once.

        Of a :class:`~repro.obs.trace.RecordBatch` only the progress
        kinds' records are read, so watching a run builds none of the
        verdict records it streams.
        """
        if isinstance(records, RecordBatch):
            records = records.select(self._PROGRESS_KINDS)
        for record in records:
            self._track(record)
        self.tick()

    def _track(self, record: Mapping) -> None:
        """Fold the run-progress markers into the ETA state."""
        kind = record.get("kind")
        if kind == "run_started":
            experiments = record.get("experiments")
            # An empty experiment list is still a known total (0), so
            # the final line can say "experiments 0/0"; only a missing
            # field leaves the total unknown.
            self._experiments_total = (
                len(experiments) if experiments is not None else None
            )
        elif kind == "experiment_finished":
            self._experiments_done += 1

    def show_workers(self, rows: Sequence[Mapping[str, Any]]) -> None:
        """Adopt the executor's worker rows; repaint if one is due."""
        self._workers = rows
        self.tick()

    def tick(self) -> None:
        """Repaint on wall-clock alone (no record needed)."""
        now = self._clock()
        if now - self._last_report >= self.interval_s:
            self._write_status(now)

    def close(self) -> None:
        """Write one final status line (totals for the whole run)."""
        self._write_status(self._clock())

    # ------------------------------------------------------------------
    def _columns(self) -> Optional[int]:
        """Clip width: the tty's, 80 if a tty won't say, None otherwise.

        A non-terminal stream (CI redirect, pipe, test buffer) gets no
        clipping at all — log files want the whole line.
        """
        try:
            if not self.stream.isatty():
                return None
        except (OSError, ValueError, AttributeError):
            return None
        try:
            # Queried on every repaint, so window resizes are picked up
            # without installing a SIGWINCH handler.
            return os.get_terminal_size(self.stream.fileno()).columns
        except (OSError, ValueError, AttributeError):
            return FALLBACK_COLUMNS

    def _write_status(self, now: float) -> None:
        aggregator = self.aggregator
        elapsed = max(now - self._started, 1e-9)
        rate = aggregator.events_total / elapsed
        parts = [
            f"{aggregator.events_total} events ({rate:.0f} ev/s)",
            f"lo-ref rows {aggregator.rows_lo}",
            f"tests outstanding {aggregator.tests_outstanding}",
        ]
        total = self._experiments_total
        done = self._experiments_done
        if total is not None:
            parts.append(f"experiments {done}/{total}")
            if 0 < done < total:
                eta_s = elapsed / done * (total - done)
                parts.append(f"eta {eta_s:.0f}s")
        lines = ["[live] " + " | ".join(parts)]
        for row in self._workers:
            last = row["timeline"][-1]
            lines.append(
                f"  {row['shard']}: units {row['units']} | "
                f"last {last['experiment']}/{last['unit']} | "
                f"rss {row['rss_peak_bytes'] / (1 << 20):.0f}MB"
            )
        columns = self._columns()
        for line in lines:
            if columns is not None:
                line = line[:max(columns, 16)]
            print(line, file=self.stream, flush=True)
        self._last_report = now
        self.reports_written += 1
