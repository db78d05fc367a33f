"""Process-pool execution of work units with retries and checkpointing.

The executor turns a deterministic unit list (:mod:`.units`) into
seq-ordered payloads, using a ``concurrent.futures``
``ProcessPoolExecutor`` under a small supervision loop:

* **chunked dispatch** — units ship in contiguous chunks to amortise
  pickling, with at most ``max_in_flight`` chunks outstanding
  (backpressure keeps the queue shallow so retries stay cheap);
* **crash handling** — a worker dying mid-chunk (``BrokenProcessPool``)
  fails every chunk in flight on that pool; their units are requeued
  as singleton retries on a fresh pool, and the broken pool counts as
  one lost worker;
* **per-unit timeout** — a chunk overrunning ``unit_timeout_s`` per
  unit is abandoned, its stuck workers terminated, and its units
  requeued;
* **retry cap + serial degrade** — a unit failing more than
  ``max_retries`` times runs serially in the parent process, where a
  deterministic error finally surfaces with a real traceback;
* **checkpointing** — accepted payloads are journalled as they finish,
  and units whose ``(key, fingerprint)`` already sit in the journal are
  skipped wholesale (``--resume``).

Observability travels with the payload. A worker mirrors three facts of
the parent's obs state, read when the pool is built: whether a trace
sink is installed, whether the metrics registry is enabled, and whether
forensics is on. It captures each unit's trace deliveries in memory (a
:class:`~repro.obs.trace.RecordBatch` as it came, which pickles as
columns; other records as dict copies), times the unit under a fresh
span collector, and returns the deliveries, the unit's metrics snapshot
and its span subtrees in the result entry that carries the payload; a
failed attempt returns none of them. The parent re-emits each accepted
unit's deliveries, in order, through its own sink once every earlier
unit has been emitted, folds the snapshot into its registry and the
spans under its open span, so a ``--jobs N`` run produces the serial
run's event stream and span tree, written through the same encoders.
Each unit's result also carries when and where it ran (worker label,
wall-clock start and end, RSS), from which the parent builds the
per-worker timeline in :meth:`ParallelExecutor.topology`.

Determinism: payloads are returned in unit ``seq`` order no matter
which worker finished first, so ``merge_payloads`` sees exactly the
serial sequence.
"""

from __future__ import annotations

import itertools
import logging
import multiprocessing
import os
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED, Future, ProcessPoolExecutor, wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple,
)

from .. import obs
from .checkpoint import CheckpointJournal
from .units import WorkUnit, execute_unit, unit_fingerprint

__all__ = ["ExecutionStats", "ParallelExecutor"]

logger = logging.getLogger(__name__)


def rss_bytes() -> Optional[int]:
    """Current resident-set size of this process, best effort.

    Reads ``/proc/self/statm`` where available (Linux), falls back to
    ``resource.getrusage`` peak RSS, and returns ``None`` on platforms
    offering neither — telemetry must never raise.
    """
    try:
        with open("/proc/self/statm", "rb") as handle:
            pages = int(handle.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # Linux reports KiB, macOS bytes; either way it is a usable scale.
        return peak * 1024 if peak < 1 << 34 else peak
    except Exception:
        return None


# ----------------------------------------------------------------------
# Worker-side plumbing (top level: must be picklable / importable)
# ----------------------------------------------------------------------
_WORKER_LABEL: Optional[str] = None


class _UnitCapture:
    """Trace sink that keeps one unit's deliveries, in order, for the parent.

    A :class:`~repro.obs.trace.RecordBatch` is kept as it came. Records
    delivered any other way are copied into a list of dicts, one list per
    run of such deliveries, so each delivery can be re-emitted whole.
    """

    def __init__(self) -> None:
        self.deliveries: List[Sequence[Mapping]] = []

    def emit(self, record: Mapping) -> None:
        self.emit_many((record,))

    def emit_many(self, records: Sequence[Mapping]) -> None:
        if isinstance(records, obs.RecordBatch):
            self.deliveries.append(records)
            return
        if not self.deliveries or not isinstance(self.deliveries[-1], list):
            self.deliveries.append([])
        self.deliveries[-1].extend([dict(record) for record in records])

    def take(self) -> List[Sequence[Mapping]]:
        """The deliveries so far; the capture starts over empty."""
        deliveries, self.deliveries = self.deliveries, []
        return deliveries


def _worker_init(
    tracing: bool, metrics: bool, forensics: bool, generation: int
) -> None:
    """Give the worker its own obs world (never the parent's file handles)."""
    global _WORKER_LABEL

    _WORKER_LABEL = f"worker-g{generation}-{os.getpid()}"
    obs.set_collector(None)
    obs.set_sink(_UnitCapture() if tracing else None)
    obs.set_forensics(forensics)
    obs.set_registry(obs.MetricsRegistry(enabled=metrics))


def _run_unit_chunk(
    chunk: List[Dict[str, Any]], quick: bool, seed: int
) -> List[Dict[str, Any]]:
    """Execute a chunk of units; per-unit outcomes, never a chunk throw.

    Exceptions are captured per unit so one bad unit doesn't discard its
    chunk-mates' finished work; the parent decides retry vs degrade. An
    ``ok`` entry carries the unit's span subtrees, its trace deliveries
    (when tracing) and its metrics snapshot (when metrics are on); a
    failed one carries none of them.
    """
    sink = obs.get_sink()
    registry = obs.get_registry()
    out: List[Dict[str, Any]] = []
    for unit_dict in chunk:
        unit = WorkUnit.from_dict(unit_dict)
        entry: Dict[str, Any] = {
            "key": unit.key,
            "worker": os.getpid(),
            "shard": _WORKER_LABEL,
            "t_start": time.time(),
        }
        started = time.perf_counter()
        with obs.collect_spans() as spans:
            try:
                entry["payload"] = execute_unit(unit, quick=quick, seed=seed)
                entry["ok"] = True
            except Exception as exc:  # noqa: BLE001 — repr crosses the pipe
                entry["ok"] = False
                entry["error"] = f"{type(exc).__name__}: {exc}"
        entry["wall_s"] = time.perf_counter() - started
        entry["t_end"] = time.time()
        entry["rss_bytes"] = rss_bytes()
        if entry["ok"]:
            entry["spans"] = [
                node.to_dict() for node in spans.root.children.values()
            ]
        if sink is not None:
            deliveries = sink.take()
            if entry["ok"]:
                entry["deliveries"] = deliveries
        if registry.enabled:
            if entry["ok"]:
                entry["metrics"] = registry.snapshot()
            registry.reset()
        out.append(entry)
    return out


# ----------------------------------------------------------------------
# Parent-side supervision
# ----------------------------------------------------------------------
@dataclass
class ExecutionStats:
    """What the supervision loop did for one unit list."""

    executed: int = 0
    skipped: int = 0
    retried: int = 0
    timeouts: int = 0
    degraded: int = 0
    pool_rebuilds: int = 0
    #: One per pool generation that a worker crash broke.
    workers_lost: int = 0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "executed": self.executed,
            "skipped": self.skipped,
            "retried": self.retried,
            "timeouts": self.timeouts,
            "degraded": self.degraded,
            "pool_rebuilds": self.pool_rebuilds,
            "workers_lost": self.workers_lost,
        }


class ParallelExecutor:
    """Run work units across a process pool, deterministically.

    One executor serves a whole runner invocation: the pool persists
    across experiments so worker start-up is paid once. ``jobs == 1``
    runs inline in the parent (no pool) — the code path ``--resume``
    shares with sharded runs.
    """

    def __init__(
        self,
        jobs: int,
        *,
        quick: bool = True,
        seed: int = 1,
        unit_timeout_s: Optional[float] = None,
        max_retries: int = 2,
        chunk_size: Optional[int] = None,
        max_in_flight: Optional[int] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if unit_timeout_s is not None and unit_timeout_s <= 0:
            raise ValueError("unit_timeout_s must be positive")
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        self.jobs = jobs
        self.quick = quick
        self.seed = seed
        self.unit_timeout_s = unit_timeout_s
        self.max_retries = max_retries
        self.chunk_size = chunk_size
        self.max_in_flight = max_in_flight or jobs * 2
        self._pool: Optional[ProcessPoolExecutor] = None
        self._generation = 0
        #: Shard label -> worker row (see :meth:`topology`).
        self._workers: Dict[str, Dict[str, Any]] = {}
        methods = multiprocessing.get_all_start_methods()
        self.start_method = "fork" if "fork" in methods else methods[0]

    # -- pool lifecycle -------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._generation += 1
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs,
                mp_context=multiprocessing.get_context(self.start_method),
                initializer=_worker_init,
                initargs=(
                    obs.trace_active(), obs.get_registry().enabled,
                    obs.forensics_active(), self._generation,
                ),
            )
        return self._pool

    def _discard_pool(self, terminate: bool = False) -> None:
        pool, self._pool = self._pool, None
        if pool is None:
            return
        if terminate:
            # Private but stable across 3.8-3.13; the only way to reclaim
            # a worker stuck inside a timed-out unit.
            for process in getattr(pool, "_processes", {}).values():
                process.terminate()
        pool.shutdown(wait=not terminate, cancel_futures=True)

    def shutdown(self) -> None:
        """Drain the pool and let its workers exit."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def topology(self) -> Dict[str, Any]:
        """Worker topology for the run manifest.

        ``workers`` holds one row per shard that had a unit accepted:
        its label, unit count, the largest RSS seen at a unit's end, and
        a ``timeline`` of ``{experiment, unit, seq, t_start, t_end,
        wall_s}`` intervals on the worker's wall clock.
        """
        return {
            "jobs": self.jobs,
            "start_method": self.start_method,
            "generations": self._generation,
            "workers": [self._workers[shard] for shard in sorted(self._workers)],
        }

    def _record_unit(self, unit: WorkUnit, entry: Mapping[str, Any]) -> None:
        """Fold one accepted unit's result entry into its worker's row."""
        shard = entry["shard"]
        row = self._workers.get(shard)
        if row is None:
            row = self._workers[shard] = {
                "shard": shard, "units": 0, "rss_peak_bytes": 0,
                "timeline": [],
            }
        row["units"] += 1
        row["rss_peak_bytes"] = max(
            row["rss_peak_bytes"], entry.get("rss_bytes") or 0
        )
        row["timeline"].append({
            "experiment": unit.experiment,
            "unit": unit.unit_id,
            "seq": unit.seq,
            "t_start": entry["t_start"],
            "t_end": entry["t_end"],
            "wall_s": entry["wall_s"],
        })

    # -- unit execution -------------------------------------------------
    def run_units(
        self,
        units: Sequence[WorkUnit],
        *,
        journal: Optional[CheckpointJournal] = None,
        done: Optional[Mapping[str, Mapping[str, Any]]] = None,
        on_unit: Optional[Callable[[WorkUnit, bool], None]] = None,
    ) -> Tuple[List[Any], ExecutionStats]:
        """Execute ``units``, returning payloads in ``seq`` order.

        ``done`` maps unit keys to journal entries from a previous run;
        a unit is skipped iff its entry's fingerprint matches the unit's
        current fingerprint. Freshly accepted payloads are appended to
        ``journal`` the moment they arrive, their metrics snapshots fold
        into the parent's registry, and a pooled unit's span subtrees
        fold under the parent's open span (an inline unit already ran
        under it). Each accepted unit's trace deliveries go to the
        parent's sink, one ``emit_many`` each, once every unit before it
        in ``units`` has been emitted (a skipped unit has none), so the
        stream is the serial one whatever order units finish in.
        ``on_unit(unit, skipped)`` fires once per resolved unit
        (progress reporting).
        """
        stats = ExecutionStats()
        fingerprints = {
            unit.key: unit_fingerprint(unit, self.quick, self.seed)
            for unit in units
        }
        results: Dict[int, Any] = {}
        #: Deliveries of resolved units still waiting for an earlier unit.
        held: Dict[str, Optional[List[Sequence[Mapping]]]] = {}
        emitted = 0

        def resolve(
            unit: WorkUnit, deliveries: Optional[List[Sequence[Mapping]]]
        ) -> None:
            nonlocal emitted
            held[unit.key] = deliveries
            while emitted < len(units) and units[emitted].key in held:
                for records in held.pop(units[emitted].key) or ():
                    obs.emit_many(records)
                emitted += 1

        pending: List[WorkUnit] = []
        for unit in units:
            entry = (done or {}).get(unit.key)
            if entry is not None and entry.get("fp") == fingerprints[unit.key]:
                results[unit.seq] = entry["payload"]
                stats.skipped += 1
                resolve(unit, None)
                if on_unit:
                    on_unit(unit, True)
            else:
                pending.append(unit)

        def accept(unit: WorkUnit, entry: Mapping[str, Any]) -> None:
            payload = entry["payload"]
            results[unit.seq] = payload
            stats.executed += 1
            self._record_unit(unit, entry)
            if entry.get("metrics"):
                obs.get_registry().merge(entry["metrics"])
            collector = obs.get_collector()
            if collector is not None and entry.get("spans"):
                collector.merge(entry["spans"])
            resolve(unit, entry.get("deliveries"))
            if journal is not None:
                journal.append(
                    unit.key, fingerprints[unit.key], payload,
                    wall_s=entry["wall_s"], worker=entry["worker"],
                )
            if on_unit:
                on_unit(unit, False)

        if pending:
            if self.jobs == 1:
                self._run_inline(pending, accept)
            else:
                self._run_pooled(pending, accept, stats, fingerprints)
        return [results[unit.seq] for unit in units], stats

    # -- inline (jobs == 1, and the serial-degrade path) ----------------
    def _run_inline(
        self, units: Sequence[WorkUnit], accept: Callable[..., None]
    ) -> None:
        """Run units in the parent; metrics go straight to its registry.

        Beside a pool, an earlier unit may still be out on a worker, so
        each unit's deliveries are captured like a worker's and join the
        stream in unit order. Without one, every earlier unit is already
        done and records stream straight to the sink.
        """
        for unit in units:
            sink = obs.get_sink()
            capture = (
                _UnitCapture() if sink is not None and self.jobs > 1 else None
            )
            if capture is not None:
                obs.set_sink(capture)
            t_start = time.time()
            started = time.perf_counter()
            try:
                payload = execute_unit(unit, quick=self.quick, seed=self.seed)
            finally:
                obs.set_sink(sink)
            wall_s = time.perf_counter() - started
            accept(unit, {
                "payload": payload, "worker": os.getpid(), "shard": "parent",
                "t_start": t_start, "t_end": time.time(), "wall_s": wall_s,
                "rss_bytes": rss_bytes(),
                "deliveries": capture.take() if capture is not None else None,
            })

    # -- pooled ----------------------------------------------------------
    def _chunk(self, units: Sequence[WorkUnit]) -> List[List[WorkUnit]]:
        size = self.chunk_size or max(
            1, -(-len(units) // (self.jobs * 4))  # ceil division
        )
        return [list(units[i:i + size]) for i in range(0, len(units), size)]

    @staticmethod
    def _record_worker_lost(
        stats: ExecutionStats, unit: WorkUnit, fingerprint: Optional[str]
    ) -> None:
        """Count one lost worker, naming the first unit of its failed chunk.

        A broken pool fails every chunk in flight, so the first failed
        chunk of the earliest submission is the best guess at what the
        dead worker held. The event goes to the parent's sink at once,
        ahead of records still held for unit order.
        """
        stats.workers_lost += 1
        obs.emit(
            "worker_lost",
            experiment=unit.experiment,
            unit=unit.unit_id,
            fingerprint=fingerprint,
        )
        logger.warning(
            "worker lost while holding unit %s/%s (fingerprint %s)",
            unit.experiment, unit.unit_id, fingerprint,
        )

    def _run_pooled(
        self,
        units: Sequence[WorkUnit],
        accept: Callable[..., None],
        stats: ExecutionStats,
        fingerprints: Mapping[str, str],
    ) -> None:
        queue = deque(self._chunk(units))
        attempts: Dict[str, int] = {}
        submissions = itertools.count()
        #: future -> (units, submit time, pool generation, submission no.)
        in_flight: Dict[Any, Tuple[List[WorkUnit], float, int, int]] = {}
        units_by_key = {unit.key: unit for unit in units}
        retired: Set[int] = set()

        def submit(chunk: List[WorkUnit]) -> None:
            pool = self._ensure_pool()
            try:
                future = pool.submit(
                    _run_unit_chunk, [unit.as_dict() for unit in chunk],
                    self.quick, self.seed,
                )
            except BrokenProcessPool as exc:
                # The pool broke before its failed chunks reached the loop
                # (or while idle): fail this chunk with them, so the loop
                # retires the generation as usual.
                future = Future()
                future.set_exception(exc)
            in_flight[future] = (
                chunk, time.monotonic(), self._generation, next(submissions)
            )

        def retire(generation: int, terminate: bool = False) -> bool:
            """Discard a failed pool generation; True only the first time.

            A broken pool fails every chunk in flight on it, so only its
            first failure rebuilds the pool (and, for a crash, counts a
            lost worker). Only the current generation can be unretired.
            """
            if generation in retired:
                return False
            retired.add(generation)
            stats.pool_rebuilds += 1
            self._discard_pool(terminate=terminate)
            return True

        def handle_failure(unit: WorkUnit, reason: str) -> None:
            count = attempts.get(unit.key, 0) + 1
            attempts[unit.key] = count
            if count > self.max_retries:
                logger.warning(
                    "unit %s failed %d times (%s); degrading to serial",
                    unit.key, count, reason,
                )
                stats.degraded += 1
                self._run_inline([unit], accept)
            else:
                logger.warning(
                    "unit %s failed (%s); retrying (%d/%d)",
                    unit.key, reason, count, self.max_retries,
                )
                stats.retried += 1
                queue.append([unit])  # retries go out as singletons

        while queue or in_flight:
            while queue and len(in_flight) < self.max_in_flight:
                submit(queue.popleft())
            timeout = None
            if self.unit_timeout_s is not None and in_flight:
                now = time.monotonic()
                deadlines = [
                    submitted + self.unit_timeout_s * len(chunk) - now
                    for chunk, submitted, _, _ in in_flight.values()
                ]
                timeout = max(0.0, min(deadlines))
            finished, _ = wait(
                set(in_flight), timeout=timeout, return_when=FIRST_COMPLETED
            )
            # In submission order: after a crash, the earliest failed
            # chunk is the likeliest to have been on the dead worker.
            for future in sorted(finished, key=lambda f: in_flight[f][3]):
                chunk, _, generation, _ = in_flight.pop(future)
                try:
                    entries = future.result()
                except Exception as exc:  # pool plumbing, not unit code
                    crashed = isinstance(exc, BrokenProcessPool)
                    if retire(generation) and crashed:
                        self._record_worker_lost(
                            stats, chunk[0], fingerprints.get(chunk[0].key)
                        )
                    reason = (
                        "worker process died" if crashed
                        else f"dispatch failed: {exc!r}"
                    )
                    for unit in chunk:
                        handle_failure(unit, reason)
                    continue
                for entry in entries:
                    unit = units_by_key[entry["key"]]
                    if entry.get("ok"):
                        accept(unit, entry)
                    else:
                        handle_failure(
                            unit, entry.get("error", "unit raised")
                        )
            if self.unit_timeout_s is not None:
                now = time.monotonic()
                overdue = [
                    future
                    for future, (chunk, submitted, _, _) in in_flight.items()
                    if now - submitted > self.unit_timeout_s * len(chunk)
                    and not future.done()
                ]
                if overdue:
                    stats.timeouts += len(overdue)
                    abandoned = [in_flight.pop(future) for future in overdue]
                    for generation in {gen for _, _, gen, _ in abandoned}:
                        retire(generation, terminate=True)
                    for chunk, _, _, _ in abandoned:
                        for unit in chunk:
                            handle_failure(unit, "unit timeout")
