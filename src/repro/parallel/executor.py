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

Workers initialise their own observability: a per-worker JSONL trace
shard and metrics registry (flushed at process exit through
``multiprocessing.util.Finalize`` finalisers), plus ``unit_started`` /
``unit_finished`` marker events bracketing every unit so the merge
layer (:mod:`.merge`) can reassemble the exact serial event order.
Each unit's result also carries when and where it ran (worker label,
wall-clock start and end, RSS), from which the parent builds the
per-worker timeline in :meth:`ParallelExecutor.topology`.

Determinism: payloads are returned in unit ``seq`` order no matter
which worker finished first, so ``merge_payloads`` sees exactly the
serial sequence.
"""

from __future__ import annotations

import json
import logging
import multiprocessing
import multiprocessing.util
import os
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED, Future, ProcessPoolExecutor, wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple,
)

from ..obs.profile import rss_bytes
from .checkpoint import CheckpointJournal
from .units import WorkUnit, execute_unit, unit_fingerprint

__all__ = [
    "ExecutionStats",
    "ParallelExecutor",
    "WorkerObsConfig",
    "metrics_shard_path",
    "trace_shard_path",
]

logger = logging.getLogger(__name__)


def _split_ext(base: str) -> Tuple[str, str]:
    stem, ext = os.path.splitext(base)
    return stem, ext or ".jsonl"


def trace_shard_path(base: str, label: str) -> str:
    """Shard file for one event-stream producer (``label`` = who)."""
    stem, ext = _split_ext(base)
    return f"{stem}.{label}{ext}"


def metrics_shard_path(base: str, label: str) -> str:
    """Per-worker metrics-snapshot file next to the final snapshot."""
    stem, _ = os.path.splitext(base)
    return f"{stem}.{label}.json"


@dataclass(frozen=True)
class WorkerObsConfig:
    """What observability each worker process should produce.

    ``trace_base``/``metrics_base`` are the *final* output paths; each
    worker derives its own shard next to them (``t.worker-g1-123.jsonl``,
    ``m.worker-g1-123.json``) and the merge layer folds the shards back.
    ``forensics`` enables the decision-provenance gate in every worker,
    mirroring the parent's ``--forensics`` state.
    """

    trace_base: Optional[str] = None
    metrics_base: Optional[str] = None
    forensics: bool = False


# ----------------------------------------------------------------------
# Worker-side plumbing (top level: must be picklable / importable)
# ----------------------------------------------------------------------
_WORKER_LABEL: Optional[str] = None


def _dump_worker_metrics(registry, path: str) -> None:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(registry.snapshot(), handle)
        handle.write("\n")


def _worker_init(obs_cfg: WorkerObsConfig, generation: int) -> None:
    """Give the worker its own obs world (never the parent's file handles)."""
    global _WORKER_LABEL
    from .. import obs

    _WORKER_LABEL = f"worker-g{generation}-{os.getpid()}"
    obs.set_collector(None)
    sink = None
    if obs_cfg.trace_base:
        sink = obs.JsonlTraceSink(
            trace_shard_path(obs_cfg.trace_base, _WORKER_LABEL),
            flush_every=256,
            atexit_close=True,
        )
    obs.set_sink(sink)
    if obs_cfg.forensics:
        obs.set_forensics(True)
    registry = obs.MetricsRegistry(enabled=bool(obs_cfg.metrics_base))
    obs.set_registry(registry)
    # Pool children exit through multiprocessing's _exit_function +
    # os._exit, which never runs plain atexit handlers — flush the trace
    # tail and metrics snapshot through a multiprocessing Finalizer.
    if sink is not None:
        multiprocessing.util.Finalize(None, sink.close, exitpriority=10)
    if obs_cfg.metrics_base:
        multiprocessing.util.Finalize(
            None,
            _dump_worker_metrics,
            args=(registry, metrics_shard_path(obs_cfg.metrics_base, _WORKER_LABEL)),
            exitpriority=10,
        )


def _run_unit_chunk(
    chunk: List[Tuple[Dict[str, Any], int]], quick: bool, seed: int
) -> List[Dict[str, Any]]:
    """Execute a chunk of units; per-unit outcomes, never a chunk throw.

    Exceptions are captured per unit so one bad unit doesn't discard its
    chunk-mates' finished work; the parent decides retry vs degrade.
    """
    from .. import obs

    out: List[Dict[str, Any]] = []
    for unit_dict, attempt in chunk:
        unit = WorkUnit.from_dict(unit_dict)
        obs.emit(
            "unit_started", experiment=unit.experiment, unit=unit.unit_id,
            seq=unit.seq, attempt=attempt,
        )
        entry: Dict[str, Any] = {
            "key": unit.key,
            "seq": unit.seq,
            "attempt": attempt,
            "worker": os.getpid(),
            "shard": _WORKER_LABEL,
            "t_start": time.time(),
        }
        started = time.perf_counter()
        try:
            entry["payload"] = execute_unit(unit, quick=quick, seed=seed)
            entry["ok"] = True
        except Exception as exc:  # noqa: BLE001 — repr crosses the pipe
            entry["ok"] = False
            entry["error"] = f"{type(exc).__name__}: {exc}"
        entry["wall_s"] = time.perf_counter() - started
        entry["t_end"] = time.time()
        entry["rss_bytes"] = rss_bytes()
        obs.emit(
            "unit_finished", experiment=unit.experiment, unit=unit.unit_id,
            seq=unit.seq, attempt=attempt, wall_s=entry["wall_s"],
        )
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
    unit_walls: Dict[str, float] = field(default_factory=dict)
    #: unit key -> attempt id whose payload was accepted (merge layer
    #: uses this to pick the authoritative trace block after retries).
    accepted_attempts: Dict[str, int] = field(default_factory=dict)
    #: unit key -> shard label ("parent" for inline/degraded units).
    accepted_shards: Dict[str, str] = field(default_factory=dict)

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
    runs inline in the parent (no pool, no marker events) — the code
    path ``--resume`` shares with sharded runs.
    """

    def __init__(
        self,
        jobs: int,
        *,
        quick: bool = True,
        seed: int = 1,
        obs_cfg: Optional[WorkerObsConfig] = None,
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
        self.obs_cfg = obs_cfg or WorkerObsConfig()
        self.unit_timeout_s = unit_timeout_s
        self.max_retries = max_retries
        self.chunk_size = chunk_size
        self.max_in_flight = max_in_flight or jobs * 2
        self._pool: Optional[ProcessPoolExecutor] = None
        self._generation = 0
        self._attempts_issued = 0
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
                initargs=(self.obs_cfg, self._generation),
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
        """Drain the pool; workers flush their shards on the way out."""
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
        ``journal`` the moment they arrive. ``on_unit(unit, skipped)``
        fires once per resolved unit (progress reporting).
        """
        stats = ExecutionStats()
        fingerprints = {
            unit.key: unit_fingerprint(unit, self.quick, self.seed)
            for unit in units
        }
        results: Dict[int, Any] = {}
        pending: List[WorkUnit] = []
        for unit in units:
            entry = (done or {}).get(unit.key)
            if entry is not None and entry.get("fp") == fingerprints[unit.key]:
                results[unit.seq] = entry["payload"]
                stats.skipped += 1
                if on_unit:
                    on_unit(unit, True)
            else:
                pending.append(unit)

        def accept(unit: WorkUnit, entry: Mapping[str, Any]) -> None:
            payload = entry["payload"]
            results[unit.seq] = payload
            stats.executed += 1
            stats.unit_walls[unit.key] = entry["wall_s"]
            stats.accepted_attempts[unit.key] = entry["attempt"]
            stats.accepted_shards[unit.key] = entry["shard"]
            self._record_unit(unit, entry)
            if journal is not None:
                journal.append(
                    unit.key, fingerprints[unit.key], payload,
                    wall_s=entry["wall_s"], worker=entry["worker"],
                )
            if on_unit:
                on_unit(unit, False)

        if pending:
            if self.jobs == 1:
                self._run_inline(pending, accept, emit_markers=False)
            else:
                self._run_pooled(pending, accept, stats, fingerprints)
        return [results[unit.seq] for unit in units], stats

    # -- inline (jobs == 1, and the serial-degrade path) ----------------
    def _run_inline(
        self,
        units: Sequence[WorkUnit],
        accept: Callable[..., None],
        emit_markers: bool,
    ) -> None:
        from .. import obs

        for unit in units:
            self._attempts_issued += 1
            attempt = self._attempts_issued
            if emit_markers:
                obs.emit(
                    "unit_started", experiment=unit.experiment,
                    unit=unit.unit_id, seq=unit.seq, attempt=attempt,
                )
            t_start = time.time()
            started = time.perf_counter()
            payload = execute_unit(unit, quick=self.quick, seed=self.seed)
            wall_s = time.perf_counter() - started
            if emit_markers:
                obs.emit(
                    "unit_finished", experiment=unit.experiment,
                    unit=unit.unit_id, seq=unit.seq, attempt=attempt,
                    wall_s=wall_s,
                )
            accept(unit, {
                "payload": payload, "attempt": attempt,
                "worker": os.getpid(), "shard": "parent",
                "t_start": t_start, "t_end": time.time(), "wall_s": wall_s,
                "rss_bytes": rss_bytes(),
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
        dead worker held.
        """
        from .. import obs

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
        #: future -> (tagged units, submit time, pool generation)
        in_flight: Dict[
            Any, Tuple[List[Tuple[WorkUnit, int]], float, int]
        ] = {}
        units_by_key = {unit.key: unit for unit in units}
        retired: Set[int] = set()

        def submit(chunk: List[WorkUnit]) -> None:
            pool = self._ensure_pool()
            tagged = []
            for unit in chunk:
                self._attempts_issued += 1
                tagged.append((unit, self._attempts_issued))
            payload = [(unit.as_dict(), attempt) for unit, attempt in tagged]
            try:
                future = pool.submit(
                    _run_unit_chunk, payload, self.quick, self.seed
                )
            except BrokenProcessPool as exc:
                # The pool broke before its failed chunks reached the loop
                # (or while idle): fail this chunk with them, so the loop
                # retires the generation as usual.
                future = Future()
                future.set_exception(exc)
            in_flight[future] = (tagged, time.monotonic(), self._generation)

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
                self._run_inline([unit], accept, emit_markers=True)
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
                    submitted + self.unit_timeout_s * len(tagged) - now
                    for tagged, submitted, _ in in_flight.values()
                ]
                timeout = max(0.0, min(deadlines))
            finished, _ = wait(
                set(in_flight), timeout=timeout, return_when=FIRST_COMPLETED
            )
            # In submission order (a chunk's first attempt id): after a
            # crash, the earliest failed chunk is the likeliest to have
            # been on the dead worker.
            for future in sorted(
                finished, key=lambda f: in_flight[f][0][0][1]
            ):
                tagged, _, generation = in_flight.pop(future)
                try:
                    entries = future.result()
                except Exception as exc:  # pool plumbing, not unit code
                    crashed = isinstance(exc, BrokenProcessPool)
                    if retire(generation) and crashed:
                        first = tagged[0][0]
                        self._record_worker_lost(
                            stats, first, fingerprints.get(first.key)
                        )
                    reason = (
                        "worker process died" if crashed
                        else f"dispatch failed: {exc!r}"
                    )
                    for unit, _attempt in tagged:
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
                    for future, (tagged, submitted, _) in in_flight.items()
                    if now - submitted > self.unit_timeout_s * len(tagged)
                    and not future.done()
                ]
                if overdue:
                    stats.timeouts += len(overdue)
                    abandoned = [in_flight.pop(future) for future in overdue]
                    for generation in {gen for _, _, gen in abandoned}:
                        retire(generation, terminate=True)
                    for tagged, _, _ in abandoned:
                        for unit, _attempt in tagged:
                            handle_failure(unit, "unit timeout")
