"""Scheduler bridge: fleet jobs onto one persistent ParallelExecutor.

The fleet service is long-lived, so it cannot afford the runner's
pattern of one executor per invocation. This module owns a single
:class:`~repro.parallel.executor.ParallelExecutor` (and one checkpoint
journal) for the service's lifetime and feeds it from a dispatch thread:

* **host jobs** — sealed host params become ``fleet_host`` work units.
  Consecutive host jobs are batched (up to ``batch_max``) into one
  ``run_units`` call, which amortises pool chunking across hosts while
  ``on_result`` streams each host's payload back the moment it is
  accepted. Host units pin the executor-level ``(quick, seed)`` pair to
  :data:`~repro.fleet.hostsim.HOST_QUICK`/:data:`HOST_SEED` constants,
  so their checkpoint fingerprints depend only on the host params.
* **experiment jobs** — a named paper experiment (``fig04`` ...) runs
  for a tenant under its *own* ``(quick, seed)`` via the executor's
  per-call overrides; the merged table is byte-identical to
  ``python -m repro.experiments`` at any job count.

Crash-resume uses the journal's ``(key, fingerprint)`` view: a service
killed mid-fleet restarts with ``resume=True`` and skips every unit
whose fingerprint matches, exactly like the runner's ``--resume`` but
across heterogeneous jobs sharing one journal.

Callbacks (``on_host_result``, ``on_host_error``, ``on_job_done``) fire
on the dispatch thread; the registry and aggregator they feed are
thread-safe by design.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..parallel.checkpoint import CheckpointJournal
from ..parallel.executor import ParallelExecutor
from ..parallel.units import WorkUnit, decompose, merge_payloads, unit_fingerprint
from . import hostsim

__all__ = ["FleetScheduler", "SchedulerStats"]

logger = logging.getLogger(__name__)

_SENTINEL = object()


class SchedulerStats:
    """Counters the status endpoint reports."""

    def __init__(self) -> None:
        self.batches = 0
        self.hosts_done = 0
        self.hosts_failed = 0
        self.jobs_done = 0
        self.units_executed = 0
        self.units_skipped = 0

    def to_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)


class FleetScheduler:
    """Dispatch thread feeding fleet work to a persistent executor."""

    def __init__(
        self,
        jobs: int = 1,
        checkpoint: Optional[str] = None,
        resume: bool = False,
        batch_max: int = 32,
        unit_timeout_s: Optional[float] = None,
        max_retries: int = 2,
        on_host_result: Optional[
            Callable[[str, Dict[str, Any], float], None]] = None,
        on_host_error: Optional[Callable[[str, str], None]] = None,
        on_job_done: Optional[
            Callable[[str, Any, float], None]] = None,
    ) -> None:
        if batch_max < 1:
            raise ValueError("batch_max must be >= 1")
        self.batch_max = batch_max
        self.on_host_result = on_host_result
        self.on_host_error = on_host_error
        self.on_job_done = on_job_done
        self.stats = SchedulerStats()
        self._executor = ParallelExecutor(
            jobs,
            quick=hostsim.HOST_QUICK,
            seed=hostsim.HOST_SEED,
            unit_timeout_s=unit_timeout_s,
            max_retries=max_retries,
        )
        self._journal: Optional[CheckpointJournal] = None
        self._by_fp: Dict[Tuple[str, str], Dict[str, Any]] = {}
        if checkpoint:
            self._journal = CheckpointJournal(checkpoint)
            if resume:
                self._by_fp = self._journal.load_by_fingerprint()
                logger.info(
                    "fleet resume: %d journalled units in %s",
                    len(self._by_fp), checkpoint,
                )
        self._cond = threading.Condition()
        self._queue: "deque[Any]" = deque()
        self._pending = 0  # queued + in-flight items
        self._closed = False
        self._thread = threading.Thread(
            target=self._loop, name="fleet-scheduler", daemon=True
        )
        self._thread.start()

    # -- submission ----------------------------------------------------
    def submit_host(self, params: Dict[str, Any]) -> None:
        """Queue one sealed host for simulation."""
        self._submit(("host", dict(params)))

    def submit_experiment(
        self, job_id: str, name: str, quick: bool = True, seed: int = 1
    ) -> None:
        """Queue a named paper experiment under its own quick/seed."""
        self._submit(("experiment", job_id, name, quick, seed))

    def _submit(self, item: Tuple) -> None:
        with self._cond:
            if self._closed:
                raise RuntimeError("scheduler is closed")
            self._queue.append(item)
            self._pending += 1
            self._cond.notify_all()

    # -- introspection -------------------------------------------------
    def backlog(self) -> int:
        """Jobs accepted but not yet finished (queued + in flight)."""
        with self._cond:
            return self._pending

    def join(self, timeout: Optional[float] = None) -> bool:
        """Block until every submitted job finished; False on timeout."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while self._pending:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._cond.wait(remaining)
            return True

    # -- dispatch loop -------------------------------------------------
    def _loop(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._closed:
                    self._cond.wait()
                if not self._queue:
                    return  # closed and drained
                item = self._queue.popleft()
                batch = [item]
                if item[0] == "host":
                    # Batch only *consecutive* host jobs: experiments
                    # keep their submission order relative to hosts.
                    while (
                        len(batch) < self.batch_max
                        and self._queue
                        and self._queue[0][0] == "host"
                    ):
                        batch.append(self._queue.popleft())
            try:
                if item[0] == "host":
                    self._run_host_batch([entry[1] for entry in batch])
                else:
                    self._run_experiment(*item[1:])
            except Exception:
                logger.exception("fleet batch failed")
            finally:
                with self._cond:
                    self._pending -= len(batch)
                    self._cond.notify_all()

    def _done_map(
        self, units: List[WorkUnit], quick: bool, seed: int
    ) -> Dict[str, Dict[str, Any]]:
        """Journal entries matching these units' exact fingerprints."""
        done: Dict[str, Dict[str, Any]] = {}
        for unit in units:
            entry = self._by_fp.get(
                (unit.key, unit_fingerprint(unit, quick, seed)))
            if entry is not None:
                done[unit.key] = entry
        return done

    def _run_host_batch(self, param_sets: List[Dict[str, Any]]) -> None:
        units = [
            hostsim.host_unit(params, seq=i)
            for i, params in enumerate(param_sets)
        ]
        started = time.perf_counter()
        accepted: List[Tuple[WorkUnit, Dict[str, Any]]] = []

        def on_result(unit: WorkUnit, payload: Any) -> None:
            accepted.append((unit, payload))

        try:
            _, stats = self._executor.run_units(
                units,
                journal=self._journal,
                done=self._done_map(units, hostsim.HOST_QUICK,
                                    hostsim.HOST_SEED),
                on_result=on_result,
                quick=hostsim.HOST_QUICK,
                seed=hostsim.HOST_SEED,
            )
        except Exception as exc:
            # A deterministic failure poisons the whole batch; report
            # every host that did not stream a result before the raise.
            delivered = {unit.unit_id for unit, _ in accepted}
            self._deliver_hosts(accepted, started, len(param_sets))
            for params in param_sets:
                if params["host"] not in delivered:
                    self.stats.hosts_failed += 1
                    if self.on_host_error is not None:
                        self.on_host_error(params["host"], repr(exc))
            return
        self.stats.batches += 1
        self.stats.units_executed += stats.executed
        self.stats.units_skipped += stats.skipped
        self._deliver_hosts(accepted, started, len(param_sets))

    def _deliver_hosts(
        self,
        accepted: List[Tuple[WorkUnit, Dict[str, Any]]],
        started: float,
        batch_size: int,
    ) -> None:
        # One run_units call covers the batch, so the per-host wall time
        # reported to the aggregator is the batch mean — a scheduling
        # statistic, not part of any deterministic artifact.
        wall_each = (time.perf_counter() - started) / max(batch_size, 1)
        for unit, payload in accepted:
            fingerprint = unit_fingerprint(
                unit, hostsim.HOST_QUICK, hostsim.HOST_SEED)
            self._by_fp[(unit.key, fingerprint)] = {
                "fp": fingerprint, "payload": payload,
            }
            self.stats.hosts_done += 1
            if self.on_host_result is not None:
                self.on_host_result(unit.unit_id, payload, wall_each)

    def _run_experiment(
        self, job_id: str, name: str, quick: bool, seed: int
    ) -> None:
        started = time.perf_counter()
        try:
            units = decompose(name, quick=quick, seed=seed)
            payloads, stats = self._executor.run_units(
                units,
                journal=self._journal,
                done=self._done_map(units, quick, seed),
                quick=quick,
                seed=seed,
            )
            result = merge_payloads(name, payloads, quick=quick, seed=seed)
        except Exception as exc:
            if self.on_job_done is not None:
                self.on_job_done(job_id, exc, time.perf_counter() - started)
            return
        for unit, payload in zip(units, payloads):
            fingerprint = unit_fingerprint(unit, quick, seed)
            self._by_fp[(unit.key, fingerprint)] = {
                "fp": fingerprint, "payload": payload,
            }
        self.stats.batches += 1
        self.stats.jobs_done += 1
        self.stats.units_executed += stats.executed
        self.stats.units_skipped += stats.skipped
        if self.on_job_done is not None:
            self.on_job_done(job_id, result, time.perf_counter() - started)

    # -- shutdown ------------------------------------------------------
    def close(self, wait: bool = True) -> None:
        """Drain (optionally), stop the thread, release the executor."""
        if wait:
            self.join()
        with self._cond:
            if self._closed:
                return
            self._closed = True
            if not wait:
                self._pending -= len(self._queue)
                self._queue.clear()
            self._cond.notify_all()
        self._thread.join()
        self._executor.shutdown()
        if self._journal is not None:
            self._journal.close()

    def __enter__(self) -> "FleetScheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.close(wait=exc == (None, None, None))
