"""FR-FCFS request scheduling.

First-Ready, First-Come-First-Served: among queued requests whose bank can
accept a command, prefer row-buffer hits (they finish fastest and keep the
bus busy), then the oldest request. Demand reads outrank posted writes and
background test traffic; writes are drained when the write queue crosses a
high-water mark, the standard write-drain policy.

The queues are indexed by bank: each (kind, bank) bucket is a FIFO deque
carrying a global enqueue sequence number, so the pick rule and
``earliest_issue_ns`` touch only the banks that actually hold work instead
of scanning the full pending list per call. The pick semantics are
unchanged from the flat-list implementation — "first eligible row-buffer
hit in enqueue order, else oldest eligible" — because enqueue order is
exactly the sequence-number order and each per-bank deque preserves it.

Everything here is on the simulator's per-instant path, so the layout is
deliberately flat: one deque per request kind in a per-bank tuple, plain
int counters (``pending`` is an attribute, not a property), and the banks
that can take a command are listed once per pick, before any queue is
read — most picks find no such bank and return at once.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from .. import obs
from .bank import BankState
from .request import Request, RequestKind

_READ = RequestKind.READ
_WRITE = RequestKind.WRITE
#: Index of each kind's deque in :attr:`_BankBucket.queues`.
_READS, _WRITES, _TESTS = 0, 1, 2

_Entry = Tuple[int, Request]


@dataclass
class SchedulerConfig:
    """Queueing policy knobs."""

    write_queue_drain_threshold: int = 16
    read_queue_capacity: int = 64
    write_queue_capacity: int = 64

    def __post_init__(self) -> None:
        if self.write_queue_drain_threshold <= 0:
            raise ValueError("drain threshold must be positive")
        if self.read_queue_capacity <= 0 or self.write_queue_capacity <= 0:
            raise ValueError("queue capacities must be positive")


class _BankBucket:
    """Per-bank pending requests: one FIFO per kind (reads, writes, tests).

    ``min_arrival`` caches the smallest arrival time across all three
    deques so ``earliest_issue_ns`` is O(banks-with-work); it is restored
    by a rescan only when the request holding the minimum leaves.
    """

    __slots__ = ("queues", "count", "min_arrival")

    def __init__(self) -> None:
        self.queues: Tuple[Deque[_Entry], ...] = (deque(), deque(), deque())
        self.count = 0
        self.min_arrival = float("inf")

    def recompute_min(self) -> None:
        best = float("inf")
        for queue in self.queues:
            for _, request in queue:
                if request.arrival_ns < best:
                    best = request.arrival_ns
        self.min_arrival = best


class FrFcfsScheduler:
    """Bank-indexed priority queues plus the FR-FCFS pick rule."""

    def __init__(self, config: Optional[SchedulerConfig] = None) -> None:
        self.config = config or SchedulerConfig()
        self._banks: Dict[int, _BankBucket] = {}
        #: Requests queued, all kinds.
        self.pending = 0
        self._n_read = 0
        self._n_write = 0
        self._n_test = 0
        self._seq = 0
        self._draining_writes = False
        # Hot-path counters accumulate locally and reach the registry in
        # one batched flush (flush_metrics) instead of per enqueue.
        self._n_enqueued = 0
        self._n_rejected = 0
        self._n_drains = 0
        registry = obs.get_registry()
        self._c_enqueued = registry.counter("mc.sched.enqueued")
        self._c_rejected = registry.counter("mc.sched.rejected")
        self._c_drains = registry.counter("mc.sched.write_drains")

    # ------------------------------------------------------------------
    def flush_metrics(self) -> None:
        """Push batched queue counters into the metrics registry."""
        if self._n_enqueued:
            self._c_enqueued.inc(self._n_enqueued)
            self._n_enqueued = 0
        if self._n_rejected:
            self._c_rejected.inc(self._n_rejected)
            self._n_rejected = 0
        if self._n_drains:
            self._c_drains.inc(self._n_drains)
            self._n_drains = 0

    # ------------------------------------------------------------------
    def enqueue(self, request: Request) -> bool:
        """Add a request; returns False when the target queue is full."""
        kind = request.kind
        bucket = self._banks.get(request.bank)
        if bucket is None:
            bucket = self._banks[request.bank] = _BankBucket()
        if kind is _READ:
            if self._n_read >= self.config.read_queue_capacity:
                self._n_rejected += 1
                return False
            self._n_read += 1
            bucket.queues[_READS].append((self._seq, request))
        elif kind is _WRITE:
            if self._n_write >= self.config.write_queue_capacity:
                self._n_rejected += 1
                return False
            self._n_write += 1
            bucket.queues[_WRITES].append((self._seq, request))
        else:
            self._n_test += 1
            bucket.queues[_TESTS].append((self._seq, request))
        bucket.count += 1
        if request.arrival_ns < bucket.min_arrival:
            bucket.min_arrival = request.arrival_ns
        self.pending += 1
        self._seq += 1
        self._n_enqueued += 1
        return True

    # ------------------------------------------------------------------
    def _pick(
        self,
        ready: List[Tuple[_BankBucket, Optional[int]]],
        index: int,
        now_ns: float,
    ) -> Optional[Request]:
        """First eligible row-buffer hit in enqueue order, else oldest.

        ``ready`` holds the banks that can accept a command at ``now_ns``
        with their open rows; ``index`` selects the kind's deque. Within
        a bank the deque is already in enqueue (sequence) order, so the
        first matching entry is the bank's oldest candidate.
        """
        best_hit: Optional[_Entry] = None
        best_any: Optional[_Entry] = None
        hit_bucket = any_bucket = None
        for bucket, open_row in ready:
            found_any = False
            for entry in bucket.queues[index]:
                request = entry[1]
                if request.arrival_ns > now_ns:
                    continue
                if not found_any:
                    found_any = True
                    if best_any is None or entry[0] < best_any[0]:
                        best_any, any_bucket = entry, bucket
                    if open_row is None:
                        break  # no hit possible in a precharged bank
                if request.row == open_row:
                    if best_hit is None or entry[0] < best_hit[0]:
                        best_hit, hit_bucket = entry, bucket
                    break  # later entries in this bank cannot beat it
        if best_hit is not None:
            entry, bucket = best_hit, hit_bucket
        elif best_any is not None:
            entry, bucket = best_any, any_bucket
        else:
            return None
        queue = bucket.queues[index]
        if queue[0] is entry:
            queue.popleft()
        else:
            queue.remove(entry)
        bucket.count -= 1
        self.pending -= 1
        request = entry[1]
        if index == _READS:
            self._n_read -= 1
        elif index == _WRITES:
            self._n_write -= 1
        else:
            self._n_test -= 1
        if request.arrival_ns <= bucket.min_arrival:
            bucket.recompute_min()
        return request

    def next_request(
        self, banks: Sequence[BankState], now_ns: float
    ) -> Optional[Request]:
        """Pick (and remove) the next request issuable at ``now_ns``.

        Reads first; writes only when draining (high-water mark) or when
        no reads are pending; test traffic strictly last.
        """
        cfg = self.config
        writes = self._n_write
        if writes >= cfg.write_queue_drain_threshold:
            if not self._draining_writes:
                self._n_drains += 1
            self._draining_writes = True
        elif not writes:
            self._draining_writes = False
        # The banks that hold work and can take a command now: every
        # pick below chooses among these alone.
        ready = []
        for bank_id, bucket in self._banks.items():
            if bucket.count:
                bank = banks[bank_id]
                if bank.ready_ns <= now_ns:
                    ready.append((bucket, bank.open_row))
        if not ready:
            return None

        if self._draining_writes:
            choice = self._pick(ready, _WRITES, now_ns)
            if choice is not None:
                if self._n_write <= cfg.write_queue_drain_threshold // 2:
                    self._draining_writes = False
                return choice
        if self._n_read:
            choice = self._pick(ready, _READS, now_ns)
            if choice is not None:
                return choice
        if self._n_write:
            choice = self._pick(ready, _WRITES, now_ns)
            if choice is not None:
                return choice
        if self._n_test:
            return self._pick(ready, _TESTS, now_ns)
        return None

    def earliest_issue_ns(
        self, banks: Sequence[BankState], floor_ns: float
    ) -> Optional[float]:
        """Earliest future time any queued request becomes eligible.

        Per bank, the earliest candidate is ``max(min arrival, bank ready,
        floor)`` — identical to minimising ``max(arrival, ready, floor)``
        over that bank's requests — so the scan is O(banks with work).
        """
        best: Optional[float] = None
        for bank_id, bucket in self._banks.items():
            if not bucket.count:
                continue
            t = bucket.min_arrival
            ready = banks[bank_id].ready_ns
            if ready > t:
                t = ready
            if floor_ns > t:
                t = floor_ns
            if best is None or t < best:
                best = t
        return best
