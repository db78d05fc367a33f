"""A flat-list FR-FCFS scheduler: the reference for the bank-indexed one.

:class:`repro.mc.scheduler.FrFcfsScheduler` keeps one FIFO per (bank,
kind) and lists the ready banks once per pick. This module states the
rule that scheduler documents with nothing but three lists in enqueue
order, so a differential test can hold the two to the same picks:

* among requests that have arrived and whose bank can take a command,
  pick the first row-buffer hit in enqueue order, else the oldest;
* reads first; writes when draining, or when no reads are queued; test
  traffic last. Draining starts when the write queue reaches its
  high-water mark and stops once a drained write leaves it at half that;
* the earliest issue time is the least ``max(arrival, bank ready,
  floor)`` over every queued request.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.mc.bank import BankState
from repro.mc.request import Request, RequestKind
from repro.mc.scheduler import SchedulerConfig


class FlatFrFcfs:
    """FR-FCFS over flat per-kind lists; O(queued requests) per call."""

    def __init__(self, config: Optional[SchedulerConfig] = None) -> None:
        self.config = config or SchedulerConfig()
        self.reads: List[Request] = []
        self.writes: List[Request] = []
        self.tests: List[Request] = []
        self.draining = False

    @property
    def pending(self) -> int:
        return len(self.reads) + len(self.writes) + len(self.tests)

    def enqueue(self, request: Request) -> bool:
        if request.kind is RequestKind.READ:
            queue, capacity = self.reads, self.config.read_queue_capacity
        elif request.kind is RequestKind.WRITE:
            queue, capacity = self.writes, self.config.write_queue_capacity
        else:
            queue, capacity = self.tests, None
        if capacity is not None and len(queue) >= capacity:
            return False
        queue.append(request)
        return True

    @staticmethod
    def _pick(queue: List[Request], banks: Sequence[BankState],
              now_ns: float) -> Optional[Request]:
        eligible = [
            request for request in queue
            if request.arrival_ns <= now_ns
            and banks[request.bank].ready_ns <= now_ns
        ]
        if not eligible:
            return None
        hits = [
            request for request in eligible
            if banks[request.bank].open_row == request.row
        ]
        choice = hits[0] if hits else eligible[0]
        del queue[next(i for i, r in enumerate(queue) if r is choice)]
        return choice

    def next_request(self, banks: Sequence[BankState],
                     now_ns: float) -> Optional[Request]:
        threshold = self.config.write_queue_drain_threshold
        if len(self.writes) >= threshold:
            self.draining = True
        if not self.writes:
            self.draining = False
        if self.draining:
            choice = self._pick(self.writes, banks, now_ns)
            if choice is not None:
                if len(self.writes) <= threshold // 2:
                    self.draining = False
                return choice
        for queue in (self.reads, self.writes, self.tests):
            choice = self._pick(queue, banks, now_ns)
            if choice is not None:
                return choice
        return None

    def earliest_issue_ns(self, banks: Sequence[BankState],
                          floor_ns: float) -> Optional[float]:
        times = [
            max(request.arrival_ns, banks[request.bank].ready_ns, floor_ns)
            for request in self.reads + self.writes + self.tests
        ]
        return min(times) if times else None
