"""Central event queue for the discrete-event system simulator.

A tiny min-heap keyed on ``(time, actor)`` with lazy invalidation: each
actor (a core or a channel controller) has at most one *current* posted
time. A heap entry is live while its time is still its actor's posted
time; re-posting or withdrawing leaves the old entry stale, and stale
entries are dropped when they surface. Two live-looking entries for one
actor carry the same time and are interchangeable: consuming either one
withdraws the posting, so the other turns stale. The simulator's actors
are dense ints (cores first, then channels), which also gives the
deterministic tiebreak at equal times — matching the fixed visit order
of the retired poll loop; any mutually comparable hashables work.
"""

from __future__ import annotations

import heapq
from typing import Dict, Hashable, List, Optional, Tuple

__all__ = ["EventHeap"]


class EventHeap:
    """Min-heap of per-actor next-ready times with lazy invalidation."""

    __slots__ = ("_heap", "_time")

    def __init__(self) -> None:
        self._heap: List[Tuple[float, Hashable]] = []
        self._time: Dict[Hashable, float] = {}

    def __len__(self) -> int:
        return len(self._time)

    def push(self, actor: Hashable, time: float) -> None:
        """Post (or re-post) an actor's next-ready time."""
        self._time[actor] = time
        heapq.heappush(self._heap, (time, actor))

    def current(self, actor: Hashable) -> Optional[float]:
        """The actor's posted time, or None when it has none."""
        return self._time.get(actor)

    def invalidate(self, actor: Hashable) -> None:
        """Withdraw an actor's posted time (lazy: entry dropped on pop)."""
        self._time.pop(actor, None)

    def prune_due(self, now: float) -> List[Hashable]:
        """Consume every posted time ``<= now``; returns those actors.

        Consumed actors no longer constrain :meth:`next_time`; the caller
        is expected to visit them this instant and re-post their next
        times.
        """
        due: List[Hashable] = []
        heap = self._heap
        posted = self._time
        while heap and heap[0][0] <= now:
            time, actor = heapq.heappop(heap)
            if posted.get(actor) == time:
                del posted[actor]  # consume
                due.append(actor)
        return due

    def next_time(self, default: float) -> float:
        """Earliest posted time, skipping stale entries; ``default`` when
        nothing is posted."""
        heap = self._heap
        posted = self._time
        while heap:
            time, actor = heap[0]
            if posted.get(actor) == time:
                return time
            heapq.heappop(heap)
        return default
