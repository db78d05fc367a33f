"""Unit tests for the event heap backing the simulator's main loop."""

import pytest

from repro.sim.events import EventHeap


class TestEventHeap:
    def test_push_and_current(self):
        heap = EventHeap()
        heap.push("a", 5.0)
        assert heap.current("a") == 5.0
        assert heap.current("b") is None

    def test_repush_supersedes(self):
        heap = EventHeap()
        heap.push("a", 5.0)
        heap.push("a", 2.0)
        assert heap.current("a") == 2.0
        assert heap.next_time(99.0) == 2.0
        # The stale 5.0 entry must not resurface after the live one
        # is consumed.
        assert heap.prune_due(2.0) == ["a"]
        assert heap.next_time(99.0) == 99.0

    def test_repost_same_time_consumes_latest_version(self):
        heap = EventHeap()
        heap.push(0, 5.0)
        heap.push(0, 5.0)  # re-post at the identical time
        heap.push(1, 5.0)
        assert heap.prune_due(5.0) == [0, 1]
        assert heap.prune_due(5.0) == []

    def test_prune_due_consumes_only_due(self):
        heap = EventHeap()
        heap.push("a", 1.0)
        heap.push("b", 2.0)
        heap.push("c", 1.0)
        due = heap.prune_due(1.0)
        assert sorted(due) == ["a", "c"]
        assert heap.current("a") is None
        assert heap.current("b") == 2.0
        assert heap.next_time(99.0) == 2.0

    def test_invalidate(self):
        heap = EventHeap()
        heap.push("a", 1.0)
        heap.push("b", 3.0)
        heap.invalidate("a")
        assert heap.current("a") is None
        assert heap.prune_due(1.0) == []
        assert heap.next_time(99.0) == 3.0
        heap.invalidate("missing")  # no-op, not an error

    def test_next_time_default_when_empty(self):
        heap = EventHeap()
        assert heap.next_time(7.0) == 7.0

    def test_interleaved_updates_keep_order(self):
        heap = EventHeap()
        for i in range(10):
            heap.push(i, float(10 - i))
        for i in range(0, 10, 2):
            heap.push(i, float(i))  # move the even actors earlier
        seen = []
        now = 0.0
        while heap.next_time(float("inf")) != float("inf"):
            now = heap.next_time(now)
            seen.extend((now, a) for a in heap.prune_due(now))
        assert seen == sorted(seen)
        assert len(seen) == 10


class TestArrivalSchedule:
    def test_matches_incremental_accumulation(self):
        from repro.mc.schedule import ArrivalSchedule

        schedule = ArrivalSchedule(first=0.3, interval=0.7)
        expected = []
        t = 0.3
        for _ in range(20):
            expected.append(t)
            t += 0.7  # the historical next += interval accumulation
        got = [schedule.next_ns]
        for _ in range(19):
            got.append(schedule.advance())
        # Bitwise equality, not approximate: experiment tables are gated
        # on byte-identical output and rounding differences would leak.
        assert got == expected

    def test_rejects_bad_parameters(self):
        from repro.mc.schedule import ArrivalSchedule

        with pytest.raises(ValueError):
            ArrivalSchedule(first=0.0, interval=0.0)
        with pytest.raises(ValueError):
            ArrivalSchedule(first=0.0, interval=-1.0)
