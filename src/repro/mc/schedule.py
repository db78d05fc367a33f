"""Periodic schedules for refresh and test-traffic injection.

An :class:`ArrivalSchedule` holds the next deadline of a fixed-interval
stream as a plain attribute, so the controller's per-instant check is
one attribute read and the injection loop consumes times one by one.

Bit-compatibility note: the historical code accumulated deadlines with
repeated float addition (``next += interval``), and experiment tables are
gated on byte-identical results, so the schedule advances by the same
left-to-right accumulation — **not** ``start + k * interval``, which
rounds differently.
"""

from __future__ import annotations

__all__ = ["ArrivalSchedule"]


class ArrivalSchedule:
    """Arrival times ``t_0 = first``, ``t_{k+1} = t_k + interval``.

    ``next_ns`` is the earliest unconsumed arrival; ``advance`` consumes
    it.
    """

    __slots__ = ("next_ns", "_interval")

    def __init__(self, first: float, interval: float) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.next_ns = first
        self._interval = interval

    def advance(self) -> float:
        """Consume the current arrival and return the next one."""
        self.next_ns += self._interval
        return self.next_ns
