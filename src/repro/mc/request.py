"""Memory request records for the cycle-level simulator."""

from __future__ import annotations

from enum import Enum
from typing import Optional


class RequestKind(Enum):
    """What a DRAM request is for."""

    READ = "read"
    WRITE = "write"
    TEST = "test"     # background traffic injected by MEMCON testing


class Request:
    """One DRAM request flowing through the memory controller.

    Times are in nanoseconds of simulated time. ``completion_ns`` is set by
    the controller when the data transfer finishes. Every core request and
    injected test request is one of these, so the class is slotted and its
    constructor is written out by hand.
    """

    __slots__ = ("kind", "core", "bank", "row", "arrival_ns", "channel",
                 "completion_ns")

    def __init__(
        self,
        kind: RequestKind,
        core: int,            # issuing core, or -1 for background test traffic
        bank: int,
        row: int,
        arrival_ns: float,
        channel: int = 0,
        completion_ns: Optional[float] = None,
    ) -> None:
        if channel < 0:
            raise ValueError("channel must be non-negative")
        if bank < 0:
            raise ValueError("bank must be non-negative")
        if row < 0:
            raise ValueError("row must be non-negative")
        if arrival_ns < 0:
            raise ValueError("arrival_ns must be non-negative")
        self.kind = kind
        self.core = core
        self.bank = bank
        self.row = row
        self.arrival_ns = arrival_ns
        self.channel = channel
        self.completion_ns = completion_ns

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__
        )
        return f"Request({fields})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Request:
            return NotImplemented
        return all(
            getattr(self, name) == getattr(other, name)
            for name in self.__slots__
        )

    __hash__ = None  # mutable, compared by value

    @property
    def latency_ns(self) -> float:
        if self.completion_ns is None:
            raise ValueError("request not completed yet")
        return self.completion_ns - self.arrival_ns
