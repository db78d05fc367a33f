"""Cycle-level memory controller: banks, FR-FCFS scheduling, refresh."""

from .bank import BankState, RankState, issue_refresh, service_request
from .controller import (
    ControllerStats,
    MemoryController,
    RefreshSettings,
    TestTrafficSettings,
)
from .request import Request, RequestKind
from .schedule import ArrivalSchedule
from .scheduler import FrFcfsScheduler, SchedulerConfig

__all__ = [
    "ArrivalSchedule",
    "BankState",
    "ControllerStats",
    "FrFcfsScheduler",
    "MemoryController",
    "RankState",
    "RefreshSettings",
    "Request",
    "RequestKind",
    "SchedulerConfig",
    "TestTrafficSettings",
    "issue_refresh",
    "service_request",
]
