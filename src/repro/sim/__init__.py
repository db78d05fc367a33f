"""System simulator: trace cores, full system, workload mixes, metrics."""

from .core import CoreConfig, TraceCore
from .energy import EnergyBreakdown, EnergyParameters, energy_of_run
from .events import EventHeap
from .metrics import geometric_mean, speedup
from .system import (
    CoreResult,
    SystemConfig,
    SystemResult,
    SystemSimulator,
    simulate_workload,
)
from .workloads import multicore_mixes, singlecore_workloads

__all__ = [
    "CoreConfig",
    "CoreResult",
    "EnergyBreakdown",
    "EnergyParameters",
    "EventHeap",
    "energy_of_run",
    "SystemConfig",
    "SystemResult",
    "SystemSimulator",
    "TraceCore",
    "geometric_mean",
    "multicore_mixes",
    "simulate_workload",
    "singlecore_workloads",
    "speedup",
]
