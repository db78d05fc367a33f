"""MEMCON core: cost model, refresh-reduction accounting, mitigations."""

from .costmodel import (
    CostModel,
    TestMode,
    copy_and_compare_storage_overhead,
    test_cost_ns,
)
from .ecc import EccConfig, row_is_correctable
from .memcon import MemconConfig, MemconReport, simulate_refresh_reduction
from .remap import MitigationPlan, RemapTable, plan_mitigations

__all__ = [
    "CostModel",
    "EccConfig",
    "MitigationPlan",
    "RemapTable",
    "plan_mitigations",
    "row_is_correctable",
    "MemconConfig",
    "MemconReport",
    "TestMode",
    "copy_and_compare_storage_overhead",
    "simulate_refresh_reduction",
    "test_cost_ns",
]
