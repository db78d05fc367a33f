"""MEMCON core: cost model, refresh-reduction accounting, mitigations."""

from .costmodel import (
    CostModel,
    TestMode,
    copy_and_compare_storage_overhead,
    test_cost_ns,
)
from .ecc import (
    EccConfig,
    Mitigation,
    MitigationSummary,
    choose_mitigation,
    row_is_correctable,
    summarise_mitigations,
)
from .indram import (
    AcceleratedCostModel,
    CopyMechanism,
    accelerated_test_cost_ns,
    copy_cost_ns,
    min_write_interval_by_mechanism,
)
from .memcon import MemconConfig, MemconReport, simulate_refresh_reduction
from .remap import MitigationPlan, RemapTable, plan_mitigations
from .silentwrites import SilentWriteFilter, SilentWriteStats, filter_trace

__all__ = [
    "AcceleratedCostModel",
    "CopyMechanism",
    "CostModel",
    "EccConfig",
    "Mitigation",
    "MitigationPlan",
    "MitigationSummary",
    "RemapTable",
    "plan_mitigations",
    "SilentWriteFilter",
    "SilentWriteStats",
    "accelerated_test_cost_ns",
    "choose_mitigation",
    "copy_cost_ns",
    "filter_trace",
    "min_write_interval_by_mechanism",
    "row_is_correctable",
    "summarise_mitigations",
    "MemconConfig",
    "MemconReport",
    "TestMode",
    "copy_and_compare_storage_overhead",
    "simulate_refresh_reduction",
    "test_cost_ns",
]
