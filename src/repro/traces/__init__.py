"""Workload traces: write-interval generation, content images, registries."""

from .content import ContentProfile, ROW_GENERATORS, bit_density
from .events import WriteTrace
from .generator import (
    clear_trace_cache,
    generate_page_writes,
    generate_trace,
    trace_cache_info,
)
from .phases import ContentSnapshot, ContentTrace, generate_content_trace
from .spec import (
    BENCHMARKS,
    BenchmarkProfile,
    FIGURE4_BENCHMARKS,
    benchmark_names,
    get_benchmark,
)
from .workloads import (
    REPRESENTATIVE_WORKLOADS,
    WORKLOADS,
    WorkloadProfile,
    get_workload,
    workload_names,
)

__all__ = [
    "BENCHMARKS",
    "BenchmarkProfile",
    "ContentProfile",
    "ContentSnapshot",
    "ContentTrace",
    "generate_content_trace",
    "FIGURE4_BENCHMARKS",
    "REPRESENTATIVE_WORKLOADS",
    "ROW_GENERATORS",
    "WORKLOADS",
    "WorkloadProfile",
    "WriteTrace",
    "benchmark_names",
    "bit_density",
    "clear_trace_cache",
    "generate_page_writes",
    "generate_trace",
    "trace_cache_info",
    "get_benchmark",
    "get_workload",
    "workload_names",
]
