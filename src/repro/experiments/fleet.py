"""Fleet: MEMCON on many simulated hosts, one work unit per host.

The paper evaluates MEMCON one memory system at a time. This experiment
runs the same accounting over a small fleet of hosts grouped into
tenants. Each tenant profile in :data:`TENANTS` names a workload, a
trace window and a seed base. Each host is one work unit, and its chip
seed is ``seed_base ^ crc32(host)``, so a host's result depends only on
its tenant and its name: ``--seed`` does not change this table. A host
runs three deterministic stages:

1. **Trace**: a synthetic trace of the tenant's workload, generated with
   the host's seed.
2. **Fault screen** (tenants with a ``fault_screen``): a
   :class:`~repro.dram.faults.FaultMap` built with the host's seed is
   scanned chunk by chunk under a ``max_resident_rows`` budget. The
   ALL-FAIL row fraction becomes the host's failing-page fraction, which
   ties the MEMCON test-failure rate to the content-dependent fault model.
3. **MEMCON**: :func:`~repro.core.memcon.simulate_refresh_reduction`
   over the trace. Tenants with ``rollup`` also run it under an
   :class:`~repro.obs.AggregatingSink` and attach its windowed test and
   PRIL rollups to the host's payload.

The table lists every host, then one summary row per tenant.
"""

from __future__ import annotations

import math
import zlib
from typing import Any, Dict, List

import numpy as np

from .. import obs
from ..core.memcon import MemconConfig, simulate_refresh_reduction
from ..dram.faults import FaultMap, FaultModelConfig
from ..parallel.units import WorkUnit
from ..traces.generator import generate_trace
from ..traces.workloads import WORKLOADS
from .common import ExperimentResult, percent, plain

#: The ``batch`` tenant's fault screen. Its 128-row residency budget is
#: smaller than a host's page count, so every screen evicts rows.
BATCH_SCREEN = {
    "max_resident_rows": 128,
    "chunk_rows": 64,
    "bits_per_row": 512,
    "vulnerable_cell_rate": 5.0e-4,
}

#: Tenant profiles in table order; ``hosts`` is the (quick, full) count.
TENANTS = (
    {"tenant": "web", "workload": "Netflix", "seed_base": 11,
     "duration_ms": 8192.0, "hosts": (4, 32), "rollup": True},
    {"tenant": "batch", "workload": "SystemMgt", "seed_base": 23,
     "duration_ms": 8192.0, "hosts": (4, 32), "fault_screen": BATCH_SCREEN},
)

#: Fault-screen settings a tenant's ``fault_screen`` leaves unset.
SCREEN_DEFAULTS: Dict[str, Any] = {
    "vulnerable_cell_rate": 2.0e-4,
    "bits_per_row": 1024,
    "interval_ms": 328.0,
    "chunk_rows": 256,
    "max_resident_rows": None,
}


def units(quick: bool = True, seed: int = 1) -> List[WorkUnit]:
    """One unit per host; its params carry every input the host needs."""
    out: List[WorkUnit] = []
    for tenant in TENANTS:
        for i in range(tenant["hosts"][0 if quick else 1]):
            host = f"{tenant['tenant']}-{i:03d}"
            params: Dict[str, Any] = {
                "host": host,
                "tenant": tenant["tenant"],
                "seed": tenant["seed_base"] ^ zlib.crc32(host.encode("utf-8")),
                "duration_ms": tenant["duration_ms"],
                "workload": tenant["workload"],
            }
            if tenant.get("fault_screen") is not None:
                params["fault_screen"] = dict(tenant["fault_screen"])
            if tenant.get("rollup"):
                params["rollup"] = True
            out.append(WorkUnit("fleet", host, params, seq=len(out)))
    return out


def _screen(params: Dict[str, Any], total_pages: int) -> Dict[str, Any]:
    """ALL-FAIL row fraction of the host's chip, scanned under budget."""
    screen = dict(SCREEN_DEFAULTS)
    screen.update(params["fault_screen"])
    fault_map = FaultMap(
        total_rows=total_pages,
        bits_per_row=screen["bits_per_row"],
        config=FaultModelConfig(
            vulnerable_cell_rate=screen["vulnerable_cell_rate"],
        ),
        seed=params["seed"],
        max_resident_rows=screen["max_resident_rows"],
    )
    chunk = screen["chunk_rows"]
    failing = 0
    resident_peak = 0
    for start in range(0, total_pages, chunk):
        rows = np.arange(start, min(start + chunk, total_pages))
        verdicts = fault_map.rows_can_ever_fail(rows, screen["interval_ms"])
        failing += int(verdicts.sum())
        resident_peak = max(resident_peak, fault_map.resident_rows())
    fault_map.release()
    return {
        "failing_page_fraction": failing / total_pages,
        "failing_pages": failing,
        "resident_rows_peak": resident_peak,
    }


def _condense_rollup(rollup: Dict[str, Any]) -> Dict[str, Any]:
    """The per-window test and LO-REF slice of an aggregator rollup."""
    windows = []
    for window in rollup.get("windows", []):
        entry = {
            "index": window["index"],
            "t_ms": window["t_ms"],
            "tests": dict(window["tests"]),
        }
        ref = window.get("ref")
        if ref is not None:
            entry["lo_fraction"] = ref["lo_fraction"]
        windows.append(entry)
    pril = rollup.get("pril", [])
    started = sum(q["started"] for q in pril)
    resolved = sum(q["resolved"] for q in pril)
    # Forensic records join the stream only while the ledger is on, so
    # counting them would make a --forensics run's payload differ.
    forensic = sum(
        count for kind, count in rollup["kinds"].items()
        if kind in obs.FORENSIC_KINDS
    )
    return {
        "window_ms": rollup["window_ms"],
        "events_total": rollup["events_total"] - forensic,
        "windows": windows,
        "pril": {
            "quanta": len(pril),
            "started": started,
            "resolved": resolved,
            "hit_rate": resolved / started if started else None,
        },
    }


def run_unit(unit: WorkUnit, quick: bool = True, seed: int = 1) -> Dict[str, Any]:
    """Simulate one host; ``quick`` and ``seed`` are unused by design."""
    params = unit.params
    trace = generate_trace(
        WORKLOADS[params["workload"]],
        seed=params["seed"],
        duration_ms=params["duration_ms"],
    )
    payload: Dict[str, Any] = {
        "host": params["host"],
        "tenant": params["tenant"],
        "seed": params["seed"],
        "workload": trace.name,
    }
    failing_fraction = 0.0
    if params.get("fault_screen") is not None:
        screen = _screen(params, trace.total_pages)
        failing_fraction = screen["failing_page_fraction"]
        payload["screen"] = screen
    config = MemconConfig()
    rollup_sink = previous_sink = None
    if params.get("rollup"):
        rollup_sink = obs.AggregatingSink(
            window_ms=config.quantum_ms, total_pages=trace.total_pages,
        )
        # Traced runs keep their own sink: the rollup rides beside it.
        previous_sink = obs.set_sink(
            obs.TeeSink(obs.get_sink(), rollup_sink)
            if obs.trace_active() else rollup_sink
        )
    try:
        report = simulate_refresh_reduction(
            trace, config,
            failing_page_fraction=failing_fraction,
            seed=params["seed"],
        )
    finally:
        if rollup_sink is not None:
            obs.set_sink(previous_sink)
    payload["report"] = plain({
        "window_ms": report.window_ms,
        "total_pages": report.total_pages,
        "refresh_count": report.refresh_count,
        "baseline_refresh_count": report.baseline_refresh_count,
        "refresh_reduction": report.refresh_reduction,
        "lo_ref_time_fraction": report.lo_ref_time_fraction,
        "tests_total": report.tests_total,
        "tests_failed": report.tests_failed,
        "tests_correct": report.tests_correct,
        "tests_mispredicted": report.tests_mispredicted,
        "tests_aborted": report.tests_aborted,
    })
    payload["failing_page_fraction"] = failing_fraction
    if rollup_sink is not None:
        payload["rollup"] = plain(_condense_rollup(rollup_sink.to_dict()))
    return payload


def _percentile(values: List[float], q: float) -> float:
    """Nearest-rank q-quantile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class _TenantFold:
    """One tenant's summary row, folded from its hosts' payloads."""

    def __init__(self, tenant: str) -> None:
        self.tenant = tenant
        self.coverage: List[float] = []
        self.reductions: List[float] = []
        self.tests = 0
        self.failed = 0
        self.correct = 0
        self.window_s = 0.0

    def fold(self, payload: Dict[str, Any]) -> None:
        report = payload["report"]
        self.coverage.append(float(report["lo_ref_time_fraction"]))
        self.reductions.append(float(report["refresh_reduction"]))
        self.tests += report["tests_total"]
        self.failed += report["tests_failed"]
        self.correct += report["tests_correct"]
        self.window_s += float(report["window_ms"]) * 1e-3

    def row(self) -> Dict[str, Any]:
        hosts = len(self.coverage)
        return {
            "host": f"{hosts} hosts",
            "tenant": self.tenant,
            "reduction": percent(sum(self.reductions) / hosts),
            "lo_ref": percent(sum(self.coverage) / hosts),
            "tests": self.tests,
            "failed": self.failed,
            "pril_hit": (
                percent(self.correct / self.tests) if self.tests else "-"
            ),
            "lo_ref_p95": percent(_percentile(self.coverage, 0.95)),
            "tests_per_s": self.tests / self.window_s,
        }


def _host_row(payload: Dict[str, Any]) -> Dict[str, Any]:
    report = payload["report"]
    tests = report["tests_total"]
    return {
        "host": payload["host"],
        "tenant": payload["tenant"],
        "workload": payload["workload"],
        "pages": report["total_pages"],
        "window_ms": report["window_ms"],
        "reduction": percent(report["refresh_reduction"]),
        "lo_ref": percent(report["lo_ref_time_fraction"]),
        "tests": tests,
        "failed": report["tests_failed"],
        "pril_hit": (
            percent(report["tests_correct"] / tests) if tests else "-"
        ),
    }


def merge_units(
    payloads: List[Dict[str, Any]], quick: bool = True, seed: int = 1
) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fleet",
        title="MEMCON across a simulated fleet",
        paper_claim=(
            "64.7-74.5% refresh reduction at the Figure 14 operating point"
        ),
    )
    folds: Dict[str, _TenantFold] = {}
    for payload in payloads:
        result.add_row(**_host_row(payload))
        tenant = payload["tenant"]
        folds.setdefault(tenant, _TenantFold(tenant)).fold(payload)
    for fold in folds.values():
        result.add_row(**fold.row())
    reductions = [p["report"]["refresh_reduction"] for p in payloads]
    result.notes = (
        f"{len(payloads)} hosts; reduction spans "
        f"{percent(min(reductions))}-{percent(max(reductions))}. Tenant "
        "rows: mean reduction and LO-REF coverage, nearest-rank p95 "
        "coverage, summed tests, and tests per simulated second"
    )
    return result


def run(quick: bool = True, seed: int = 1) -> ExperimentResult:
    """Per-host MEMCON refresh reduction, with per-tenant summaries."""
    payloads = [
        run_unit(unit, quick=quick, seed=seed)
        for unit in units(quick=quick, seed=seed)
    ]
    return merge_units(payloads, quick=quick, seed=seed)
