"""Synthetic experiment modules for exercising the parallel machinery.

``fake`` implements the full hook contract with failure modes steerable
through unit params (raise, crash, or sleep — but only outside a named
"home" pid, so the parent's serial-degrade path always succeeds). Every
attempt first bumps the ``fake.units`` counter and emits
``RECORDS_PER_UNIT`` trace records naming its unit and process, so
tests can see which attempts' observability reached the parent.
``opaque`` has no hooks at all, which ``decompose`` rejects.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, List

from repro import obs
from repro.experiments.common import ExperimentResult
from repro.parallel.units import WorkUnit

N_UNITS = 4
RECORDS_PER_UNIT = 10


def units(quick: bool = True, seed: int = 1) -> List[WorkUnit]:
    return [
        WorkUnit("fake", f"u{i}", {"value": i * 10 + seed}, seq=i)
        for i in range(N_UNITS)
    ]


def run_unit(unit: WorkUnit, quick: bool = True, seed: int = 1) -> Dict[str, Any]:
    params = unit.params
    obs.get_registry().counter("fake.units").inc()
    for i in range(RECORDS_PER_UNIT):
        obs.emit("test_started", t_ms=float(i), page=unit.seq, pid=os.getpid())
    away_from_home = os.getpid() != params.get("home_pid")
    if params.get("raise_away") and away_from_home:
        raise RuntimeError(f"synthetic failure in {unit.unit_id}")
    if params.get("crash_away") and away_from_home:
        os._exit(17)
    if params.get("sleep_away") and away_from_home:
        time.sleep(params["sleep_away"])
    return {"value": params["value"], "squared": params["value"] ** 2}


def merge_units(
    payloads: List[Dict[str, Any]], quick: bool = True, seed: int = 1
) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fake", title="fake", paper_claim="none"
    )
    for payload in payloads:
        result.add_row(value=payload["value"], squared=payload["squared"])
    return result
