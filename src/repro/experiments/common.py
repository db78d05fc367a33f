"""Shared infrastructure for the per-figure experiment modules.

Every experiment module exposes the work-unit hooks ``units``,
``run_unit`` and ``merge_units`` (:mod:`repro.parallel.units`); the
runner merges the units' payloads into an :class:`ExperimentResult`.
``quick`` trims workload counts and simulation windows so the whole suite
finishes in minutes; the full settings match the paper's scale. Results
render as aligned text tables with the paper's claim alongside, which is
what ``python -m repro.experiments`` prints and EXPERIMENTS.md records.

The experiments share two shapes, each implemented once here, so a
module only declares its workloads or configurations and builds rows:

* **Per-application write-trace analyses** (§4, §6.1: fig07-fig12,
  fig14, fig17-fig19): :func:`workload_units` lists one unit per
  workload and :func:`workload_trace` generates its trace (the first
  60 s in quick mode). MEMCON's accounting pass over a trace is
  :func:`.fig14.memcon_pass`, which fig17 and fig18 re-run.
* **The simulator sweep** (§6.2: fig15, fig16, table3):
  :func:`sim_scale` picks the workloads and window,
  :func:`density_units` lists fig15's and fig16's units, and
  :func:`mean_speedups` replays each workload's request streams under a
  base configuration and every variant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Sequence, Tuple

from ..parallel.units import WorkUnit
from ..sim.core import StreamMap
from ..sim.metrics import geometric_mean, speedup
from ..sim.system import simulate_workload
from ..sim.workloads import multicore_mixes, singlecore_workloads
from ..traces.events import WriteTrace
from ..traces.generator import generate_trace
from ..traces.workloads import WORKLOADS

@dataclass
class ExperimentResult:
    """One reproduced table or figure."""

    experiment_id: str          # e.g. "fig14"
    title: str
    paper_claim: str            # the number/shape the paper reports
    rows: List[Dict[str, Any]] = field(default_factory=list)
    notes: str = ""

    def add_row(self, **fields: Any) -> None:
        self.rows.append(fields)

    def columns(self) -> List[str]:
        seen: List[str] = []
        for row in self.rows:
            for key in row:
                if key not in seen:
                    seen.append(key)
        return seen

    def to_text(self) -> str:
        """Render the result as an aligned text table."""
        lines = [
            f"== {self.experiment_id}: {self.title} ==",
            f"paper: {self.paper_claim}",
        ]
        if self.rows:
            cols = self.columns()
            rendered = [
                [_fmt(row.get(col, "")) for col in cols] for row in self.rows
            ]
            widths = [
                max(len(col), *(len(r[i]) for r in rendered))
                for i, col in enumerate(cols)
            ]
            header = "  ".join(col.ljust(w) for col, w in zip(cols, widths))
            lines.append(header)
            lines.append("-" * len(header))
            for r in rendered:
                lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)))
        if self.notes:
            lines.append(f"note: {self.notes}")
        return "\n".join(lines)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def percent(value: float, digits: int = 1) -> str:
    """Format a fraction as a percentage string."""
    return f"{100.0 * value:.{digits}f}%"


def plain(value: Any) -> Any:
    """Coerce numpy scalars (recursively) to JSON-safe Python values.

    Work-unit payloads cross process boundaries and the checkpoint
    journal as JSON; ``float(np.float64)`` is exact, so the coercion
    never perturbs a result.
    """
    if isinstance(value, dict):
        return {key: plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(item) for item in value]
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return float(value)
    if isinstance(value, int):
        return int(value)
    if hasattr(value, "item"):  # remaining numpy scalars (np.int64, ...)
        return value.item()
    return value


def workload_units(experiment: str, names: Iterable[str]) -> List[WorkUnit]:
    """One unit per workload, keyed by its name, in the order given."""
    return [
        WorkUnit(experiment, name, {"workload": name}, seq=i)
        for i, name in enumerate(names)
    ]


def workload_trace(name: str, quick: bool, seed: int) -> WriteTrace:
    """A workload's write trace: its first 60 s in quick mode, else all."""
    return generate_trace(
        WORKLOADS[name], seed=seed, duration_ms=60_000.0 if quick else None
    )


def sim_scale(
    cores: int, quick: bool, seed: int
) -> Tuple[List[List[str]], float]:
    """A simulator sweep's workloads and window (ns): 6 (quick) or 30
    single-core workloads or 4-core mixes, over 100 or 500 us."""
    n_workloads = 6 if quick else 30
    workloads = (
        singlecore_workloads(n_workloads, seed=seed) if cores == 1
        else multicore_mixes(n_workloads, seed=seed)
    )
    return workloads, 100_000.0 if quick else 500_000.0


def density_units(
    experiment: str, densities: Sequence[int]
) -> List[WorkUnit]:
    """One unit per (cores, density) simulator configuration."""
    configs = [(cores, density) for cores in (1, 4) for density in densities]
    return [
        WorkUnit(
            experiment, f"c{cores}-d{density}",
            {"cores": cores, "density": density}, seq=i,
        )
        for i, (cores, density) in enumerate(configs)
    ]


def mean_speedups(
    workloads: Sequence[Sequence[str]],
    base: Mapping[str, Any],
    variants: Sequence[Mapping[str, Any]],
    window_ns: float,
    seed: int,
) -> List[float]:
    """Each variant's geometric-mean speedup over ``base``.

    ``base`` and the variants are ``simulate_workload`` keywords. Every
    workload ``i`` runs at ``seed + i`` under ``base``, then under each
    variant in turn, all on one stream map, so every run replays the
    request streams its workload's base run drew (§6.2).
    """
    streams: StreamMap = {}
    baselines = [
        simulate_workload(names, window_ns=window_ns, seed=seed + i,
                          streams=streams, **base)
        for i, names in enumerate(workloads)
    ]
    return [
        geometric_mean([
            speedup(
                simulate_workload(names, window_ns=window_ns, seed=seed + i,
                                  streams=streams, **variant),
                baselines[i],
            )
            for i, names in enumerate(workloads)
        ])
        for variant in variants
    ]
