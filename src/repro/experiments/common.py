"""Shared infrastructure for the per-figure experiment modules.

Every experiment module exposes the work-unit hooks ``units``,
``run_unit`` and ``merge_units`` (:mod:`repro.parallel.units`); the
runner merges the units' payloads into an :class:`ExperimentResult`.
``quick`` trims workload counts and simulation windows so the whole suite
finishes in minutes; the full settings match the paper's scale. Results
render as aligned text tables with the paper's claim alongside, which is
what ``python -m repro.experiments`` prints and EXPERIMENTS.md records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List


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
