"""Per-figure/table experiment modules reproducing the paper's evaluation.

Each module exposes the work-unit hooks ``units``, ``run_unit`` and
``merge_units`` (:mod:`repro.parallel.units`), which
:func:`repro.experiments.runner.run_experiments` chains into an
``ExperimentResult``; the mapping from module to paper figure/table is in
DESIGN.md's experiment index. Run them from the command line with
``python -m repro.experiments``.
"""

from . import (
    fig03,
    fig04,
    fig06,
    fig07,
    fig08,
    fig09,
    fig11,
    fig12,
    fig14,
    fig15,
    fig16,
    fig17,
    fig18,
    fig19,
    table3,
)
from .common import ExperimentResult, percent

__all__ = [
    "ExperimentResult",
    "fig03",
    "fig04",
    "fig06",
    "fig07",
    "fig08",
    "fig09",
    "fig11",
    "fig12",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "fig19",
    "percent",
    "table3",
]
