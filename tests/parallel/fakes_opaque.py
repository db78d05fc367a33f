"""Hook-less experiment module: ``decompose`` must reject it."""

from __future__ import annotations

from repro.experiments.common import ExperimentResult


def run(quick: bool = True, seed: int = 1) -> ExperimentResult:
    return ExperimentResult(
        experiment_id="opaque", title="opaque", paper_claim="none"
    )
