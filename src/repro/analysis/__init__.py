"""Statistical analysis: Pareto fitting and write-interval metrics."""

from .coverage import (
    ContentFailureCoverage,
    PredictionQuality,
    accuracy_coverage_tradeoff,
    content_failure_coverage,
    evaluate_predictor,
)
from .intervals import (
    CIL_GRID_MS,
    INTERVAL_BUCKETS_MS,
    LONG_INTERVAL_MS,
    IntervalDistribution,
    coverage_curve,
    fraction_of_writes_below,
    interval_distribution,
    interval_time_coverage,
    ril_exceeds_probability,
    ril_probability_curve,
    time_in_long_intervals,
)
from .pareto import (
    ParetoFit,
    empirical_ccdf,
    fit_pareto,
    hazard_rate,
    is_decreasing_hazard,
)

__all__ = [
    "CIL_GRID_MS",
    "ContentFailureCoverage",
    "INTERVAL_BUCKETS_MS",
    "IntervalDistribution",
    "LONG_INTERVAL_MS",
    "ParetoFit",
    "PredictionQuality",
    "accuracy_coverage_tradeoff",
    "content_failure_coverage",
    "coverage_curve",
    "empirical_ccdf",
    "evaluate_predictor",
    "fit_pareto",
    "fraction_of_writes_below",
    "hazard_rate",
    "interval_distribution",
    "interval_time_coverage",
    "is_decreasing_hazard",
    "ril_exceeds_probability",
    "ril_probability_curve",
    "time_in_long_intervals",
]
