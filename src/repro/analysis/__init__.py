"""Statistical analysis: Pareto fitting and write-interval metrics."""

from .coverage import PredictionQuality, evaluate_predictor
from .intervals import (
    CIL_GRID_MS,
    INTERVAL_BUCKETS_MS,
    LONG_INTERVAL_MS,
    IntervalDistribution,
    coverage_curve,
    interval_distribution,
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
    "INTERVAL_BUCKETS_MS",
    "IntervalDistribution",
    "LONG_INTERVAL_MS",
    "ParetoFit",
    "PredictionQuality",
    "coverage_curve",
    "empirical_ccdf",
    "evaluate_predictor",
    "fit_pareto",
    "hazard_rate",
    "interval_distribution",
    "is_decreasing_hazard",
    "ril_exceeds_probability",
    "ril_probability_curve",
    "time_in_long_intervals",
]
