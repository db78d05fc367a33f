"""Performance metrics for simulator results."""

from __future__ import annotations

import math
from typing import Sequence

from .system import SystemResult


def speedup(result: SystemResult, baseline: SystemResult) -> float:
    """System speedup: weighted speedup ratio against a baseline run.

    For a single core this is the plain IPC ratio; for multiprogrammed
    mixes it is the normalised weighted speedup, the metric the paper's
    multi-core figures report.
    """
    if len(result.cores) != len(baseline.cores):
        raise ValueError("core counts differ")
    return result.weighted_speedup_vs(baseline) / len(result.cores)


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean, the conventional aggregate for speedups.

    Computed as ``exp(mean(log(v)))`` rather than the n-th root of the
    running product: the product of many large (or tiny) speedups
    overflows to ``inf`` (or underflows to 0) in float64 long before the
    mean itself leaves the representable range.
    """
    if not values:
        raise ValueError("values must not be empty")
    if any(v <= 0 for v in values):
        raise ValueError("values must be positive")
    if len(values) == 1:
        return float(values[0])  # exact, no log/exp round-trip error
    return math.exp(math.fsum(math.log(v) for v in values) / len(values))

