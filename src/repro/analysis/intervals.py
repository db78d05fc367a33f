"""Write-interval statistics: distributions, CIL/RIL conditionals.

Terminology (paper Figure 10): within one write interval, the *current
interval length* (CIL) is the time elapsed since the last write, and the
*remaining interval length* (RIL) is the time until the next write. PRIL
predicts "RIL will exceed the MinWriteInterval" from "CIL already exceeds a
quantum", exploiting the Pareto DHR property.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..traces.events import WriteTrace

#: The write-interval bucket edges the paper plots (Figure 7), in ms.
INTERVAL_BUCKETS_MS = np.array(
    [1.0, 8.0, 64.0, 512.0, 4096.0, 32768.0, np.inf]
)

#: The CIL sweep used in Figures 11 and 12, in ms.
CIL_GRID_MS = np.array(
    [1, 2, 4, 8, 16, 32, 64, 128, 256, 512,
     1024, 2048, 4096, 8192, 16384, 32768],
    dtype=np.float64,
)

#: The paper's definition of a "long" write interval, in ms.
LONG_INTERVAL_MS = 1024.0


@dataclass(frozen=True)
class IntervalDistribution:
    """Histogram of write-interval lengths (per-write, Figure 7 style)."""

    bucket_edges_ms: np.ndarray
    counts: np.ndarray
    n_intervals: int

    @property
    def percentages(self) -> np.ndarray:
        if self.n_intervals == 0:
            return np.zeros_like(self.counts, dtype=np.float64)
        return 100.0 * self.counts / self.n_intervals


def interval_distribution(
    trace: WriteTrace,
    bucket_edges_ms: Optional[np.ndarray] = None,
) -> IntervalDistribution:
    """Bucket every write interval of a trace (paper Figure 7)."""
    edges = INTERVAL_BUCKETS_MS if bucket_edges_ms is None else bucket_edges_ms
    intervals = trace.all_intervals()
    counts = np.histogram(intervals, bins=np.concatenate(([0.0], edges)))[0]
    return IntervalDistribution(
        bucket_edges_ms=np.asarray(edges),
        counts=counts,
        n_intervals=len(intervals),
    )


def fraction_of_writes_below(trace: WriteTrace, threshold_ms: float) -> float:
    """Fraction of write intervals shorter than a threshold."""
    intervals = trace.all_intervals()
    if len(intervals) == 0:
        return 0.0
    return float(np.mean(intervals < threshold_ms))


def time_in_long_intervals(
    trace: WriteTrace,
    threshold_ms: float = LONG_INTERVAL_MS,
    include_trailing: bool = True,
) -> float:
    """Fraction of total write-interval *time* in intervals >= threshold.

    This is the paper's Figure 9 metric: long intervals are rare by count
    but dominate by time. Trailing (right-censored) idle periods count by
    default, as they do for refresh-reduction purposes.
    """
    intervals = trace.all_intervals(include_trailing=include_trailing)
    total = intervals.sum()
    if total == 0:
        return 0.0
    return float(intervals[intervals >= threshold_ms].sum() / total)


def ril_exceeds_probability(
    trace: WriteTrace,
    cil_ms: float,
    ril_threshold_ms: float = LONG_INTERVAL_MS,
) -> float:
    """P(RIL > threshold | CIL >= cil) over all write intervals.

    An interval of length L reaches current-interval-length ``cil`` iff
    L >= cil, and its remaining length at that moment is L - cil. So the
    conditional is P(L - cil > threshold | L >= cil). Trailing censored
    intervals are included: a page that stays idle to the end of the trace
    genuinely had a long remaining interval (lower-bounded), so censored
    intervals count as exceeding whenever their observed remainder does.
    """
    return _ril_exceeds(
        trace.all_intervals(include_trailing=True), cil_ms, ril_threshold_ms
    )


def _ril_exceeds(
    intervals: np.ndarray, cil_ms: float, ril_threshold_ms: float
) -> float:
    reached = intervals[intervals >= cil_ms]
    if len(reached) == 0:
        return 0.0
    return float(np.mean(reached - cil_ms > ril_threshold_ms))


def ril_probability_curve(
    trace: WriteTrace,
    cil_grid_ms: Optional[Sequence[float]] = None,
    ril_threshold_ms: float = LONG_INTERVAL_MS,
) -> np.ndarray:
    """Figure 11: P(RIL > threshold) as a function of CIL.

    Each point is :func:`ril_exceeds_probability`; the intervals are
    pooled once for the whole grid.
    """
    grid = CIL_GRID_MS if cil_grid_ms is None else cil_grid_ms
    intervals = trace.all_intervals(include_trailing=True)
    return np.array(
        [_ril_exceeds(intervals, c, ril_threshold_ms) for c in grid]
    )


def interval_time_coverage(
    trace: WriteTrace,
    cil_ms: float,
) -> float:
    """Figure 12: fraction of write-interval time captured by waiting CIL.

    Waiting ``cil`` before acting forfeits the first ``cil`` of every
    interval and skips intervals shorter than that entirely; the covered
    time is ``sum(max(L - cil, 0)) / sum(L)``.
    """
    return _time_coverage(trace.all_intervals(include_trailing=True), cil_ms)


def _time_coverage(intervals: np.ndarray, cil_ms: float) -> float:
    total = intervals.sum()
    if total == 0:
        return 0.0
    covered = np.clip(intervals - cil_ms, 0.0, None).sum()
    return float(covered / total)


def coverage_curve(
    trace: WriteTrace,
    cil_grid_ms: Optional[Sequence[float]] = None,
) -> np.ndarray:
    """Figure 12 curve over the CIL grid.

    Each point is :func:`interval_time_coverage`; the intervals are
    pooled once for the whole grid.
    """
    grid = CIL_GRID_MS if cil_grid_ms is None else cil_grid_ms
    intervals = trace.all_intervals(include_trailing=True)
    return np.array([_time_coverage(intervals, c) for c in grid])
