"""Prediction accuracy and coverage analysis for interval predictors.

The paper evaluates PRIL by two complementary metrics (§4.1): *accuracy*
(of the intervals predicted long, how many really were) and *coverage*
(how much of the total write-interval time the predictions capture). This
module computes both for any CIL-threshold predictor, plus the confusion
counts needed for misprediction-overhead accounting (Figure 18).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..traces.events import WriteTrace
from .intervals import LONG_INTERVAL_MS


@dataclass(frozen=True)
class PredictionQuality:
    """Confusion summary for a wait-CIL-then-predict-long rule."""

    cil_ms: float
    ril_threshold_ms: float
    true_positives: int    # predicted long, remaining length was long
    false_positives: int   # predicted long, next write arrived early
    missed_long: int       # long intervals never predicted (L < cil)
    short_skipped: int     # short intervals correctly never predicted
    accuracy: float        # TP / (TP + FP)
    time_coverage: float   # long-interval time captured / total long time

    @property
    def n_predictions(self) -> int:
        return self.true_positives + self.false_positives


def evaluate_predictor(
    trace: WriteTrace,
    cil_ms: float,
    ril_threshold_ms: float = LONG_INTERVAL_MS,
) -> PredictionQuality:
    """Score the rule "after CIL of idleness, predict RIL > threshold".

    An interval of length L triggers a prediction iff L >= cil; the
    prediction is correct iff L - cil > threshold. Coverage is measured
    against the total time in intervals longer than ``threshold`` (the
    opportunity PRIL is trying to harvest). Trailing censored intervals
    are included, lower-bounding their true length by the observed idle.
    """
    if cil_ms < 0:
        raise ValueError("cil_ms must be non-negative")
    intervals = trace.all_intervals(include_trailing=True)
    if len(intervals) == 0:
        return PredictionQuality(
            cil_ms=cil_ms, ril_threshold_ms=ril_threshold_ms,
            true_positives=0, false_positives=0, missed_long=0,
            short_skipped=0, accuracy=0.0, time_coverage=0.0,
        )
    predicted = intervals >= cil_ms
    long_remaining = intervals - cil_ms > ril_threshold_ms
    is_long = intervals > ril_threshold_ms

    tp = int(np.sum(predicted & long_remaining))
    fp = int(np.sum(predicted & ~long_remaining))
    missed = int(np.sum(~predicted & is_long))
    skipped = int(np.sum(~predicted & ~is_long))

    total_long_time = intervals[is_long].sum()
    captured = np.clip(intervals[predicted & long_remaining] - cil_ms, 0.0, None).sum()
    return PredictionQuality(
        cil_ms=cil_ms,
        ril_threshold_ms=ril_threshold_ms,
        true_positives=tp,
        false_positives=fp,
        missed_long=missed,
        short_skipped=skipped,
        accuracy=tp / (tp + fp) if tp + fp else 0.0,
        time_coverage=float(captured / total_long_time) if total_long_time else 0.0,
    )

