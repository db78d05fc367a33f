"""Tests for predictor accuracy/coverage scoring."""

import numpy as np
import pytest

from repro.analysis.coverage import evaluate_predictor


class TestEvaluatePredictor:
    def test_confusion_counts(self, trace_factory):
        # Intervals with trailing: writes at 0, 500, 3000 in a 10 s trace:
        # 500 (short, < cil), 2500 (reaches cil, remaining 2000 > 1024 TP),
        # trailing 7000 (TP).
        trace = trace_factory({0: [0.0, 500.0, 3000.0]})
        quality = evaluate_predictor(trace, cil_ms=512.0)
        assert quality.true_positives == 2
        assert quality.false_positives == 0
        assert quality.short_skipped == 1
        assert quality.missed_long == 0
        assert quality.accuracy == 1.0

    def test_false_positive(self, trace_factory):
        # Interval 600: reaches CIL 512 but remaining 88 < 1024 -> FP.
        trace = trace_factory({0: [0.0, 600.0, 9999.0]})
        quality = evaluate_predictor(trace, cil_ms=512.0)
        assert quality.false_positives >= 1
        assert quality.accuracy < 1.0

    def test_missed_long(self, trace_factory):
        # Interval 2000 is long but below a huge CIL -> missed.
        trace = trace_factory({0: [0.0, 2000.0, 9999.0]},
                              duration_ms=10_000.0)
        quality = evaluate_predictor(trace, cil_ms=5000.0)
        assert quality.missed_long >= 1

    def test_time_coverage_bounds(self, trace_factory):
        rng = np.random.default_rng(2)
        times = np.sort(rng.uniform(0, 50_000, 40))
        trace = trace_factory({0: times}, duration_ms=60_000.0)
        quality = evaluate_predictor(trace, cil_ms=512.0)
        assert 0.0 <= quality.time_coverage <= 1.0

    def test_accuracy_increases_with_cil(self, trace_factory):
        rng = np.random.default_rng(3)
        # Heavy-tail synthetic page: many short, some huge intervals.
        gaps = np.concatenate([
            rng.exponential(50.0, 200),
            rng.uniform(2000.0, 20_000.0, 20),
        ])
        rng.shuffle(gaps)
        times = np.cumsum(gaps)
        times = times[times < 200_000.0]
        trace = trace_factory({0: times}, duration_ms=200_000.0)
        sweep = [
            evaluate_predictor(trace, cil) for cil in (16.0, 256.0, 2048.0)
        ]
        accuracies = [q.accuracy for q in sweep]
        assert accuracies[0] <= accuracies[-1] + 1e-9

    def test_coverage_decreases_with_cil(self, trace_factory):
        rng = np.random.default_rng(4)
        times = np.sort(rng.uniform(0, 50_000, 60))
        trace = trace_factory({0: times}, duration_ms=60_000.0)
        sweep = [
            evaluate_predictor(trace, cil) for cil in (16.0, 512.0, 8192.0)
        ]
        coverages = [q.time_coverage for q in sweep]
        assert coverages[0] >= coverages[-1] - 1e-9

    def test_empty_trace(self, trace_factory):
        quality = evaluate_predictor(trace_factory({}), cil_ms=512.0)
        assert quality.n_predictions == 0
        assert quality.accuracy == 0.0

    def test_negative_cil_raises(self, trace_factory):
        with pytest.raises(ValueError):
            evaluate_predictor(trace_factory({0: [1.0]}), cil_ms=-1.0)

