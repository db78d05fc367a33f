"""Tests for the experiment runner and result rendering."""

import pytest

from repro.experiments.common import ExperimentResult, percent
from repro.experiments.runner import EXPERIMENTS, run_experiments


class TestExperimentResult:
    def test_columns_preserve_order(self):
        result = ExperimentResult("x", "t", "claim")
        result.add_row(a=1, b=2)
        result.add_row(b=3, c=4)
        assert result.columns() == ["a", "b", "c"]

    def test_to_text_contains_everything(self):
        result = ExperimentResult("fig99", "Example", "paper says 42")
        result.add_row(metric="speedup", value=1.5)
        result.notes = "a note"
        text = result.to_text()
        assert "fig99" in text
        assert "paper says 42" in text
        assert "speedup" in text
        assert "1.500" in text
        assert "a note" in text

    def test_to_text_without_rows(self):
        result = ExperimentResult("fig99", "Empty", "claim")
        assert "fig99" in result.to_text()

    def test_percent_helper(self):
        assert percent(0.1234) == "12.3%"
        assert percent(0.1234, 2) == "12.34%"


class TestRunner:
    def test_registry_covers_all_paper_artifacts(self):
        assert set(EXPERIMENTS) == {
            "fig03", "fig04", "fig06", "fig07", "fig08", "fig09",
            "fig11", "fig12", "fig14", "fig15", "fig16", "fig17",
            "fig18", "fig19", "table3",
        }

    def test_run_named_subset(self):
        results = run_experiments(["fig06"], quick=True)
        assert len(results) == 1
        assert results[0].experiment_id == "fig06"

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError, match="unknown experiments"):
            run_experiments(["fig99"])
