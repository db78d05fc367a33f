"""Tests for phase-resolved content traces."""

import pytest

from repro.traces.content import ContentProfile
from repro.traces.phases import ContentTrace, generate_content_trace


@pytest.fixture
def profile():
    return ContentProfile("phased", {"zero": 0.4, "random": 0.6})


class TestGeneration:
    def test_phase_count_and_rows(self, profile):
        trace = generate_content_trace(profile, n_rows=16, row_bytes=256,
                                       n_phases=4, seed=1)
        assert len(trace) == 4
        for snapshot in trace:
            assert sorted(snapshot.image) == list(range(16))
            assert all(len(d) == 256 for d in snapshot.image.values())

    def test_instruction_counters_accumulate(self, profile):
        trace = generate_content_trace(profile, 8, 128, n_phases=3,
                                       instructions_per_phase=100, seed=1)
        assert [s.instructions for s in trace] == [100, 200, 300]

    def test_churn_rewrites_expected_fraction(self, profile):
        trace = generate_content_trace(profile, n_rows=20, row_bytes=256,
                                       n_phases=3, churn_fraction=0.25,
                                       seed=2)
        first, second = trace[0], trace[1]
        changed = sum(
            1 for row in range(20)
            if first.image[row] != second.image[row]
        )
        # 25% of 20 rows = 5 rewritten (some rewrites may coincide by
        # chance; the recorded count is exact).
        assert second.rows_changed == 5
        assert changed <= 5

    def test_unchurned_rows_identical(self, profile):
        trace = generate_content_trace(profile, n_rows=20, row_bytes=256,
                                       n_phases=2, churn_fraction=0.25,
                                       seed=3)
        identical = sum(
            1 for row in range(20)
            if trace[0].image[row] == trace[1].image[row]
        )
        assert identical >= 15

    def test_zero_churn_freezes_content(self, profile):
        trace = generate_content_trace(profile, 8, 128, n_phases=3,
                                       churn_fraction=0.0, seed=4)
        assert trace[0].image == trace[2].image
        churn = [s.rows_changed / 8 for s in trace]
        assert churn == [1.0, 0.0, 0.0]

    def test_full_churn_replaces_everything(self, profile):
        trace = generate_content_trace(profile, 8, 256, n_phases=2,
                                       churn_fraction=1.0, seed=5)
        differing = sum(
            1 for row in range(8)
            if trace[0].image[row] != trace[1].image[row]
        )
        assert differing >= 6  # zero-type redraws can collide

    def test_deterministic(self, profile):
        a = generate_content_trace(profile, 8, 128, seed=6)
        b = generate_content_trace(profile, 8, 128, seed=6)
        for snap_a, snap_b in zip(a, b):
            assert snap_a.image == snap_b.image

    @pytest.mark.parametrize("kwargs", [
        {"n_phases": 0},
        {"churn_fraction": 1.5},
        {"instructions_per_phase": 0},
    ])
    def test_invalid_args_raise(self, profile, kwargs):
        with pytest.raises(ValueError):
            generate_content_trace(profile, 8, 128, **kwargs)


class TestContainer:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ContentTrace([])

    def test_mismatched_rows_rejected(self, profile):
        a = generate_content_trace(profile, 8, 128, n_phases=1, seed=1)
        b = generate_content_trace(profile, 16, 128, n_phases=1, seed=1)
        with pytest.raises(ValueError, match="same rows"):
            ContentTrace([a[0], b[0]])
