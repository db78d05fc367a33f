"""Tests for the Table 1 workload registry."""

import pytest

from repro.traces.workloads import (
    REPRESENTATIVE_WORKLOADS,
    WORKLOADS,
    WorkloadProfile,
)


class TestRegistry:
    def test_twelve_workloads(self):
        assert len(WORKLOADS) == 12

    def test_representative_subset(self):
        assert set(REPRESENTATIVE_WORKLOADS) <= set(WORKLOADS)
        assert REPRESENTATIVE_WORKLOADS == (
            "ACBrotherHood", "Netflix", "SystemMgt",
        )

    # Spot-check the published Table 1 facts.
    @pytest.mark.parametrize("name,runtime,mem,threads", [
        ("ACBrotherHood", 209.1, 2.8, 8),
        ("AllSysMark", 2064.0, 3.4, 4),
        ("Netflix", 229.4, 4.6, 2),
        ("SystemMgt", 466.2, 7.6, 2),
        ("VideoEncode", 299.1, 7.3, 4),
    ])
    def test_table1_values(self, name, runtime, mem, threads):
        profile = WORKLOADS[name]
        assert profile.runtime_s == runtime
        assert profile.mem_gb == mem
        assert profile.threads == threads

    def test_names_match_keys(self):
        assert all(name == p.name for name, p in WORKLOADS.items())

    def test_duration_capped_at_two_minutes(self):
        assert WORKLOADS["AllSysMark"].duration_ms == 120_000.0
        assert WORKLOADS["FinalCutPro"].duration_ms == 76_900.0


class TestProfileValidation:
    def _base(self, **overrides):
        kwargs = dict(name="x", app_type="t", runtime_s=10.0,
                      mem_gb=1.0, threads=1)
        kwargs.update(overrides)
        return kwargs

    @pytest.mark.parametrize("overrides", [
        {"runtime_s": 0.0},
        {"n_pages": 0},
        {"written_page_fraction": 1.5},
        {"streaming_page_fraction": -0.1},
        {"pareto_alpha": 0.0},
        {"stream_xm_lo_ms": 0.0},
        {"regular_xm_lo_ms": 100.0, "regular_xm_hi_ms": 50.0},
        {"burst_length_mean": -1.0},
        {"burst_spacing_ms": 0.0},
    ])
    def test_invalid_profiles_raise(self, overrides):
        with pytest.raises(ValueError):
            WorkloadProfile(**self._base(**overrides))
