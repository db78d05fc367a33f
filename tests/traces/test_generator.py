"""Tests for the synthetic write-trace generator."""

import dataclasses

import numpy as np
import pytest

from repro import obs
from repro.traces import generator
from repro.traces.generator import (
    clear_trace_cache,
    generate_page_writes,
    generate_trace,
    pareto_gaps,
    trace_cache_info,
)
from repro.traces.workloads import WORKLOADS, WorkloadProfile


class TestParetoGaps:
    def test_respects_scale_minimum(self):
        rng = np.random.default_rng(0)
        gaps = pareto_gaps(rng, 1000, xm_ms=5.0, alpha=0.7)
        assert gaps.min() >= 5.0

    def test_tail_index_roughly_correct(self):
        rng = np.random.default_rng(1)
        gaps = pareto_gaps(rng, 200_000, xm_ms=1.0, alpha=0.8)
        # P(X > x) = x**-alpha: check the empirical CCDF at x = 10.
        assert np.mean(gaps > 10.0) == pytest.approx(10 ** -0.8, rel=0.1)


class TestPageWrites:
    def test_sorted_and_in_window(self):
        rng = np.random.default_rng(2)
        times = generate_page_writes(
            rng, duration_ms=5000.0, xm_ms=50.0, pareto_alpha=0.7,
            burst_extra_mean=10.0, burst_spacing_ms=0.1,
        )
        assert np.all(np.diff(times) >= 0)
        assert times.min() >= 0 and times.max() < 5000.0

    def test_zero_extra_gives_single_write_episodes(self):
        rng = np.random.default_rng(3)
        times = generate_page_writes(
            rng, duration_ms=50_000.0, xm_ms=500.0, pareto_alpha=0.7,
            burst_extra_mean=0.0, burst_spacing_ms=0.1,
        )
        gaps = np.diff(times)
        # Every gap is an inter-episode Pareto gap (>= xm).
        assert np.all(gaps >= 500.0)

    def test_bursts_have_sub_ms_spacing(self):
        rng = np.random.default_rng(4)
        times = generate_page_writes(
            rng, duration_ms=10_000.0, xm_ms=100.0, pareto_alpha=0.7,
            burst_extra_mean=20.0, burst_spacing_ms=0.05,
        )
        gaps = np.diff(times)
        assert np.mean(gaps < 1.0) > 0.9

    @pytest.mark.parametrize("kwargs", [
        {"duration_ms": 0.0, "xm_ms": 1.0, "pareto_alpha": 0.7},
        {"duration_ms": 1.0, "xm_ms": 0.0, "pareto_alpha": 0.7},
        {"duration_ms": 1.0, "xm_ms": 1.0, "pareto_alpha": 0.0},
        {"duration_ms": 1.0, "xm_ms": 1.0, "pareto_alpha": 0.7,
         "burst_extra_mean": -1.0},
    ])
    def test_invalid_args_raise(self, kwargs):
        rng = np.random.default_rng(0)
        kwargs.setdefault("burst_extra_mean", 1.0)
        with pytest.raises(ValueError):
            generate_page_writes(rng, burst_spacing_ms=0.1, **kwargs)


class TestGenerateTrace:
    @pytest.fixture(scope="class")
    def trace(self):
        return generate_trace(WORKLOADS["BlurMotion"], seed=1,
                              duration_ms=30_000.0)

    def test_footprint_matches_profile(self, trace):
        profile = WORKLOADS["BlurMotion"]
        assert trace.total_pages == profile.n_pages
        expected_written = int(
            round(profile.n_pages * profile.written_page_fraction)
        )
        assert abs(len(trace.written_pages) - expected_written) <= 3

    def test_deterministic_for_seed(self):
        a = generate_trace(WORKLOADS["BlurMotion"], seed=9,
                           duration_ms=10_000.0)
        b = generate_trace(WORKLOADS["BlurMotion"], seed=9,
                           duration_ms=10_000.0)
        assert a.n_writes == b.n_writes
        for page in a.writes:
            assert np.array_equal(a.writes[page], b.writes[page])

    def test_seeds_differ(self):
        a = generate_trace(WORKLOADS["BlurMotion"], seed=1,
                           duration_ms=10_000.0)
        b = generate_trace(WORKLOADS["BlurMotion"], seed=2,
                           duration_ms=10_000.0)
        assert a.n_writes != b.n_writes

    def test_sub_ms_write_fraction(self, trace):
        intervals = trace.all_intervals()
        assert np.mean(intervals < 1.0) > 0.9

    def test_time_dominated_by_long_intervals(self, trace):
        intervals = trace.all_intervals(include_trailing=True)
        long_time = intervals[intervals >= 1024.0].sum()
        assert long_time / intervals.sum() > 0.75

    def test_duration_override(self):
        trace = generate_trace(WORKLOADS["Netflix"], seed=1,
                               duration_ms=5_000.0)
        assert trace.duration_ms == 5_000.0
        for times in trace.writes.values():
            assert times.max() < 5_000.0


class TestTraceCache:
    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        clear_trace_cache()
        yield
        clear_trace_cache()

    def test_repeat_call_hits_cache(self):
        a = generate_trace(WORKLOADS["Netflix"], seed=4, duration_ms=2_000.0)
        b = generate_trace(WORKLOADS["Netflix"], seed=4, duration_ms=2_000.0)
        assert a is b

    def test_limit_is_configurable_and_evicts_lru(self, monkeypatch):
        monkeypatch.setattr(generator, "_TRACE_CACHE_LIMIT", 2)
        first = generate_trace(WORKLOADS["Netflix"], seed=5,
                               duration_ms=1_000.0)
        generate_trace(WORKLOADS["BlurMotion"], seed=5, duration_ms=1_000.0)
        # Touch Netflix so BlurMotion becomes LRU, then overflow.
        assert generate_trace(WORKLOADS["Netflix"], seed=5,
                              duration_ms=1_000.0) is first
        generate_trace(WORKLOADS["SystemMgt"], seed=5, duration_ms=1_000.0)
        assert trace_cache_info()["size"] == 2
        assert generate_trace(WORKLOADS["Netflix"], seed=5,
                              duration_ms=1_000.0) is first
        fresh = generate_trace(WORKLOADS["BlurMotion"], seed=5,
                               duration_ms=1_000.0)
        again = generate_trace(WORKLOADS["BlurMotion"], seed=5,
                               duration_ms=1_000.0)
        assert fresh is again

    def test_zero_limit_disables_caching(self, monkeypatch):
        monkeypatch.setattr(generator, "_TRACE_CACHE_LIMIT", 0)
        a = generate_trace(WORKLOADS["Netflix"], seed=6, duration_ms=1_000.0)
        b = generate_trace(WORKLOADS["Netflix"], seed=6, duration_ms=1_000.0)
        assert a is not b
        assert trace_cache_info() == {"size": 0, "limit": 0}

    def test_profile_subclass_never_aliases(self):
        class ShadowProfile(WorkloadProfile):
            pass

        base = WORKLOADS["Netflix"]
        shadow = ShadowProfile(**dataclasses.asdict(base))
        generate_trace(base, seed=7, duration_ms=1_000.0)
        a = generate_trace(shadow, seed=7, duration_ms=1_000.0)
        b = generate_trace(shadow, seed=7, duration_ms=1_000.0)
        # Subclasses opt out of the cache entirely: never served a
        # WorkloadProfile's entry, never cached themselves.
        assert a is not b

    def test_hit_miss_metrics(self):
        registry = obs.MetricsRegistry(enabled=True)
        previous = obs.set_registry(registry)
        try:
            generate_trace(WORKLOADS["Netflix"], seed=8, duration_ms=1_000.0)
            generate_trace(WORKLOADS["Netflix"], seed=8, duration_ms=1_000.0)
            generate_trace(WORKLOADS["Netflix"], seed=9, duration_ms=1_000.0)
            assert registry.counter("traces.cache_hits").value == 1
            assert registry.counter("traces.cache_misses").value == 2
            assert registry.gauge("traces.cache_size").value == 2
        finally:
            obs.set_registry(previous)
