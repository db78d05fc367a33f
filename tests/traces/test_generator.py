"""Tests for the synthetic write-trace generator."""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.traces import generator
from repro.traces.generator import (
    clear_trace_cache,
    generate_page_writes,
    generate_trace,
    trace_cache_info,
)
from repro.traces.workloads import WORKLOADS, WorkloadProfile
from tests.oracles.traces import page_writes_loop


def _idle_gaps(seed, xm_ms, alpha, duration_ms):
    """Gaps between single-write episodes: Pareto(xm, alpha) draws, each
    plus one negligible intra-burst spacing."""
    times = generate_page_writes(
        np.random.default_rng(seed), duration_ms=duration_ms, xm_ms=xm_ms,
        pareto_alpha=alpha, burst_extra_mean=0.0, burst_spacing_ms=1e-9,
        start_ms=0.0,
    )
    return np.diff(times)


class TestParetoGaps:
    def test_respects_scale_minimum(self):
        gaps = _idle_gaps(0, xm_ms=5.0, alpha=0.7, duration_ms=1e5)
        assert len(gaps) > 400
        assert gaps.min() >= 5.0

    def test_tail_index_roughly_correct(self):
        gaps = _idle_gaps(1, xm_ms=1.0, alpha=0.8, duration_ms=1e7)
        assert len(gaps) > 40_000
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


class TestRetiredEpisodeLoop:
    """The page's timestamps and the generator's state afterwards match
    the retired one-episode-at-a-time loop, bit for bit."""

    @staticmethod
    def _both(seed, *args, **kwargs):
        got_rng = np.random.default_rng(seed)
        want_rng = np.random.default_rng(seed)
        got = generate_page_writes(got_rng, *args, **kwargs)
        want = page_writes_loop(want_rng, *args, **kwargs)
        assert got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        return got

    @given(
        seed=st.integers(0, 2**32),
        duration_ms=st.floats(1.0, 5_000.0),
        xm_ms=st.floats(1.0, 1_000.0),
        # 0.002: a gap from any draw under 0.24 overflows to inf.
        pareto_alpha=st.sampled_from(
            [0.002, 0.3, 0.5, 0.62, 0.7, 0.8, 1.0, 2.0]
        ),
        burst_extra_mean=st.sampled_from([0.0, 0.5, 3.0, 25.0, 40.0]),
        burst_spacing_ms=st.floats(0.01, 1.0),
        start_ms=st.one_of(st.none(), st.floats(0.0, 6_000.0)),
    )
    @settings(max_examples=150, deadline=None)
    @pytest.mark.filterwarnings("ignore:overflow encountered in power")
    def test_matches_retired_loop(self, seed, duration_ms, xm_ms,
                                  pareto_alpha, burst_extra_mean,
                                  burst_spacing_ms, start_ms):
        self._both(seed, duration_ms, xm_ms, pareto_alpha,
                   burst_extra_mean, burst_spacing_ms, start_ms=start_ms)

    @pytest.mark.parametrize("episode", [1, 7, 60, 133, 400, 1000, 2500])
    def test_window_ending_on_an_episode_start(self, episode):
        # With single-write episodes each write starts an episode. A
        # window ending exactly on one must stop before drawing it.
        kwargs = dict(xm_ms=2.0, pareto_alpha=0.7, burst_extra_mean=0.0,
                      burst_spacing_ms=0.1, start_ms=0.0)
        times = page_writes_loop(np.random.default_rng(3),
                                 duration_ms=1e6, **kwargs)
        got = self._both(3, times[episode], **kwargs)
        assert len(got) == episode


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


#: sha256 over each page's id (int64) and write times (float64), in
#: ``writes`` order, of ``generate_trace(WORKLOADS[name], seed=1,
#: duration_ms=30_000)``, recorded before the episode loop was rewritten
#: to draw and sum whole bursts at a time.
TRACE_PINS = {
    "ACBrotherHood": (
        409_950,
        "e2c0167da000a970532ebef9fd619535c335b8c331bfca0d3e02bbd7cc89da39",
    ),
    "SystemMgt": (
        496_379,
        "f372039bdfb73092ed8958a998d1dc17b1d58413e1e785808f49fb778292a4bf",
    ),
    "BlurMotion": (
        169_482,
        "94e23769fa3b8fb0e841f1235e6241b24cd36dfa169e8fa3fa871bcb456bdb9b",
    ),
}


class TestTracePins:
    @pytest.mark.parametrize("name", sorted(TRACE_PINS))
    def test_trace_bytes_pinned(self, name):
        trace = generate_trace(WORKLOADS[name], seed=1, duration_ms=30_000)
        digest = hashlib.sha256()
        for page, times in trace.writes.items():
            digest.update(np.int64(page).tobytes())
            digest.update(np.asarray(times, dtype="<f8").tobytes())
        assert (trace.n_writes, digest.hexdigest()) == TRACE_PINS[name]


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
