"""Tests for the host-speed reference in ``hostspeed.py``.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

import os
import time

import pytest

from hostspeed import MIN_CHUNKS, REF_CHUNK_NS, SpeedProbe, chunk, trimmed_mean

SLOW, REF, FAST = 2 * REF_CHUNK_NS, REF_CHUNK_NS, REF_CHUNK_NS // 2


def _probe(costs_by_second):
    """A probe holding chunks at 1 ms steps from t = 1 s, with no thread."""
    probe = SpeedProbe()
    t_ns = 1_000_000_000
    for cost in costs_by_second:
        for _ in range(1000):
            probe.record(t_ns, cost)
            t_ns += 1_000_000
    return probe


def test_scale_is_reference_over_the_mean_chunk_in_the_window():
    probe = _probe([SLOW, REF, FAST])          # seconds 1-2, 2-3, 3-4
    assert probe.scale(1.0, 1.999) == pytest.approx(0.5)
    assert probe.scale(2.0, 2.999) == pytest.approx(1.0)
    assert probe.scale(3.0, 3.999) == pytest.approx(2.0)
    assert probe.scale(2.0, 3.999) == pytest.approx(REF / ((REF + FAST) / 2))


def test_trimmed_mean_drops_a_tenth_at_either_end():
    assert trimmed_mean([1000] + [10] * 8 + [0]) == 10
    assert trimmed_mean([7]) == 7
    assert trimmed_mean([1, 2, 3, 100]) == 26.5   # too few to trim


def test_a_sparse_window_borrows_the_chunks_just_before_it():
    probe = _probe([SLOW])                     # chunks end by t = 2 s
    probe.record(2_500_000_000, FAST)          # one chunk in the window
    assert 1 < MIN_CHUNKS
    assert probe.scale(2.4, 2.6) == pytest.approx(0.5)


def test_scale_needs_a_chunk_timed_by_the_window_end():
    probe = _probe([REF])
    with pytest.raises(ValueError):
        probe.scale(0.1, 0.5)
    assert probe.scale(5.0, 6.0) == pytest.approx(1.0)


def test_chunk_walks_the_buffer_deterministically():
    assert chunk(0) == chunk(0) > 0
    assert chunk(chunk(0)) != chunk(0)


def test_probe_pins_to_one_cpu_samples_only_when_asked_and_restores():
    before = os.sched_getaffinity(0)
    with SpeedProbe() as probe:
        assert os.sched_getaffinity(0) == {max(before)}
        time.sleep(0.05)
        assert len(probe._costs) == 0
        start = time.monotonic()
        with probe.sampling():
            time.sleep(0.05)
        end = time.monotonic()
        assert len(probe._costs) >= MIN_CHUNKS
        assert probe.scale(start, end) > 0
    assert os.sched_getaffinity(0) == before
    assert not probe._thread.is_alive()
