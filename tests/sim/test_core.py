"""Tests for the trace-driven CPU core model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mc.request import Request, RequestKind
from repro.sim.core import CoreConfig, TraceCore
from repro.traces.spec import BenchmarkProfile, get_benchmark
from repro.traces.content import ContentProfile


def _bench(mpki, row_hit_rate=0.5, write_fraction=0.0):
    return BenchmarkProfile(
        name="synthetic", suite="spec",
        content=ContentProfile("synthetic", {"zero": 1.0}),
        mpki=mpki, row_hit_rate=row_hit_rate, write_fraction=write_fraction,
    )


class TestComputeBound:
    def test_zero_mpki_never_issues(self):
        core = TraceCore(0, _bench(mpki=0.0))
        assert core.next_request(1e9) is None

    def test_zero_mpki_ipc_is_peak(self):
        core = TraceCore(0, _bench(mpki=0.0))
        core.next_request(1000.0)
        # No memory requests: the core would retire at peak width, but
        # retirement is only accounted at request issue; instead verify
        # the hint is None (nothing to wait for).
        assert core.next_arrival_hint(0.0) is None


class TestRequestGeneration:
    def test_requests_spaced_by_misses(self):
        core = TraceCore(0, _bench(mpki=10.0), seed=1)
        requests = []
        now = 0.0
        while len(requests) < 50:
            now += 10.0
            request = core.next_request(now)
            if request is not None:
                requests.append(request)
                core.complete_read(request, request.arrival_ns + 100.0)
        gaps_inst = core.instructions_retired / len(requests)
        assert gaps_inst == pytest.approx(100.0, rel=0.3)

    def test_row_locality_repeats_location(self):
        core = TraceCore(0, _bench(mpki=100.0, row_hit_rate=1.0), seed=2)
        seen = set()
        now = 0.0
        for _ in range(20):
            now += 100.0
            request = core.next_request(now)
            if request is None:
                continue
            seen.add((request.bank, request.row))
            if request.kind is RequestKind.READ:
                core.complete_read(request, now)
        assert len(seen) == 1

    def test_write_fraction_respected(self):
        core = TraceCore(0, _bench(mpki=100.0, write_fraction=1.0), seed=3)
        request = core.next_request(1e6)
        assert request.kind is RequestKind.WRITE

    def test_writes_do_not_occupy_window(self):
        core = TraceCore(0, _bench(mpki=1000.0, write_fraction=1.0), seed=4)
        for _ in range(50):
            request = core.next_request(1e9)
            assert request is not None
        assert core.outstanding == 0


#: Counts whose Lemire draw sometimes redraws (not powers of two), the
#: one-draw-free count 1, and the largest and smallest 32-bit cases.
_COUNTS = st.one_of(
    st.sampled_from([1, 2, 3, 6, 8, 1000, 32768, 2**31 + 1, 2**32]),
    st.integers(1, 2**32),
)


def _retired_stream(seed, core_id, bench, banks, rows_per_bank, channels, n):
    """The request stream as the core drew it from numpy's own methods:
    ``exponential`` for each gap, ``random()`` for the write and row-hit
    coins, ``integers`` for a fresh location (no channel draw on one
    channel). Reads complete at issue, so the core never stalls and each
    request issues one gap after the previous one."""
    rng = np.random.default_rng((seed << 8) ^ core_id)
    per_ns = CoreConfig().instructions_per_ns
    mean = 1000.0 / bench.mpki
    gap = float(rng.exponential(mean))
    clock = 0.0
    last = (0, 0, 0)
    stream = []
    for _ in range(n):
        clock = clock + gap / per_ns
        gap = float(rng.exponential(mean))
        is_write = rng.random() < bench.write_fraction
        if rng.random() >= bench.row_hit_rate:
            channel = int(rng.integers(channels)) if channels > 1 else 0
            bank = int(rng.integers(banks))
            row = int(rng.integers(rows_per_bank))
            last = (channel, bank, row)
        kind = RequestKind.WRITE if is_write else RequestKind.READ
        stream.append((kind, *last, clock))
    return stream


def _issue(core, n):
    """The first ``n`` requests ``core`` issues, each read completing at
    issue so the core never stalls."""
    got = []
    for _ in range(n):
        request = core.next_request(float("inf"))
        got.append((request.kind, request.channel, request.bank,
                    request.row, request.arrival_ns))
        if request.kind is RequestKind.READ:
            core.complete_read(request, request.arrival_ns)
    return got


class TestRawWordDraws:
    """The stream computes its draws from raw PCG64 words; every core
    reading it, first or replaying, must see the stream numpy's
    ``random()`` and ``integers()`` produced."""

    @given(
        seed=st.integers(0, 2**32),
        core_id=st.integers(0, 15),
        banks=_COUNTS,
        rows_per_bank=_COUNTS,
        channels=_COUNTS,
        row_hit_rate=st.sampled_from([0.0, 0.3, 0.9]),
        write_fraction=st.sampled_from([0.0, 0.25, 1.0]),
    )
    @settings(max_examples=40, deadline=None)
    def test_stream_matches_numpy_draws(
        self, seed, core_id, banks, rows_per_bank, channels,
        row_hit_rate, write_fraction,
    ):
        bench = _bench(mpki=20.0, row_hit_rate=row_hit_rate,
                       write_fraction=write_fraction)
        streams = {}
        cores = [
            TraceCore(core_id, bench, banks=banks,
                      rows_per_bank=rows_per_bank, channels=channels,
                      seed=seed, streams=streams)
            for _ in range(2)
        ]
        expected = _retired_stream(seed, core_id, bench, banks,
                                   rows_per_bank, channels, 2000)
        assert _issue(cores[0], 2000) == expected
        # The second core replays the stream the first drew, from a map
        # already 2,000 requests ahead of it.
        (stream,) = streams.values()
        assert len(stream.writes) >= 2000
        assert _issue(cores[1], 2000) == expected

    def test_stream_belongs_to_every_drawn_input(self):
        # One name, different profiles: the map keys by what the draws
        # read, never by the benchmark's name.
        streams = {}
        for bench in (_bench(mpki=20.0), _bench(mpki=40.0),
                      _bench(mpki=20.0, row_hit_rate=0.9),
                      _bench(mpki=20.0, write_fraction=0.5)):
            TraceCore(0, bench, seed=1, streams=streams)
        for kwargs in ({"seed": 2}, {"channels": 2}, {"banks": 4},
                       {"rows_per_bank": 1024}):
            TraceCore(0, _bench(mpki=20.0), streams=streams,
                      **{"seed": 1, **kwargs})
        TraceCore(1, _bench(mpki=20.0), seed=1, streams=streams)
        assert len(streams) == 9
        TraceCore(0, _bench(mpki=20.0), seed=1, streams=streams)
        assert len(streams) == 9

    @pytest.mark.parametrize("field", ["channels", "banks", "rows_per_bank"])
    @pytest.mark.parametrize("count", [0, 2**32 + 1])
    def test_counts_outside_32_bits_raise(self, field, count):
        with pytest.raises(ValueError):
            TraceCore(0, _bench(mpki=10.0), **{field: count})


class TestStalling:
    def test_window_fills_and_blocks(self):
        config = CoreConfig(max_outstanding=2)
        core = TraceCore(0, _bench(mpki=1000.0), config=config, seed=5)
        first = core.next_request(1e9)
        second = core.next_request(1e9)
        assert first is not None and second is not None
        assert core.next_request(1e9) is None
        assert core.stalled

    def test_completion_unblocks_and_accrues_stall(self):
        config = CoreConfig(max_outstanding=1)
        core = TraceCore(0, _bench(mpki=1000.0), config=config, seed=6)
        request = core.next_request(1e9)
        assert core.next_request(1e9) is None
        core.complete_read(request, request.arrival_ns + 500.0)
        assert core.stall_ns == pytest.approx(500.0)
        assert core.next_request(1e9) is not None

    def test_stall_delays_next_issue(self):
        config = CoreConfig(max_outstanding=1)
        core = TraceCore(0, _bench(mpki=1000.0), config=config, seed=7)
        request = core.next_request(1e9)
        core.complete_read(request, request.arrival_ns + 500.0)
        hint = core.next_arrival_hint(0.0)
        assert hint >= request.arrival_ns + 500.0

    def test_completion_for_other_core_raises(self):
        core = TraceCore(0, _bench(mpki=10.0), seed=8)
        foreign = Request(kind=RequestKind.READ, core=1, bank=0, row=0,
                          arrival_ns=0.0)
        with pytest.raises(ValueError):
            core.complete_read(foreign, 10.0)

    def test_completion_without_outstanding_raises(self):
        core = TraceCore(0, _bench(mpki=10.0), seed=9)
        own = Request(kind=RequestKind.READ, core=0, bank=0, row=0,
                      arrival_ns=0.0)
        with pytest.raises(RuntimeError):
            core.complete_read(own, 10.0)


class TestIpc:
    def test_ipc_formula(self):
        core = TraceCore(0, _bench(mpki=10.0), seed=10)
        core.instructions_retired = 8000.0
        # 1000 ns at 4 GHz = 4000 cycles.
        assert core.ipc(1000.0) == pytest.approx(2.0)

    def test_invalid_elapsed_raises(self):
        core = TraceCore(0, _bench(mpki=10.0))
        with pytest.raises(ValueError):
            core.ipc(0.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CoreConfig(width=0)
