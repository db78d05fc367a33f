"""Property-based timing invariants for the memory controller."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mc.controller import MemoryController, RefreshSettings
from repro.mc.request import Request, RequestKind


def _drive(controller, requests, horizon_ns):
    completed = []
    controller.on_read_complete = completed.append
    for request in requests:
        controller.scheduler.enqueue(request)
    now, tck = 0.0, controller.timing.tCK
    while now < horizon_ns:
        now = max(controller.drain(now, now + tck)[0], now + tck)
    return completed


request_batches = st.lists(
    st.tuples(
        st.integers(0, 7),        # bank
        st.integers(0, 63),       # row
        st.floats(0.0, 20_000.0),  # arrival
    ),
    min_size=1, max_size=25,
)


class TestServiceInvariants:
    @given(request_batches)
    @settings(max_examples=40, deadline=None)
    def test_every_read_completes_after_arrival(self, batch):
        controller = MemoryController()
        requests = [
            Request(kind=RequestKind.READ, core=0, bank=bank, row=row,
                    arrival_ns=arrival)
            for bank, row, arrival in batch
        ]
        completed = _drive(controller, list(requests), 100_000.0)
        assert len(completed) == len(requests)
        for request in completed:
            assert request.completion_ns > request.arrival_ns

    @given(request_batches)
    @settings(max_examples=40, deadline=None)
    def test_data_bursts_never_overlap(self, batch):
        """The shared data bus serialises bursts: completions on the rank
        must be spaced by at least one burst time."""
        controller = MemoryController()
        requests = [
            Request(kind=RequestKind.READ, core=0, bank=bank, row=row,
                    arrival_ns=arrival)
            for bank, row, arrival in batch
        ]
        completed = _drive(controller, list(requests), 100_000.0)
        burst_ns = controller.timing.burst_cycles * controller.timing.tCK
        times = sorted(r.completion_ns for r in completed)
        for earlier, later in zip(times, times[1:]):
            assert later - earlier >= burst_ns - 1e-9

    @given(st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_refresh_strictly_reduces_saturated_throughput(self, seed):
        """Under a saturating request stream, a heavily-refreshed rank
        must finish fewer reads than a lightly-refreshed one."""
        rng = np.random.default_rng(seed)
        batch = [
            Request(kind=RequestKind.READ, core=0,
                    bank=int(rng.integers(8)), row=int(rng.integers(64)),
                    arrival_ns=float(i) * 10.0)
            for i in range(60)
        ]
        def clone(requests):
            return [
                Request(kind=r.kind, core=r.core, bank=r.bank, row=r.row,
                        arrival_ns=r.arrival_ns)
                for r in requests
            ]
        heavy = MemoryController(
            refresh=RefreshSettings(base_interval_ms=16.0),
        )
        heavy.timing = heavy.timing.with_density(32)  # tRFC = 890 ns
        light = MemoryController(
            refresh=RefreshSettings(base_interval_ms=16.0, reduction=0.75),
        )
        light.timing = light.timing.with_density(32)
        horizon = 4000.0  # ~2 refresh windows for the heavy rank
        done_heavy = _drive(heavy, clone(batch), horizon)
        done_light = _drive(light, clone(batch), horizon)
        finished_heavy = sum(
            1 for r in done_heavy if r.completion_ns <= horizon
        )
        finished_light = sum(
            1 for r in done_light if r.completion_ns <= horizon
        )
        assert finished_light >= finished_heavy
