"""The cycle-level memory controller.

Ties together the FR-FCFS scheduler, per-bank row-buffer timing, the
rank-wide data bus, and the refresh scheduler. Refresh is the lever the
whole paper turns on: auto-refresh commands block the rank for ``tRFC``
every effective ``tREFI``, and refresh-reduction mechanisms (MEMCON,
RAIDR, slower baselines) stretch the effective ``tREFI`` in proportion to
the refresh operations they eliminate — exactly how the paper models the
mechanisms inside its simulator (§6.2).

MEMCON's testing traffic is injected as background requests: each
concurrent test contributes two full-row reads (Read&Compare) spread over
the test window (Table 3's overhead study).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from .. import obs
from ..dram.timing import DDR3_1600, TimingParameters
from .bank import BankState, RankState, issue_refresh, service_request
from .request import Request, RequestKind
from .schedule import ArrivalSchedule
from .scheduler import FrFcfsScheduler, SchedulerConfig

_INF = float("inf")
_READ = RequestKind.READ
_WRITE = RequestKind.WRITE


@dataclass
class RefreshSettings:
    """Refresh behaviour of the controller.

    ``base_interval_ms`` is the per-row retention target of the baseline
    policy; ``reduction`` removes that fraction of refresh commands (0.0
    for the baseline, up to 0.75 for ideal 64 ms operation when the
    baseline is 16 ms).
    """

    base_interval_ms: float = 16.0
    reduction: float = 0.0
    rows_per_window: int = 8192

    def __post_init__(self) -> None:
        if self.base_interval_ms <= 0:
            raise ValueError("base_interval_ms must be positive")
        if not 0.0 <= self.reduction < 1.0:
            raise ValueError("reduction must be in [0, 1)")
        if self.rows_per_window <= 0:
            raise ValueError("rows_per_window must be positive")

    @property
    def effective_trefi_ns(self) -> float:
        """Spacing of refresh commands after the reduction is applied."""
        base = self.base_interval_ms * 1e6 / self.rows_per_window
        return base / (1.0 - self.reduction)


@dataclass
class TestTrafficSettings:
    """MEMCON background test traffic (Table 3).

    ``concurrent_tests`` tests run per ``window_ms``; each test issues
    ``requests_per_test`` full-row block reads, spread uniformly.
    """

    __test__ = False  # "Test" prefix is domain vocabulary, not a pytest class

    concurrent_tests: int = 0
    window_ms: float = 64.0
    requests_per_test: int = 256  # 2 row reads x 128 blocks

    def __post_init__(self) -> None:
        if self.concurrent_tests < 0:
            raise ValueError("concurrent_tests must be non-negative")
        if self.window_ms <= 0:
            raise ValueError("window_ms must be positive")
        if self.requests_per_test <= 0:
            raise ValueError("requests_per_test must be positive")

    @property
    def request_interval_ns(self) -> Optional[float]:
        """Spacing between injected test requests (None when disabled)."""
        total = self.concurrent_tests * self.requests_per_test
        if total == 0:
            return None
        return self.window_ms * 1e6 / total


@dataclass
class ControllerStats:
    """Aggregate controller statistics for one run."""

    reads_served: int = 0
    writes_served: int = 0
    test_requests_served: int = 0
    total_read_latency_ns: float = 0.0
    refreshes_issued: int = 0
    refresh_busy_ns: float = 0.0
    row_hits: int = 0
    row_misses: int = 0
    row_conflicts: int = 0

    @property
    def mean_read_latency_ns(self) -> float:
        if self.reads_served == 0:
            return 0.0
        return self.total_read_latency_ns / self.reads_served


class MemoryController:
    """One channel / one rank / N banks with FR-FCFS and auto-refresh."""

    def __init__(
        self,
        timing: TimingParameters = DDR3_1600,
        banks: int = 8,
        rows_per_bank: int = 32768,
        refresh: Optional[RefreshSettings] = None,
        test_traffic: Optional[TestTrafficSettings] = None,
        scheduler_config: Optional[SchedulerConfig] = None,
        on_read_complete: Optional[Callable[[Request], None]] = None,
        seed: int = 0,
        channel: int = 0,
    ) -> None:
        if banks <= 0 or rows_per_bank <= 0:
            raise ValueError("banks and rows_per_bank must be positive")
        if channel < 0:
            raise ValueError("channel must be non-negative")
        self.timing = timing
        self.banks = [BankState() for _ in range(banks)]
        self.rows_per_bank = rows_per_bank
        self.rank = RankState()
        self.refresh = refresh or RefreshSettings()
        self.test_traffic = test_traffic or TestTrafficSettings()
        self.scheduler = FrFcfsScheduler(scheduler_config)
        self.on_read_complete = on_read_complete
        self.channel = channel
        self._reads_served = 0
        self._writes_served = 0
        self._tests_served = 0
        self._read_latency_ns = 0.0
        registry = obs.get_registry()
        self._registry = registry
        self._c_refreshes = registry.counter("mc.refreshes_issued")
        self._c_test_injected = registry.counter("mc.test_requests_injected")
        self._c_served = (
            registry.counter("mc.reads_served"),
            registry.counter("mc.writes_served"),
            registry.counter("mc.test_requests_served"),
        )
        self._h_read_latency = registry.histogram(
            "mc.read_latency_ns",
            buckets=(25.0, 50.0, 100.0, 200.0, 400.0, 800.0, 1600.0),
        )
        # Per-request-path instruments accumulate locally and are flushed
        # in one batch (flush_metrics, called from stats()); the running
        # pending-latency list keeps observation order so the histogram
        # sum is the same float as per-request observes.
        self._pend_refreshes = 0
        self._pend_test_injected = 0
        self._pend_served = [0, 0, 0]  # reads, writes, tests
        self._pend_latencies: List[float] = []
        self._rng = np.random.default_rng(seed)
        # Refresh and test injection follow fixed periodic schedules.
        self._refresh_schedule = ArrivalSchedule(
            self.refresh.effective_trefi_ns, self.refresh.effective_trefi_ns
        )
        interval = self.test_traffic.request_interval_ns
        self._test_schedule = (
            None if interval is None else ArrivalSchedule(interval, interval)
        )

    # ------------------------------------------------------------------
    def drain(self, now_ns: float, bound_ns: float) -> Tuple[float, float]:
        """Run every instant in ``[now_ns, bound_ns)`` in one visit.

        Each instant issues at most one refresh, one injected test request
        and one scheduled request — the historical per-tick unit of work —
        and the controller then advances its own clock to its next event,
        never less than one tCK later: the sequence of instants the tick
        loop would have visited, so service timing is unchanged.
        ``bound_ns`` is the earliest time the outside world may act (a
        core arrival, another channel's event, the window end); the drain
        additionally stops at the completion time of any read it
        services, because delivering that read can unstall a core.

        Returns ``(next_event, last_instant)``: the controller's next
        event time and the last instant actually processed. The caller
        must floor its next visit of *anything* at ``last_instant + tCK``
        — the poll loop applied the tCK floor per processed instant, and
        that composition is observable (a floor can push a core's poll
        past its arrival time), so it is part of the preserved semantics.
        """
        timing = self.timing
        tck = timing.tCK
        banks = self.banks
        rank = self.rank
        scheduler = self.scheduler
        pick = scheduler.next_request
        earliest_issue = scheduler.earliest_issue_ns
        refresh = self._refresh_schedule
        tests = self._test_schedule
        # The schedules' deadlines live in locals for the whole drain;
        # only this loop advances them.
        next_refresh = refresh.next_ns
        next_test = _INF if tests is None else tests.next_ns
        t = now_ns
        while True:
            # 1. Refresh has priority: it is a hard JEDEC deadline. It acts
            # as a barrier — no request command may issue while it is
            # pending.
            if t >= next_refresh:
                self._refresh(t)
                next_refresh = refresh.advance()
            # 2. Inject background test traffic on its schedule.
            if t >= next_test:
                self._inject_test(next_test)
                next_test = tests.advance()
            # 3. Issue one request if one is eligible right now (banks
            # free, no refresh in progress).
            if scheduler.pending and t >= rank.refresh_until_ns:
                request = pick(banks, t)
                if request is not None:
                    completion = service_request(
                        banks[request.bank], rank, request.row, t, timing,
                    )
                    request.completion_ns = completion
                    self._account(request)
                    if completion < bound_ns and request.kind is _READ:
                        bound_ns = completion
            # Next instant: the earliest deadline or queue-issue time, at
            # least one tCK on.
            floor = t + tck
            nxt = next_refresh if next_refresh < next_test else next_test
            if nxt < floor:
                nxt = floor
            if scheduler.pending:
                blocked = rank.refresh_until_ns
                earliest = earliest_issue(
                    banks, blocked if blocked > floor else floor
                )
                if earliest is not None and earliest < nxt:
                    nxt = earliest
            if nxt >= bound_ns:
                return nxt, t
            t = nxt

    def _refresh(self, now_ns: float) -> None:
        """Issue the all-bank refresh that is due at ``now_ns``."""
        issue_refresh(self.rank, self.banks, now_ns, self.timing)
        if self._registry.enabled:
            self._pend_refreshes += 1
        if obs.trace_active():
            obs.emit("mc_refresh", t_ns=now_ns, channel=self.channel)

    def _inject_test(self, due_ns: float) -> None:
        """Queue one background test request arriving at ``due_ns``.

        The bank/row draws stay scalar and per-injection so the RNG stream
        matches the historical one draw-pair-per-request order.
        """
        bank = int(self._rng.integers(len(self.banks)))
        row = int(self._rng.integers(self.rows_per_bank))
        self.scheduler.enqueue(Request(
            kind=RequestKind.TEST, core=-1, bank=bank, row=row,
            arrival_ns=due_ns, channel=self.channel,
        ))
        if self._registry.enabled:
            self._pend_test_injected += 1

    def _account(self, request: Request) -> None:
        enabled = self._registry.enabled
        kind = request.kind
        if kind is _READ:
            latency = request.completion_ns - request.arrival_ns
            self._reads_served += 1
            self._read_latency_ns += latency
            if enabled:
                self._pend_served[0] += 1
                self._pend_latencies.append(latency)
            if self.on_read_complete is not None:
                self.on_read_complete(request)
        elif kind is _WRITE:
            self._writes_served += 1
            if enabled:
                self._pend_served[1] += 1
        else:
            self._tests_served += 1
            if enabled:
                self._pend_served[2] += 1
        if obs.trace_active():
            obs.emit(
                "mc_request",
                t_ns=request.completion_ns,
                kind_served=kind.value,
                bank=request.bank,
                latency_ns=request.latency_ns,
                channel=self.channel,
            )

    # ------------------------------------------------------------------
    def flush_metrics(self) -> None:
        """Push batched per-request instruments into the metrics registry.

        Counter deltas and the ordered latency backlog accumulate on the
        controller during the run and reach the registry here — called
        from :meth:`stats` and at run end — producing the same registry
        state (merge/snapshot-compatible) as per-request updates.
        """
        if self._pend_refreshes:
            self._c_refreshes.inc(self._pend_refreshes)
            self._pend_refreshes = 0
        if self._pend_test_injected:
            self._c_test_injected.inc(self._pend_test_injected)
            self._pend_test_injected = 0
        for i, count in enumerate(self._pend_served):
            if count:
                self._c_served[i].inc(count)
                self._pend_served[i] = 0
        if self._pend_latencies:
            self._h_read_latency.observe_many(self._pend_latencies)
            self._pend_latencies = []
        self.scheduler.flush_metrics()

    # ------------------------------------------------------------------
    def stats(self) -> ControllerStats:
        self.flush_metrics()
        stats = ControllerStats(
            reads_served=self._reads_served,
            writes_served=self._writes_served,
            test_requests_served=self._tests_served,
            total_read_latency_ns=self._read_latency_ns,
            refreshes_issued=self.rank.refreshes_issued,
            refresh_busy_ns=self.rank.refresh_busy_ns,
        )
        for bank in self.banks:
            stats.row_hits += bank.row_hits
            stats.row_misses += bank.row_misses
            stats.row_conflicts += bank.row_conflicts
        return stats
