"""Full-system performance simulation (paper §6.2, Table 2 configuration).

Glues N trace-driven cores to one memory controller and runs the whole
thing event-to-event. The refresh policy under evaluation is expressed as
a :class:`~repro.mc.controller.RefreshSettings` (baseline interval plus
the refresh-operation reduction the mechanism achieves) and, for MEMCON,
a :class:`~repro.mc.controller.TestTrafficSettings` describing the
injected testing requests — the same modelling methodology the paper uses
for its Figure 15/16 and Table 3 studies.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from .. import obs
from ..dram.timing import DDR3_1600, TimingParameters
from ..mc.controller import (
    MemoryController,
    RefreshSettings,
    TestTrafficSettings,
)
from ..mc.request import Request
from ..traces.spec import BenchmarkProfile, get_benchmark
from .core import CoreConfig, StreamMap, TraceCore
from .energy import energy_of_run

_INF = float("inf")


@dataclass
class SystemConfig:
    """The paper's Table 2 system, parameterised by chip density.

    ``channels`` extends the paper's single-channel DIMM: each channel is
    an independent controller + rank, and request streams interleave
    across channels on row-locality breaks.
    """

    banks: int = 8
    rows_per_bank: int = 32768
    density_gbit: int = 8
    channels: int = 1
    core: CoreConfig = field(default_factory=CoreConfig)
    refresh: RefreshSettings = field(default_factory=RefreshSettings)
    test_traffic: TestTrafficSettings = field(default_factory=TestTrafficSettings)

    def __post_init__(self) -> None:
        if self.channels <= 0:
            raise ValueError("channels must be positive")

    def timing(self) -> TimingParameters:
        return DDR3_1600.with_density(self.density_gbit)


@dataclass
class CoreResult:
    """Per-core outcome of one simulation."""

    benchmark: str
    instructions: float
    ipc: float
    reads_completed: int
    mean_read_latency_ns: float


@dataclass
class SystemResult:
    """Outcome of one simulation run."""

    window_ns: float
    cores: List[CoreResult]
    refreshes_issued: int
    refresh_busy_fraction: float
    row_hit_rate: float

    @property
    def total_instructions(self) -> float:
        return sum(core.instructions for core in self.cores)

    @property
    def mean_ipc(self) -> float:
        return sum(core.ipc for core in self.cores) / len(self.cores)

    def weighted_speedup_vs(self, baseline: "SystemResult") -> float:
        """Sum of per-core IPC ratios against a baseline run.

        A zero-IPC baseline core makes the metric undefined; silently
        dropping it would shrink the sum and understate every mechanism
        compared against that baseline, so it is rejected instead.
        """
        if len(self.cores) != len(baseline.cores):
            raise ValueError("core counts differ")
        for i, ref in enumerate(baseline.cores):
            if ref.ipc <= 0:
                raise ValueError(
                    f"baseline core {i} ({ref.benchmark}) has zero IPC; "
                    "weighted speedup is undefined"
                )
        return sum(
            mine.ipc / ref.ipc
            for mine, ref in zip(self.cores, baseline.cores)
        )


class SystemSimulator:
    """Event-driven simulation of cores + memory controller.

    ``streams`` shares the cores' request streams between simulators
    (:class:`~repro.sim.core.TraceCore`): every configuration of a
    workload given the same map replays the streams the first one drew.
    """

    def __init__(
        self,
        benchmarks: Sequence[BenchmarkProfile],
        config: Optional[SystemConfig] = None,
        seed: int = 0,
        streams: Optional[StreamMap] = None,
    ) -> None:
        if not benchmarks:
            raise ValueError("need at least one benchmark")
        self.config = config or SystemConfig()
        timing = self.config.timing()
        # Latency of each read delivered to each core, in delivery order.
        self._latencies: List[array] = [array("d") for _ in benchmarks]
        # Reads the controllers finished, awaiting delivery to their cores.
        self._completed_reads: List[Request] = []
        # Test traffic is spread across channels; the division remainder
        # goes to the first channels so no configured test is dropped.
        total_tests = self.config.test_traffic.concurrent_tests
        base, extra = divmod(total_tests, self.config.channels)
        per_channel_tests = [
            TestTrafficSettings(
                concurrent_tests=base + (1 if channel < extra else 0),
                window_ms=self.config.test_traffic.window_ms,
                requests_per_test=self.config.test_traffic.requests_per_test,
            )
            for channel in range(self.config.channels)
        ]
        self.controllers = [
            MemoryController(
                timing=timing,
                banks=self.config.banks,
                rows_per_bank=self.config.rows_per_bank,
                refresh=self.config.refresh,
                test_traffic=per_channel_tests[channel],
                on_read_complete=self._completed_reads.append,
                seed=seed + 1009 * channel,
                channel=channel,
            )
            for channel in range(self.config.channels)
        ]
        self.cores = [
            TraceCore(
                core_id=i,
                benchmark=bench,
                config=self.config.core,
                banks=self.config.banks,
                rows_per_bank=self.config.rows_per_bank,
                channels=self.config.channels,
                seed=seed + 101 * i,
                streams=streams,
            )
            for i, bench in enumerate(benchmarks)
        ]

    @property
    def controller(self) -> MemoryController:
        """The first channel's controller (single-channel convenience)."""
        return self.controllers[0]

    # ------------------------------------------------------------------
    @obs.timed("sim.run")
    def run(self, window_ns: float) -> SystemResult:
        """Simulate ``window_ns`` of wall-clock time and report results."""
        if window_ns <= 0:
            raise ValueError("window_ns must be positive")

        c_iterations = obs.get_registry().counter("sim.loop_iterations")
        controllers = self.controllers
        cores = self.cores
        n_channels = len(controllers)
        n_cores = len(cores)
        tck = controllers[0].timing.tCK
        completed = self._completed_reads
        latencies = self._latencies
        enqueue = [controller.scheduler.enqueue for controller in controllers]

        # The calendar: each actor's posted next-ready time, indexed by
        # actor (inf when none). Actors are visited only when due, and
        # time jumps straight to the earliest posted time (floored at
        # now + tCK, the poll loop's advance rule). There are at most a
        # few cores and channels, so a scan of the list is cheaper than
        # keeping a heap.
        #
        # Actors are dense ints: core i -> i, channel ch -> n_cores + ch,
        # so a scan finds all due cores before all due controllers, each
        # group in index order.
        posted = [_INF] * (n_cores + n_channels)
        hints: List[Optional[float]] = []
        for i, core in enumerate(cores):
            hint = core.next_arrival_hint(0.0)
            hints.append(hint)
            if hint is not None:
                posted[i] = hint
        for channel in range(n_channels):
            posted[n_cores + channel] = 0.0  # every controller due at t=0
        # Per-core backpressure queues (the fairness fix: a refused
        # request stalls only its own core, not every later-index core).
        holdback: List[List[Request]] = [[] for _ in cores]
        blocked = 0  # cores with a pending refused request

        now = 0.0
        iterations = 0
        max_iterations = int(window_ns * 50)  # safety net, never binding
        while now < window_ns:
            iterations += 1
            if iterations > max_iterations:
                raise RuntimeError("simulator failed to make progress")
            # Consume every posting due by now: the actor is visited this
            # instant and posts its next time.
            due_cores: List[int] = []
            drain_chs: List[int] = []
            for actor, at in enumerate(posted):
                if at <= now:
                    posted[actor] = _INF
                    if actor < n_cores:
                        due_cores.append(actor)
                    else:
                        drain_chs.append(actor - n_cores)
            touched = [False] * n_channels
            fed = False

            # --- Cores, in id order: retry refused requests, then poll.
            if blocked:
                ids = set(due_cores)
                for i in range(n_cores):
                    if holdback[i]:
                        ids.add(i)
                core_ids: Sequence[int] = sorted(ids)
            else:
                core_ids = due_cores
            for i in core_ids:
                queue = holdback[i]
                if queue:
                    while queue:
                        request = queue[0]
                        if enqueue[request.channel](request):
                            touched[request.channel] = True
                            fed = True
                            queue.pop(0)
                        else:
                            break
                    if queue:
                        continue  # still backpressured; no new requests
                    blocked -= 1
                hint = hints[i]
                if hint is None:
                    continue
                if hint > now:
                    # Not due (a blocked-path visit): keep the arrival
                    # posted. A posted core time is always its hint.
                    posted[i] = hint
                    continue
                core = cores[i]
                while True:
                    request = core.next_request(now)
                    if request is None:
                        break
                    if enqueue[request.channel](request):
                        touched[request.channel] = True
                        fed = True
                    else:
                        queue.append(request)
                        blocked += 1
                        break
                hint = core.next_arrival_hint(now)
                hints[i] = hint
                if hint is not None:
                    posted[i] = hint

            # --- Controllers, in channel order: drain every due or
            # freshly-fed channel. `floor_base` tracks the last instant
            # any drain processed: the poll loop applied its tCK floor
            # per instant, and that composition is observable, so the
            # outer advance must respect it.
            floor_base = now
            if fed:
                fed_set = set(drain_chs)
                for ch in range(n_channels):
                    if touched[ch]:
                        fed_set.add(ch)
                drain_chs = sorted(fed_set)
            multi = len(drain_chs) > 1
            for channel in drain_chs:
                if blocked or multi:
                    # Single-step: refused requests retry at tick cadence,
                    # and channels acting at the same instant constrain
                    # each other to the merged instant grid. (Any read
                    # completion lies beyond now + tCK, so completions
                    # never tighten this bound.)
                    bound = now + tck
                else:
                    # Sole actor: run ahead until the earliest posted
                    # event elsewhere (core arrivals + peer channels —
                    # the calendar without this channel's posting, which
                    # the drain supersedes anyway).
                    posted[n_cores + channel] = _INF
                    bound = min(posted)
                    if bound > window_ns:
                        bound = window_ns
                next_event, last_instant = controllers[channel].drain(
                    now, bound
                )
                posted[n_cores + channel] = next_event
                if last_instant > floor_base:
                    floor_base = last_instant

            # --- Deliver completed reads to their cores (service order).
            if completed:
                affected = set()
                for request in completed:
                    completion = request.completion_ns
                    cores[request.core].complete_read(request, completion)
                    latencies[request.core].append(
                        completion - request.arrival_ns
                    )
                    affected.add(request.core)
                completed.clear()
                for i in affected:
                    hint = cores[i].next_arrival_hint(now)
                    hints[i] = hint
                    posted[i] = _INF if hint is None else hint

            # --- Advance to the next posted event, floored one tCK past
            # the last instant processed this iteration. While a refused
            # request is older than `now` the poll loop crawled
            # tick-by-tick; mirror that so retry timing is preserved.
            floor = floor_base + tck
            if blocked and any(
                holdback[i] and hints[i] is not None and hints[i] <= now
                for i in range(n_cores)
            ):
                step_to = floor
            else:
                step_to = min(posted)
            now = step_to if step_to > floor else floor

        c_iterations.inc(iterations)
        return self._collect_result(window_ns)

    def _collect_result(self, window_ns: float) -> SystemResult:
        """Assemble the :class:`SystemResult` of a finished window."""
        stats = self.controllers[0].stats()
        for controller in self.controllers[1:]:
            other = controller.stats()
            stats.row_hits += other.row_hits
            stats.row_misses += other.row_misses
            stats.row_conflicts += other.row_conflicts
        core_results = []
        for core in self.cores:
            latencies = self._latencies[core.core_id]
            mean_latency = (
                sum(latencies) / len(latencies) if latencies else 0.0
            )
            core_results.append(
                CoreResult(
                    benchmark=core.benchmark.name,
                    instructions=core.instructions_retired,
                    ipc=core.ipc(window_ns),
                    reads_completed=len(latencies),
                    mean_read_latency_ns=mean_latency,
                )
            )
            if obs.trace_active():
                obs.emit(
                    "sim_progress",
                    t_ns=window_ns,
                    core=core.core_id,
                    instructions=core.instructions_retired,
                    benchmark=core.benchmark.name,
                    reads_completed=len(latencies),
                )
        if obs.trace_active():
            # Per-channel energy rollups ride the trace (energy_rollup
            # events) so energy claims are replayable from the stream.
            for controller in self.controllers:
                energy_of_run(
                    controller.stats(), window_ns,
                    density_gbit=self.config.density_gbit,
                    channel=controller.channel,
                )
        accesses = stats.row_hits + stats.row_misses + stats.row_conflicts
        return SystemResult(
            window_ns=window_ns,
            cores=core_results,
            refreshes_issued=sum(
                c.stats().refreshes_issued for c in self.controllers
            ),
            refresh_busy_fraction=(
                sum(c.stats().refresh_busy_ns for c in self.controllers)
                / (window_ns * len(self.controllers))
            ),
            row_hit_rate=stats.row_hits / accesses if accesses else 0.0,
        )


def simulate_workload(
    benchmark_names: Sequence[str],
    density_gbit: int = 8,
    refresh_interval_ms: float = 16.0,
    refresh_reduction: float = 0.0,
    concurrent_tests: int = 0,
    window_ns: float = 500_000.0,
    channels: int = 1,
    seed: int = 0,
    streams: Optional[StreamMap] = None,
) -> SystemResult:
    """Convenience wrapper: one run of a named multiprogrammed workload.

    Runs given the same ``streams`` map replay one another's request
    streams (see :class:`SystemSimulator`).
    """
    config = SystemConfig(
        density_gbit=density_gbit,
        channels=channels,
        refresh=RefreshSettings(
            base_interval_ms=refresh_interval_ms,
            reduction=refresh_reduction,
        ),
        test_traffic=TestTrafficSettings(concurrent_tests=concurrent_tests),
    )
    benchmarks = [get_benchmark(name) for name in benchmark_names]
    return SystemSimulator(
        benchmarks, config, seed=seed, streams=streams
    ).run(window_ns)
