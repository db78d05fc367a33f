"""Opt-in sampled profiling keyed to the span stack.

The span tree (:mod:`repro.obs.spans`) answers "how long did each named
phase take" but not "which phase is the run in *right now*" or "where do
the samples land" — and cProfile's per-call tracing costs far too much
for a budget-gated pipeline. This module adds a wall-clock *sampler*: a
daemon thread wakes every ``interval_s`` and records the names on the
active :class:`~repro.obs.spans.SpanCollector` stack as one collapsed
stack line (``run;fig15;sim.run``). The hot path pays nothing — spans
are untouched; the sampler reads the collector's stack from outside.

The output is the flamegraph collapsed-stack format (``stack count``
per line, :meth:`SampledProfiler.write_collapsed`) plus a JSON-safe
summary for the run manifest (``"profile"`` key): sample counts, the
fraction of samples attributed to named spans (below the synthetic
root), peak RSS, and — with ``mem=True`` — ``tracemalloc`` peak heap
per collapsed stack.

Reading a list attribute while the owning thread appends/pops is safe
under the GIL; a sample taken mid-transition merely lands one frame
early or late, which is the usual statistical-profiler contract.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Dict, Optional

from .spans import get_collector

__all__ = ["SampledProfiler", "rss_bytes"]


def rss_bytes() -> Optional[int]:
    """Current resident-set size of this process, best effort.

    Reads ``/proc/self/statm`` where available (Linux), falls back to
    ``resource.getrusage`` peak RSS, and returns ``None`` on platforms
    offering neither — telemetry must never raise.
    """
    try:
        with open("/proc/self/statm", "rb") as handle:
            pages = int(handle.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # Linux reports KiB, macOS bytes; either way it is a usable scale.
        return peak * 1024 if peak < 1 << 34 else peak
    except Exception:
        return None


class SampledProfiler:
    """Thread-based statistical profiler over the span stack.

    Use as a context manager around the instrumented region (the runner
    wraps its whole main loop)::

        with SampledProfiler(interval_s=0.005) as prof:
            ...
        manifest.profile = prof.to_dict()

    ``mem=True`` additionally starts :mod:`tracemalloc` and attributes
    the traced-heap peak observed in each sampling interval to the
    collapsed stack current at sample time (peak is reset per tick), so
    allocation spikes land on the span that caused them.
    """

    def __init__(self, interval_s: float = 0.005, mem: bool = False) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.interval_s = interval_s
        self.mem = mem
        self.stacks: Dict[str, int] = {}
        #: Per-stack max of interval heap peaks (bytes), mem mode only.
        self.mem_peaks: Dict[str, int] = {}
        self.sample_count = 0
        self.attributed = 0
        self.rss_peak_bytes = 0
        self.tracemalloc_peak_bytes = 0
        self.wall_s = 0.0
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._started_s: Optional[float] = None
        self._mem_was_tracing = False

    # -- sampling core (also driven directly by tests) -----------------
    def sample_once(self) -> str:
        """Take one sample; returns the collapsed stack it landed on."""
        collector = get_collector()
        if collector is None:
            stack = "(no-collector)"
        else:
            # Snapshot the list object first: the worker thread may pop
            # concurrently, and iterating a live list risks skew.
            frames = tuple(collector._stack)
            stack = ";".join(node.name for node in frames)
            if len(frames) > 1:
                self.attributed += 1
        self.sample_count += 1
        self.stacks[stack] = self.stacks.get(stack, 0) + 1
        rss = rss_bytes()
        if rss is not None and rss > self.rss_peak_bytes:
            self.rss_peak_bytes = rss
        if self.mem:
            self._sample_mem(stack)
        return stack

    def _sample_mem(self, stack: str) -> None:
        import tracemalloc

        if not tracemalloc.is_tracing():
            return
        _current, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        if peak > self.tracemalloc_peak_bytes:
            self.tracemalloc_peak_bytes = peak
        if peak > self.mem_peaks.get(stack, 0):
            self.mem_peaks[stack] = peak

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                self.sample_once()
            except Exception:
                # A sampler crash must never take the run down; stop
                # sampling and leave what was collected.
                break

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "SampledProfiler":
        if self._thread is not None:
            raise RuntimeError("profiler already started")
        if self.mem:
            import tracemalloc

            self._mem_was_tracing = tracemalloc.is_tracing()
            if not self._mem_was_tracing:
                tracemalloc.start()
        self._started_s = time.perf_counter()
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="obs-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=max(1.0, 10 * self.interval_s))
        self._thread = None
        if self._started_s is not None:
            self.wall_s += time.perf_counter() - self._started_s
            self._started_s = None
        if self.mem and not self._mem_was_tracing:
            import tracemalloc

            if tracemalloc.is_tracing():
                tracemalloc.stop()

    def __enter__(self) -> "SampledProfiler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- output --------------------------------------------------------
    @property
    def attributed_fraction(self) -> float:
        """Fraction of samples that landed inside a named span."""
        if not self.sample_count:
            return 0.0
        return self.attributed / self.sample_count

    def to_dict(self) -> Dict[str, Any]:
        """Manifest payload (``"profile"`` key), JSON-safe."""
        data: Dict[str, Any] = {
            "interval_s": self.interval_s,
            "wall_s": self.wall_s,
            "sample_count": self.sample_count,
            "attributed_fraction": round(self.attributed_fraction, 4),
            "rss_peak_bytes": self.rss_peak_bytes,
            "stacks": dict(
                sorted(
                    self.stacks.items(), key=lambda kv: kv[1], reverse=True
                )
            ),
        }
        if self.mem:
            data["mem"] = {
                "tracemalloc_peak_bytes": self.tracemalloc_peak_bytes,
                "stack_peaks": dict(
                    sorted(
                        self.mem_peaks.items(),
                        key=lambda kv: kv[1],
                        reverse=True,
                    )
                ),
            }
        return data

    def write_collapsed(self, path: str) -> None:
        """Write ``stack count`` lines (flamegraph.pl / inferno input)."""
        import os

        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for stack, count in sorted(self.stacks.items()):
                handle.write(f"{stack} {count}\n")
