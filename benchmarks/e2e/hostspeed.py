"""Host speed, sampled on the child's own CPU, to normalise CPU time.

The benchmark's host is a virtual machine whose vCPUs run up to 1.5x
faster or slower from one second to the next, and stay slow for minutes
(other guests share the physical cores; the guest sees no steal time).
Neither wall time nor CPU time of one run is steady under that. So
``--trace 0`` pins the parent and its children to one CPU, and a
:class:`SpeedProbe` thread in the parent times a fixed pure-python
chunk on that CPU, over and over, at nice 19 while a child runs: the
child keeps about 98.5% of the CPU, and the probe's samples are
interleaved with the child's time slices. A child's CPU seconds
times :meth:`SpeedProbe.scale` over the child's interval are then CPU
seconds at the reference speed, :data:`REF_CHUNK_NS` per chunk.

The chunk is this file's own code, so no change to the program under
test can change the reference.
"""

from __future__ import annotations

import array
import bisect
import contextlib
import os
import threading
import time
from typing import Iterator, Optional, Sequence, Set

#: CPU nanoseconds one :func:`chunk` takes at the reference speed: about
#: its median on the 2-vCPU KVM guest (Intel Xeon, python 3.11) the
#: bounds were calibrated on. It only sets the scale of normalised
#: seconds.
REF_CHUNK_NS = 120_000
#: A window with fewer chunks than this borrows the chunks timed just
#: before it.
MIN_CHUNKS = 50
#: Share of the cheapest and of the dearest chunks left out of the mean.
TRIM = 0.1
#: The probe's niceness: its share of the CPU beside a nice-0 child.
NICE = 19

_BUFFER = bytearray(8 << 20)
_MASK = len(_BUFFER) - 1
#: A cache line past a page, so that successive reads touch new lines.
_STRIDE = 4096 + 64


class _Pair:
    __slots__ = ("low", "high")

    def __init__(self, low: int) -> None:
        self.low, self.high = low, low + 1


def chunk(position: int) -> int:
    """Fixed interpreter work; returns the next buffer position.

    Three kinds of code, because a slow spell of the host slows each by
    a different factor and the program runs all three: integer
    arithmetic, small objects put in a dict and a list, and reads that
    stride through a buffer larger than a core's caches. Over the three
    the normalised times of repeated runs of one workload spread least.
    """
    total = 0
    for i in range(300):
        total += i * i % 7
    table = {}
    for i in range(60):
        pair = _Pair(i)
        table[i & 15] = pair.high
        ordered = [pair.high, pair.low]
        ordered.sort()
    for _ in range(200):
        total += _BUFFER[position]
        position = (position + _STRIDE) & _MASK
    return position


def trimmed_mean(values: Sequence[int], trim: float = TRIM) -> float:
    """Mean of ``values`` without the ``trim`` share at either end.

    The probe gets equal slices of CPU time throughout a window and fits
    more chunks into a fast slice, so the plain mean of chunk costs (its
    CPU time per chunk) weighs every moment of the window alike; the
    trim drops chunks slowed by an interrupt or a cold cache.
    """
    ordered = sorted(values)
    cut = int(len(ordered) * trim)
    kept = ordered[cut:len(ordered) - cut]
    return sum(kept) / len(kept)


class SpeedProbe:
    """Pin this process to one CPU and time :func:`chunk` on it.

    Use as a context manager; children spawned inside inherit the pin.
    The probe thread samples only inside :meth:`sampling`, so that it
    does not compete for the GIL while the parent digests outputs.
    """

    def __init__(self) -> None:
        self._ends = array.array("q")    # monotonic ns at each chunk's end
        self._costs = array.array("q")   # CPU ns of each chunk
        self._active = threading.Event()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._affinity: Optional[Set[int]] = None

    def __enter__(self) -> "SpeedProbe":
        self._affinity = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {max(self._affinity)})
        self._thread = threading.Thread(target=self._loop,
                                        name="e2e-speed-probe", daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._active.set()
        self._thread.join(timeout=5.0)
        os.sched_setaffinity(0, self._affinity)
        if self._thread.is_alive():
            raise RuntimeError("speed probe did not stop")

    @contextlib.contextmanager
    def sampling(self) -> Iterator[None]:
        self._active.set()
        try:
            yield
        finally:
            self._active.clear()

    def _loop(self) -> None:
        os.setpriority(os.PRIO_PROCESS, threading.get_native_id(), NICE)
        cpu_ns, now_ns = time.thread_time_ns, time.monotonic_ns
        position = 0
        while True:
            self._active.wait()
            if self._stop.is_set():
                return
            start = cpu_ns()
            position = chunk(position)
            cost = cpu_ns() - start
            self.record(now_ns(), cost)

    def record(self, end_ns: int, cost_ns: int) -> None:
        """Add one chunk that ended at ``end_ns`` and took ``cost_ns``."""
        self._ends.append(end_ns)
        self._costs.append(cost_ns)

    def scale(self, start_s: float, end_s: float) -> float:
        """Reference over measured speed between two monotonic instants.

        The :func:`trimmed_mean` cost of the chunks that ended in the
        window; when fewer than :data:`MIN_CHUNKS` did, of the last
        ``MIN_CHUNKS`` that ended by its end. Raises ``ValueError`` when
        nothing was timed by then.
        """
        low = bisect.bisect_left(self._ends, int(start_s * 1e9))
        high = bisect.bisect_right(self._ends, int(end_s * 1e9))
        low = min(low, max(0, high - MIN_CHUNKS))
        if high == 0:
            raise ValueError("no reference chunk was timed by then")
        return REF_CHUNK_NS / trimmed_mean(self._costs[low:high])
