"""Trace-driven CPU core model.

Follows the standard simple-core abstraction used by Ramulator-style
evaluations: the core retires non-memory instructions at its issue width
(4-wide at 4 GHz), issues a last-level-cache-miss DRAM read every
``1000 / MPKI`` instructions on average, overlaps up to ``max_outstanding``
misses (memory-level parallelism afforded by the 128-entry window), and
stalls when that limit is reached. Writebacks are posted: they consume
DRAM bandwidth but the core never waits on them.

The synthetic request stream carries each benchmark's row-buffer locality:
with probability ``row_hit_rate`` a request targets the same (bank, row)
as the previous request from this core, otherwise a fresh random row.
No draw depends on timing, so a :class:`RequestStream` draws the stream
once and every configuration of a workload replays it, as the paper
replays one trace per workload under every refresh mechanism (§6.2).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..mc.request import Request, RequestKind
from ..traces.spec import BenchmarkProfile

_READ = RequestKind.READ
_WRITE = RequestKind.WRITE
#: 2**-53: scales a 53-bit integer into [0, 1), as numpy's ``random()``.
_UNIT = 1.0 / 9007199254740992.0
#: Requests a stream draws ahead each time a reader runs past its end.
_CHUNK = 256

#: Streams shared across simulations, keyed by every input their draws
#: read (see :class:`TraceCore`).
StreamMap = Dict[Tuple, "RequestStream"]


@dataclass
class CoreConfig:
    """Core microarchitecture parameters (paper Table 2)."""

    freq_ghz: float = 4.0
    width: int = 4
    max_outstanding: int = 8   # MLP supported by the 128-entry window

    def __post_init__(self) -> None:
        if self.freq_ghz <= 0 or self.width <= 0 or self.max_outstanding <= 0:
            raise ValueError("core parameters must be positive")

    @property
    def instructions_per_ns(self) -> float:
        """Peak retirement rate (instructions per nanosecond)."""
        return self.freq_ghz * self.width


def _index_array(count: int) -> array:
    """The narrowest unsigned array holding every index below ``count``."""
    return array(next(
        code for code in "BHIL" if count <= 1 << (8 * array(code).itemsize)
    ))


class RequestStream:
    """One core's request stream, drawn on demand and kept for replay.

    Request ``k`` comes ``gaps[k]`` instructions after request ``k - 1``
    (after the start for ``k == 0``); ``writes[k]`` is 1 for a writeback,
    and ``channel[k]``, ``bank[k]`` and ``row[k]`` are its location. The
    stream is a pure function of its constructor's arguments, and
    :meth:`extend` only appends, so any number of cores can read one
    stream by index, each at its own pace.
    """

    def __init__(
        self,
        benchmark: BenchmarkProfile,
        seed: int,
        core_id: int,
        channels: int,
        banks: int,
        rows_per_bank: int,
    ) -> None:
        for name, count in (("channels", channels), ("banks", banks),
                            ("rows_per_bank", rows_per_bank)):
            if not 0 < count <= 1 << 32:  # the range ``_below`` draws
                raise ValueError(f"{name} must be in [1, 2**32]")
        rng = np.random.default_rng((seed << 8) ^ core_id)
        # Every request draws from this generator. Its uniform and bounded
        # integer draws are computed from raw 64-bit words exactly as
        # numpy computes ``random()`` and ``integers(n)`` (DESIGN.md,
        # "Raw-word draws"); ``exponential`` reads whole words only, so it
        # never disturbs the half-word buffer ``_below`` keeps.
        self._exponential = rng.exponential
        self._raw = rng.bit_generator.random_raw
        self._half: Optional[int] = None
        self._write_fraction = benchmark.write_fraction
        self._row_hit_rate = benchmark.row_hit_rate
        self._counts = (channels, banks, rows_per_bank)
        self._last = (0, 0, 0)
        self.gaps = array("d")
        self.writes = bytearray()
        self.channel = _index_array(channels)
        self.bank = _index_array(banks)
        self.row = _index_array(rows_per_bank)
        # None: the core never misses, and the stream stays empty.
        self._mean = 1000.0 / benchmark.mpki if benchmark.mpki > 0 else None
        if self._mean is not None:
            self.gaps.append(self._exponential(self._mean))

    def extend(self, n: int) -> None:
        """Draw until at least ``n`` requests are stored.

        Each request's draws, in generator order: the gap to the *next*
        request (``exponential``), then the write and row-hit coins
        (``random()``), then channel, bank and row on a row miss (on one
        channel ``_below(1)`` is 0 and draws nothing).
        """
        writes = self.writes
        if self._mean is None or len(writes) >= n:
            return
        exponential = self._exponential
        mean = self._mean
        raw = self._raw
        below = self._below
        write_fraction = self._write_fraction
        row_hit_rate = self._row_hit_rate
        channels, banks, rows_per_bank = self._counts
        channel, bank, row = self._last
        add_gap = self.gaps.append
        add_write = writes.append
        add_channel = self.channel.append
        add_bank = self.bank.append
        add_row = self.row.append
        for _ in range(max(n - len(writes), _CHUNK)):
            add_gap(exponential(mean))
            # ``random()``: the top 53 bits of a word, scaled into [0, 1).
            add_write((raw() >> 11) * _UNIT < write_fraction)
            if (raw() >> 11) * _UNIT >= row_hit_rate:
                channel = below(channels)
                bank = below(banks)
                row = below(rows_per_bank)
            add_channel(channel)
            add_bank(bank)
            add_row(row)
        self._last = (channel, bank, row)

    def _below(self, n: int) -> int:
        """``Generator.integers(n)`` for ``1 <= n <= 2**32``, bit for bit.

        numpy's 32-bit Lemire draw: scale a 32-bit word by ``n`` and draw
        again while the low half of the product is below
        ``(2**32 - n) % n``. The 32-bit words are the low, then the high,
        half of one 64-bit word. ``n == 1`` draws nothing.
        """
        if n == 1:
            return 0
        while True:
            word = self._half
            if word is None:
                word = self._raw()
                self._half = word >> 32
                word &= 0xFFFFFFFF
            else:
                self._half = None
            product = word * n
            low = product & 0xFFFFFFFF
            # The bound is below n, so ``low >= n`` accepts without it.
            if low >= n or low >= (0x100000000 - n) % n:
                return product >> 32


class TraceCore:
    """One core running a synthetic benchmark stream.

    The core's private clock advances in two ways: retiring the
    instruction gap before each memory request (at peak width), and being
    dragged forward by read completions while the outstanding-miss window
    is full (stall time). The issue time of the next request is always
    derived from the *current* clock, so stalls transparently delay it.

    The core reads its requests from a :class:`RequestStream` by index.
    Given a ``streams`` map, it replays the stream stored there under
    every input the draws read, or draws one and stores it; without one
    it draws its own. The key leaves out the benchmark's name, which the
    draws never read, and one name can carry different profiles.
    """

    def __init__(
        self,
        core_id: int,
        benchmark: BenchmarkProfile,
        config: Optional[CoreConfig] = None,
        banks: int = 8,
        rows_per_bank: int = 32768,
        channels: int = 1,
        seed: int = 0,
        streams: Optional[StreamMap] = None,
    ) -> None:
        self.core_id = core_id
        self.benchmark = benchmark
        self.config = config or CoreConfig()
        key = (benchmark.mpki, benchmark.write_fraction,
               benchmark.row_hit_rate, seed, core_id, channels, banks,
               rows_per_bank)
        stream = None if streams is None else streams.get(key)
        if stream is None:
            stream = RequestStream(benchmark, seed, core_id, channels,
                                   banks, rows_per_bank)
            if streams is not None:
                streams[key] = stream
        self._stream = stream
        self._gaps = stream.gaps
        self._writes = stream.writes
        self._channel = stream.channel
        self._bank = stream.bank
        self._row = stream.row
        self._next = 0  # index of the pending request
        self._per_ns = self.config.instructions_per_ns
        self._max_outstanding = self.config.max_outstanding
        self.instructions_retired = 0.0
        self.outstanding = 0
        self.stall_ns = 0.0
        self._clock_ns = 0.0
        #: Instructions until the pending request (None = never).
        self._pending_gap: Optional[float] = (
            stream.gaps[0] if stream.gaps else None
        )
        #: When the pending request issues: the clock plus the gap at
        #: peak width (None = never). Kept in step with both.
        self._issue_at = self._issue_time()

    # ------------------------------------------------------------------
    def _issue_time(self) -> Optional[float]:
        if self._pending_gap is None:
            return None
        return self._clock_ns + self._pending_gap / self._per_ns

    # ------------------------------------------------------------------
    @property
    def stalled(self) -> bool:
        return self.outstanding >= self._max_outstanding

    def next_arrival_hint(self, now_ns: float) -> Optional[float]:
        """When this core will next want to issue, if it is not stalled."""
        if self.outstanding >= self._max_outstanding:
            return None
        return self._issue_at

    def next_request(self, now_ns: float) -> Optional[Request]:
        """Issue the next request if the core has reached it by ``now_ns``."""
        issue_at = self._issue_at
        if (
            issue_at is None
            or issue_at > now_ns
            or self.outstanding >= self._max_outstanding
        ):
            return None
        k = self._next
        if k >= len(self._writes):
            self._stream.extend(k + 1)
        self._next = k + 1
        self.instructions_retired += self._pending_gap
        self._clock_ns = issue_at
        gap = self._gaps[k + 1]
        self._pending_gap = gap
        self._issue_at = issue_at + gap / self._per_ns
        if self._writes[k]:
            return Request(_WRITE, self.core_id, self._bank[k], self._row[k],
                           issue_at, self._channel[k])
        self.outstanding += 1
        return Request(_READ, self.core_id, self._bank[k], self._row[k],
                       issue_at, self._channel[k])

    def complete_read(self, request: Request, now_ns: float) -> None:
        """A demand read came back; release its window slot."""
        if request.core != self.core_id:
            raise ValueError("request belongs to another core")
        if self.outstanding <= 0:
            raise RuntimeError("read completion with no outstanding reads")
        was_stalled = self.outstanding >= self._max_outstanding
        self.outstanding -= 1
        if was_stalled and now_ns > self._clock_ns:
            # The window was full: the core made no progress while this
            # read was the gating miss.
            self.stall_ns += now_ns - self._clock_ns
            self._clock_ns = now_ns
            self._issue_at = self._issue_time()

    # ------------------------------------------------------------------
    def ipc(self, elapsed_ns: float) -> float:
        """Committed instructions per *CPU* cycle over the run."""
        if elapsed_ns <= 0:
            raise ValueError("elapsed_ns must be positive")
        cycles = elapsed_ns * self.config.freq_ghz
        return self.instructions_retired / cycles
