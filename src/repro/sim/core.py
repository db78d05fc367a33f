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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..mc.request import Request, RequestKind
from ..traces.spec import BenchmarkProfile

_READ = RequestKind.READ
_WRITE = RequestKind.WRITE
#: 2**-53: scales a 53-bit integer into [0, 1), as numpy's ``random()``.
_UNIT = 1.0 / 9007199254740992.0


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


class TraceCore:
    """One core running a synthetic benchmark stream.

    The core's private clock advances in two ways: retiring the
    instruction gap before each memory request (at peak width), and being
    dragged forward by read completions while the outstanding-miss window
    is full (stall time). The issue time of the next request is always
    derived from the *current* clock, so stalls transparently delay it.
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
    ) -> None:
        for name, count in (("channels", channels), ("banks", banks),
                            ("rows_per_bank", rows_per_bank)):
            if not 0 < count <= 1 << 32:  # the range ``_below`` draws
                raise ValueError(f"{name} must be in [1, 2**32]")
        self.core_id = core_id
        self.benchmark = benchmark
        self.config = config or CoreConfig()
        self.banks = banks
        self.rows_per_bank = rows_per_bank
        self.channels = channels
        rng = np.random.default_rng((seed << 8) ^ core_id)
        # Every request draws from this generator. Its uniform and bounded
        # integer draws are computed from raw 64-bit words exactly as
        # numpy computes ``random()`` and ``integers(n)`` (DESIGN.md,
        # "Raw-word draws"); ``exponential`` reads whole words only, so it
        # never disturbs the half-word buffer ``_below`` keeps.
        self._exponential = rng.exponential
        self._raw = rng.bit_generator.random_raw
        self._half: Optional[int] = None
        self._per_ns = self.config.instructions_per_ns
        self._max_outstanding = self.config.max_outstanding
        self.instructions_retired = 0.0
        self.outstanding = 0
        self.stall_ns = 0.0
        self._clock_ns = 0.0
        self._last_channel = 0
        self._last_bank = 0
        self._last_row = 0
        inter_miss = 1000.0 / benchmark.mpki if benchmark.mpki > 0 else None
        self._inter_miss_mean = inter_miss
        self._pending_gap = self._draw_gap()
        #: When the pending request issues: the clock plus the gap at
        #: peak width (None = never). Kept in step with both.
        self._issue_at = self._issue_time()

    # ------------------------------------------------------------------
    def _draw_gap(self) -> Optional[float]:
        """Instructions until the next memory request (None = never)."""
        if self._inter_miss_mean is None:
            return None
        return float(self._exponential(self._inter_miss_mean))

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
        self.instructions_retired += self._pending_gap
        self._clock_ns = issue_at
        self._pending_gap = self._draw_gap()
        self._issue_at = self._issue_time()
        benchmark = self.benchmark
        raw = self._raw
        # ``random()``: the top 53 bits of a word, scaled into [0, 1).
        is_write = (raw() >> 11) * _UNIT < benchmark.write_fraction
        # Row-buffer locality: repeat the last location, or draw a fresh
        # one (on one channel ``_below(1)`` is 0 and draws nothing).
        if (raw() >> 11) * _UNIT < benchmark.row_hit_rate:
            channel = self._last_channel
            bank = self._last_bank
            row = self._last_row
        else:
            below = self._below
            channel = below(self.channels)
            bank = below(self.banks)
            row = below(self.rows_per_bank)
            self._last_channel = channel
            self._last_bank = bank
            self._last_row = row
        if is_write:
            return Request(_WRITE, self.core_id, bank, row, issue_at, channel)
        self.outstanding += 1
        return Request(_READ, self.core_id, bank, row, issue_at, channel)

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
