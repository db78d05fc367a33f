"""Write-trace containers.

A :class:`WriteTrace` holds what the paper's HMTT bus tracer captures:
for every page, the timestamps (in milliseconds) of the write requests that
reached DRAM, over a fixed capture window. Reads are not recorded — they do
not change memory content, so MEMCON never reacts to them (paper §3.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np


@dataclass
class WriteTrace:
    """Per-page write timestamps over a capture window.

    Parameters
    ----------
    duration_ms:
        Length of the capture window; all timestamps lie in [0, duration).
    writes:
        Mapping from page id in ``[0, total_pages)`` to a sorted float
        array of write times (ms). Pages with no writes may be present with
        an empty array or simply absent; ``total_pages`` covers both.
    total_pages:
        Total footprint in pages, including pages never written (those are
        the read-only pages MEMCON moves to LO-REF after a single test).
    name:
        Workload name, for reporting.
    """

    duration_ms: float
    writes: Dict[int, np.ndarray]
    total_pages: int
    name: str = ""

    def __post_init__(self) -> None:
        if self.duration_ms <= 0:
            raise ValueError("duration_ms must be positive")
        if self.total_pages <= 0:
            raise ValueError("total_pages must be positive")
        for page, times in self.writes.items():
            if not 0 <= page < self.total_pages:
                raise ValueError(
                    f"page {page} outside the footprint "
                    f"[0, total_pages={self.total_pages})"
                )
            arr = np.asarray(times, dtype=np.float64)
            if arr.ndim != 1:
                raise ValueError(f"page {page}: timestamps must be 1-D")
            if len(arr) and (arr[0] < 0 or arr[-1] >= self.duration_ms):
                raise ValueError(f"page {page}: timestamps outside window")
            if np.any(np.diff(arr) < 0):
                raise ValueError(f"page {page}: timestamps not sorted")
            self.writes[page] = arr

    # ------------------------------------------------------------------
    @property
    def written_pages(self) -> List[int]:
        """Pages with at least one write, sorted."""
        return sorted(p for p, t in self.writes.items() if len(t))

    @property
    def n_writes(self) -> int:
        return sum(len(t) for t in self.writes.values())

    @property
    def read_only_pages(self) -> int:
        """Number of pages in the footprint that never receive a write."""
        return self.total_pages - len(self.written_pages)

    # ------------------------------------------------------------------
    def all_intervals(self, include_trailing: bool = False) -> np.ndarray:
        """Write intervals (gaps between consecutive writes), pooled.

        Pages come in ``writes`` order, each page's intervals in time
        order. With ``include_trailing`` each page's right-censored gap
        from its last write to the end of the capture window follows its
        intervals — needed when accounting for *time* spent in intervals,
        since the trailing idle period is real LO-REF opportunity.

        One difference over all pages' writes laid end to end: the slot
        after each page's last write is where the next page starts, so it
        is dropped, or holds the trailing gap.
        """
        parts = [times for times in self.writes.values() if len(times)]
        if not parts:
            return np.empty(0, dtype=np.float64)
        times = np.concatenate(parts)
        last = np.cumsum([len(part) for part in parts]) - 1
        intervals = np.empty(len(times))
        np.subtract(times[1:], times[:-1], out=intervals[:-1])
        if include_trailing:
            intervals[last] = self.duration_ms - times[last]
            return intervals
        del times  # so np.delete's copy is the second array, not a third
        return np.delete(intervals, last)

    # ------------------------------------------------------------------
    def scaled_intervals(self, factor: float) -> "WriteTrace":
        """A trace with every write interval multiplied by ``factor``.

        Used for the paper's cache-size sensitivity study (Figure 19, where
        intervals are halved). Each page's first write time is kept; later
        writes are re-spaced, and writes pushed past the window are dropped.
        """
        if factor <= 0:
            raise ValueError("factor must be positive")
        scaled: Dict[int, np.ndarray] = {}
        for page, times in self.writes.items():
            if len(times) == 0:
                scaled[page] = times.copy()
                continue
            new_times = times[0] + np.concatenate(
                ([0.0], np.cumsum(np.diff(times) * factor))
            )
            scaled[page] = new_times[new_times < self.duration_ms]
        return WriteTrace(
            duration_ms=self.duration_ms,
            writes=scaled,
            total_pages=self.total_pages,
            name=f"{self.name}(x{factor:g})" if self.name else "",
        )

