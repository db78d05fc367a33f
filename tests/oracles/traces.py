"""The trace layer's retired implementations: equivalence oracles.

* :func:`page_writes_loop` is the episode loop
  :func:`repro.traces.generator.generate_page_writes` replaced: it sums
  each burst from the episode start with its own ``cumsum`` and raises
  each Pareto gap to its power one draw at a time. The generator now
  collects a page's draws and sums them in one pass; the tests hold the
  two to identical timestamps and identical generator state afterwards.
* :func:`page_intervals` and :func:`pooled_intervals` are the per-page
  pooling :meth:`repro.traces.events.WriteTrace.all_intervals` replaced
  with one concatenation and one difference over the whole trace.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.traces.events import WriteTrace


def page_writes_loop(
    rng: np.random.Generator,
    duration_ms: float,
    xm_ms: float,
    pareto_alpha: float,
    burst_extra_mean: float,
    burst_spacing_ms: float,
    start_ms: Optional[float] = None,
) -> np.ndarray:
    """Write timestamps for one page, one episode at a time."""
    chunks = []
    t = rng.uniform(0.0, min(xm_ms, duration_ms)) if start_ms is None else start_ms
    while t < duration_ms:
        burst_len = (
            1 + rng.poisson(burst_extra_mean) if burst_extra_mean else 1
        )
        acc = np.empty(burst_len + 1, dtype=np.float64)
        acc[0] = t
        acc[1:] = rng.exponential(burst_spacing_ms, size=burst_len)
        acc = acc.cumsum()  # acc[i] = t after i spacings
        emitted = int(np.searchsorted(acc[:burst_len], duration_ms, "left"))
        if emitted:
            chunks.append(acc[:emitted])
        # Inverse-CDF Pareto gap: P(X > x) = (xm / x) ** alpha, x >= xm.
        gap = xm_ms * rng.random(1) ** (-1.0 / pareto_alpha)
        t = acc[emitted] + float(gap[0])
    if not chunks:
        return np.asarray([], dtype=np.float64)
    return np.concatenate(chunks)


def page_intervals(
    trace: WriteTrace, page: int, include_trailing: bool = False
) -> np.ndarray:
    """Write intervals of one page (gaps between consecutive writes).

    With ``include_trailing`` the right-censored gap from the last write
    to the end of the capture window is appended.
    """
    times = trace.writes.get(page)
    if times is None or len(times) == 0:
        return np.empty(0, dtype=np.float64)
    intervals = np.diff(times)
    if include_trailing:
        trailing = trace.duration_ms - times[-1]
        intervals = np.append(intervals, trailing)
    return intervals


def pooled_intervals(
    trace: WriteTrace, include_trailing: bool = False
) -> np.ndarray:
    """Write intervals pooled over every written page, page by page."""
    parts = [
        page_intervals(trace, page, include_trailing)
        for page in trace.writes
    ]
    parts = [p for p in parts if len(p)]
    if not parts:
        return np.empty(0, dtype=np.float64)
    return np.concatenate(parts)
