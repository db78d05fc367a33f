"""Synthetic write-trace generation (the HMTT substitution).

Each written page alternates between *write episodes* (a geometric number
of writes with sub-millisecond spacing — the >95% of writes that land
within 1 ms of the previous one) and *idle gaps* drawn from a Pareto
distribution. The Pareto scale ``xm`` is sampled log-uniformly per page, so
hot pages (small ``xm``) write often while cold pages idle for seconds;
a log-uniform mixture of same-index Pareto tails pools into a clean power
law on log-log axes, matching the straight-line fits of the paper's
Figure 8 while keeping per-page write counts realistic.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import obs
from .content import name_seed
from .events import WriteTrace
from .workloads import WorkloadProfile


#: 2**-53: scales a 53-bit integer into [0, 1), as numpy's ``random()``.
_UNIT = 1.0 / 9007199254740992.0


def generate_page_writes(
    rng: np.random.Generator,
    duration_ms: float,
    xm_ms: float,
    pareto_alpha: float,
    burst_extra_mean: float,
    burst_spacing_ms: float,
    start_ms: Optional[float] = None,
) -> np.ndarray:
    """Write timestamps for a single page over [0, duration_ms).

    The page starts at a random offset, then alternates a write episode of
    ``1 + Poisson(burst_extra_mean)`` writes with a Pareto(xm, alpha) idle
    gap until the window ends.

    Each episode draws ``poisson`` (bursts only: ``Poisson(0)`` consumes
    nothing), ``exponential(size=k)`` for its ``k`` spacings and
    ``random()`` for its gap, in that order, and the loop only collects
    the draws (``random()`` read from its raw word, DESIGN.md "Raw-word
    draws"). The timestamps come afterwards, from one sequential
    :func:`_running_times` over the whole page, which rounds each one
    exactly as the per-write recurrence ``t += spacing`` (then
    ``t += gap``) does. The loop stops on a running total summed in
    Python floats; where that total lies within its rounding bound of
    the window end, it takes the exact one instead.
    """
    if duration_ms <= 0:
        raise ValueError("duration_ms must be positive")
    if xm_ms <= 0 or pareto_alpha <= 0:
        raise ValueError("Pareto parameters must be positive")
    if burst_extra_mean < 0:
        raise ValueError("burst_extra_mean must be non-negative")
    poisson, exponential = rng.poisson, rng.exponential
    raw = rng.bit_generator.random_raw
    tail = -1.0 / pareto_alpha
    start = (
        rng.uniform(0.0, min(xm_ms, duration_ms))
        if start_ms is None else start_ms
    )
    bursts: List[np.ndarray] = []  # each episode's spacings
    uniforms: List[float] = []     # each episode's gap draw
    add_burst, add_uniform = bursts.append, uniforms.append
    # Near the window end ``t`` and the exact total differ by at most
    # ``n_steps * ulp``: each sum rounds by half a unit in the last place,
    # and the two powers of a draw differ by at most two units.
    ulp = 2.0 ** -51 * duration_ms
    n_steps = 1
    t = start
    while t < duration_ms:
        k = 1 + poisson(burst_extra_mean) if burst_extra_mean else 1
        n_steps += k + 1
        spacings = exponential(burst_spacing_ms, size=k)
        u = (raw() >> 11) * _UNIT  # ``random()``, from its raw word
        add_burst(spacings)
        add_uniform(u)
        try:
            gap = xm_ms * u ** tail
        except (ZeroDivisionError, OverflowError):  # numpy's power: inf
            gap = float("inf")
        t += sum(spacings.tolist()) + gap
        if abs(t - duration_ms) <= n_steps * ulp:
            exact, _ = _running_times(start, bursts, uniforms, xm_ms, tail)
            t = exact.item(-1)
    if not bursts:
        return np.asarray([], dtype=np.float64)
    running, gap_at = _running_times(start, bursts, uniforms, xm_ms, tail)
    # An episode's writes are its start and all but its last running sum.
    times = np.delete(running, np.append(gap_at - 1, gap_at[-1]))
    return times[: times.searchsorted(duration_ms)]


def _running_times(
    start: float,
    bursts: List[np.ndarray],
    uniforms: List[float],
    xm_ms: float,
    tail: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """The page's running time after each step, and where each gap lands.

    The steps are the start, each episode's spacings, then its gap; one
    sequential ``np.add.accumulate`` sums them. Episode ``e`` starts at
    index ``gap_at[e - 1]`` (0 for the first); the last entry is where
    the episode after the last one would start. Gaps are Pareto by
    inverse CDF, ``xm * u ** (-1 / alpha)``, with numpy's array power:
    a scalar ``**`` rounds some of them differently.
    """
    lengths = np.array([len(spacings) for spacings in bursts])
    gap_at = np.cumsum(lengths + 1)
    steps = np.empty(gap_at[-1] + 1)
    is_spacing = np.ones(len(steps), dtype=bool)
    is_spacing[0] = False
    is_spacing[gap_at] = False
    steps[0] = start
    steps[gap_at] = xm_ms * np.array(uniforms) ** tail
    steps[is_spacing] = np.concatenate(bursts)
    return np.add.accumulate(steps), gap_at


#: Deterministic traces keyed by (profile type + fields, seed, window).
#: Every figure experiment regenerates the same dozen traces from the
#: same inputs; caching makes the repeats free. Consumers treat returned
#: traces as immutable (nothing in the repo mutates a WriteTrace).
#: The cache is a true LRU (hits refresh recency) holding at most
#: ``_TRACE_CACHE_LIMIT`` traces, so a process that sweeps many seeds
#: or windows keeps a bounded resident set; a limit of 0 disables
#: caching.
_TRACE_CACHE: "OrderedDict[tuple, WriteTrace]" = OrderedDict()
_TRACE_CACHE_LIMIT = 32


def trace_cache_info() -> Dict[str, int]:
    """Current size and limit of the trace cache."""
    return {"size": len(_TRACE_CACHE), "limit": _TRACE_CACHE_LIMIT}


def clear_trace_cache() -> None:
    _TRACE_CACHE.clear()


def _cache_key(
    profile: WorkloadProfile, seed: int, window: float
) -> Optional[tuple]:
    """Defensive cache key: type + every field + normalized seed/window.

    Including the concrete type guards against two profile classes whose
    fields happen to collide; subclasses and non-dataclass stand-ins
    (whose extra state ``astuple`` would miss) and unhashable field
    values opt out of caching instead of aliasing someone else's trace.
    """
    if type(profile) is not WorkloadProfile:
        return None
    try:
        key = (
            type(profile).__qualname__,
            dataclasses.astuple(profile),
            int(seed),
            float(window),
        )
        hash(key)
    except (TypeError, ValueError):
        return None
    return key


def generate_trace(
    profile: WorkloadProfile,
    seed: int = 0,
    duration_ms: Optional[float] = None,
) -> WriteTrace:
    """Generate the full write trace for one workload profile.

    Results are cached: generation is a pure function of the profile,
    the seed and the window, and the cache key covers all three.
    """
    window = duration_ms if duration_ms is not None else profile.duration_ms
    registry = obs.get_registry()
    key = _cache_key(profile, seed, window) if _TRACE_CACHE_LIMIT else None
    cached = _TRACE_CACHE.get(key) if key is not None else None
    if cached is not None:
        _TRACE_CACHE.move_to_end(key)
        registry.counter("traces.cache_hits").inc()
        return cached
    registry.counter("traces.cache_misses").inc()
    rng = np.random.default_rng((seed << 16) ^ name_seed(profile.name))

    n_written = int(round(profile.n_pages * profile.written_page_fraction))
    n_streaming = int(round(n_written * profile.streaming_page_fraction))
    writes: Dict[int, np.ndarray] = {}
    for page in range(n_written):
        if page < n_streaming:
            # Streaming pages: dense bursts, short idle gaps. These hold
            # almost all the writes (the >95%-within-1-ms mass).
            lo, hi = profile.stream_xm_lo_ms, profile.stream_xm_hi_ms
            burst_extra = profile.burst_length_mean
        else:
            # Regular pages: isolated writebacks separated by long gaps —
            # the single-write-per-quantum episodes PRIL can track.
            lo, hi = profile.regular_xm_lo_ms, profile.regular_xm_hi_ms
            burst_extra = 0.0
        xm = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
        times = generate_page_writes(
            rng,
            duration_ms=window,
            xm_ms=xm,
            pareto_alpha=profile.pareto_alpha,
            burst_extra_mean=burst_extra,
            burst_spacing_ms=profile.burst_spacing_ms,
        )
        if len(times):
            writes[page] = times
    trace = WriteTrace(
        duration_ms=window,
        writes=writes,
        total_pages=profile.n_pages,
        name=profile.name,
    )
    if key is not None:
        while len(_TRACE_CACHE) >= _TRACE_CACHE_LIMIT:
            _TRACE_CACHE.popitem(last=False)
        _TRACE_CACHE[key] = trace
        registry.gauge("traces.cache_size").set(len(_TRACE_CACHE))
    return trace
