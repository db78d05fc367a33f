"""Process-local metrics registry: counters, gauges, fixed-bucket histograms.

The registry is the quantitative backbone of the observability layer:
instrumented code (MEMCON's accounting pass, the memory controller,
the SoftMC tester) fetches its instruments once at construction time and
bumps them on the hot path. Every instrument checks the owning registry's
``enabled`` flag before touching state, so a disabled registry — the
default for library use — costs one attribute load and a predictable
branch per call site.

A module-level default registry backs the zero-configuration path
(:func:`get_registry`); experiments that want isolated accounting build
their own :class:`MetricsRegistry` and install it with
:func:`set_registry` (or pass it around explicitly).
"""

from __future__ import annotations

import bisect
from typing import Dict, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
]

#: Default histogram bucket upper bounds (generic latency-ish scale).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.01, 0.1, 1.0, 10.0, 100.0, 1_000.0, 10_000.0,
)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value", "_registry")

    def __init__(self, name: str, registry: "MetricsRegistry") -> None:
        self.name = name
        self.value = 0
        self._registry = registry

    def inc(self, n: int = 1) -> None:
        if self._registry.enabled:
            self.value += n

    def _reset(self) -> None:
        self.value = 0


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "value", "_registry")

    def __init__(self, name: str, registry: "MetricsRegistry") -> None:
        self.name = name
        self.value = 0.0
        self._registry = registry

    def set(self, value: float) -> None:
        if self._registry.enabled:
            self.value = value

    def add(self, delta: float) -> None:
        if self._registry.enabled:
            self.value += delta

    def _reset(self) -> None:
        self.value = 0.0


class Histogram:
    """Fixed-bucket histogram with sum/count for mean recovery.

    ``buckets`` are the inclusive upper bounds of the finite buckets; an
    implicit +inf bucket catches the overflow. Bounds are frozen at
    creation — no dynamic resizing on the hot path.
    """

    __slots__ = ("name", "bounds", "counts", "total", "sum", "_registry")

    def __init__(
        self,
        name: str,
        registry: "MetricsRegistry",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError("bucket bounds must be strictly increasing")
        self.name = name
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # last slot is +inf
        self.total = 0
        self.sum = 0.0
        self._registry = registry

    def observe(self, value: float) -> None:
        if not self._registry.enabled:
            return
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.total += 1
        self.sum += value

    def observe_many(self, values: Sequence[float]) -> None:
        """Record a batch of observations in order.

        Equivalent to calling :meth:`observe` per value — in particular
        ``sum`` accumulates left-to-right, so a batched flush produces the
        same float as the per-observation path it replaces.
        """
        if not self._registry.enabled or not values:
            return
        counts = self.counts
        bounds = self.bounds
        bisect_left = bisect.bisect_left
        total = self.sum
        for value in values:
            counts[bisect_left(bounds, value)] += 1
            total += value
        self.total += len(values)
        self.sum = total

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0

    def _reset(self) -> None:
        self.counts = [0] * (len(self.bounds) + 1)
        self.total = 0
        self.sum = 0.0


class MetricsRegistry:
    """Named instruments plus snapshot/reset and an enable switch.

    Instruments are created lazily and cached by name; asking for an
    existing name with a different instrument type is an error (one name,
    one meaning). ``snapshot`` returns plain dicts safe to JSON-encode;
    ``reset`` zeroes values but keeps the instruments, so cached
    references held by instrumented objects stay live.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    # ------------------------------------------------------------------
    def _check_free(self, name: str, kind: str) -> None:
        for label, table in (
            ("counter", self._counters),
            ("gauge", self._gauges),
            ("histogram", self._histograms),
        ):
            if label != kind and name in table:
                raise ValueError(
                    f"metric {name!r} already registered as a {label}"
                )

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            self._check_free(name, "counter")
            instrument = self._counters[name] = Counter(name, self)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            self._check_free(name, "gauge")
            instrument = self._gauges[name] = Gauge(name, self)
        return instrument

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            self._check_free(name, "histogram")
            instrument = self._histograms[name] = Histogram(
                name, self, buckets if buckets is not None else DEFAULT_BUCKETS
            )
        elif buckets is not None and tuple(map(float, buckets)) != instrument.bounds:
            raise ValueError(
                f"histogram {name!r} already registered with other buckets"
            )
        return instrument

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """JSON-safe view of every instrument's current value."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: {
                    "bounds": list(h.bounds),
                    "counts": list(h.counts),
                    "total": h.total,
                    "sum": h.sum,
                }
                for n, h in sorted(self._histograms.items())
            },
        }

    def reset(self) -> None:
        """Zero all values; instruments (and cached references) survive."""
        for table in (self._counters, self._gauges, self._histograms):
            for instrument in table.values():
                instrument._reset()

    # ------------------------------------------------------------------
    def merge(self, other) -> None:
        """Fold another registry (or a :meth:`snapshot` dict) into this one.

        Merge semantics follow each instrument's meaning across workers:
        counters and histograms are additive (counts, totals and sums
        add; bucket bounds must match), gauges are point-in-time values
        with no cross-worker order, so the merge keeps the maximum —
        the conventional high-water-mark reading. Values are written
        directly, bypassing the ``enabled`` flag: merging is bookkeeping,
        not hot-path instrumentation.
        """
        snapshot = other.snapshot() if isinstance(other, MetricsRegistry) else other
        if not isinstance(snapshot, dict):
            raise TypeError(f"cannot merge {type(other).__name__} into registry")
        for name, value in (snapshot.get("counters") or {}).items():
            self.counter(name).value += value
        for name, value in (snapshot.get("gauges") or {}).items():
            gauge = self.gauge(name)
            gauge.value = max(gauge.value, value)
        for name, data in (snapshot.get("histograms") or {}).items():
            bounds = tuple(float(b) for b in data.get("bounds", ()))
            histogram = self.histogram(name, bounds or None)
            if bounds and bounds != histogram.bounds:
                raise ValueError(
                    f"histogram {name!r}: shard bounds {bounds} do not match "
                    f"{histogram.bounds}"
                )
            counts = data.get("counts", [])
            if len(counts) != len(histogram.counts):
                raise ValueError(
                    f"histogram {name!r}: shard has {len(counts)} buckets, "
                    f"expected {len(histogram.counts)}"
                )
            for index, count in enumerate(counts):
                histogram.counts[index] += count
            histogram.total += data.get("total", 0)
            histogram.sum += data.get("sum", 0.0)


#: The process-local default registry. Disabled by default so plain
#: library use pays only the per-call-site flag check.
_default_registry = MetricsRegistry(enabled=False)


def get_registry() -> MetricsRegistry:
    """The currently installed process-local registry."""
    return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install a registry as the process default; returns the previous one."""
    global _default_registry
    previous = _default_registry
    _default_registry = registry
    return previous
