"""Metrics-registry semantics: instruments, snapshot/reset, enable flag,
and the merge that folds a worker's snapshot into the parent's registry."""

import json

import pytest

from repro.obs import MetricsRegistry, get_registry, set_registry


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("x")
        assert counter.value == 0
        counter.inc()
        counter.inc(5)
        assert counter.value == 6

    def test_same_name_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_disabled_registry_counts_nothing(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("x")
        counter.inc(100)
        assert counter.value == 0

    def test_enable_mid_run_takes_effect_on_cached_reference(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("x")
        counter.inc()
        registry.enable()
        counter.inc()
        assert counter.value == 1
        registry.disable()
        counter.inc()
        assert counter.value == 1


class TestGauge:
    def test_set_and_add(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(3.5)
        gauge.add(1.0)
        assert gauge.value == 4.5

    def test_disabled_gauge_is_inert(self):
        registry = MetricsRegistry(enabled=False)
        gauge = registry.gauge("depth")
        gauge.set(9.0)
        assert gauge.value == 0.0


class TestHistogram:
    def test_bucketing(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", buckets=(1.0, 10.0, 100.0))
        for value in (0.5, 5.0, 50.0, 500.0, 0.2):
            hist.observe(value)
        assert hist.counts == [2, 1, 1, 1]
        assert hist.total == 5
        assert hist.mean == pytest.approx((0.5 + 5 + 50 + 500 + 0.2) / 5)

    def test_boundary_lands_in_lower_bucket(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", buckets=(1.0, 10.0))
        hist.observe(1.0)   # inclusive upper bound
        hist.observe(10.0)
        assert hist.counts == [1, 1, 0]

    def test_unsorted_buckets_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.histogram("bad", buckets=(10.0, 1.0))

    def test_conflicting_buckets_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("lat", buckets=(1.0, 2.0))
        with pytest.raises(ValueError):
            registry.histogram("lat", buckets=(5.0,))
        # Re-fetching without buckets is fine.
        assert registry.histogram("lat").bounds == (1.0, 2.0)


class TestNameCollisions:
    def test_counter_vs_gauge_collision(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")
        with pytest.raises(ValueError):
            registry.histogram("x")


class TestSnapshotReset:
    def test_snapshot_is_json_safe(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        registry.gauge("g").set(1.5)
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        snap = registry.snapshot()
        assert json.loads(json.dumps(snap)) == snap
        assert snap["counters"] == {"c": 3}
        assert snap["gauges"] == {"g": 1.5}
        assert snap["histograms"]["h"]["counts"] == [1, 0]
        assert snap["histograms"]["h"]["total"] == 1

    def test_reset_zeroes_but_keeps_instruments(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        hist = registry.histogram("h", buckets=(1.0,))
        counter.inc(7)
        hist.observe(0.5)
        registry.reset()
        assert counter.value == 0
        assert hist.total == 0 and hist.counts == [0, 0]
        # The cached reference is still live after reset.
        counter.inc()
        assert registry.snapshot()["counters"]["c"] == 1

    def test_snapshot_after_reset_is_empty_values(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        first = registry.snapshot()
        registry.reset()
        second = registry.snapshot()
        assert first["counters"] == {"c": 2}
        assert second["counters"] == {"c": 0}


class TestDefaultRegistry:
    def test_set_registry_swaps_and_returns_previous(self):
        mine = MetricsRegistry(enabled=True)
        previous = set_registry(mine)
        try:
            assert get_registry() is mine
        finally:
            assert set_registry(previous) is mine


class TestRegistryMerge:
    def _registry(self, counter=0, gauge=0.0, hist=()):
        registry = MetricsRegistry(enabled=True)
        registry.counter("n").inc(counter)
        registry.gauge("g").set(gauge)
        h = registry.histogram("h", (1.0, 10.0))
        for value in hist:
            h.observe(value)
        return registry

    def test_counters_sum(self):
        a, b = self._registry(counter=3), self._registry(counter=4)
        a.merge(b)
        assert a.counter("n").value == 7

    def test_gauges_keep_high_water_mark(self):
        a, b = self._registry(gauge=5.0), self._registry(gauge=3.0)
        a.merge(b)
        assert a.gauge("g").value == 5.0
        b.merge(self._registry(gauge=9.0))
        assert b.gauge("g").value == 9.0

    def test_histograms_add_bucketwise(self):
        a = self._registry(hist=(0.5, 5.0))
        b = self._registry(hist=(5.0, 50.0))
        a.merge(b)
        snap = a.snapshot()["histograms"]["h"]
        assert snap["counts"] == [1, 2, 1]
        assert snap["total"] == 4

    def test_merge_accepts_snapshot_dicts(self):
        a = self._registry(counter=1)
        a.merge(self._registry(counter=2).snapshot())
        assert a.counter("n").value == 3

    def test_bounds_mismatch_raises(self):
        a = self._registry(hist=(0.5,))
        b = MetricsRegistry(enabled=True)
        b.histogram("h", (2.0, 20.0)).observe(1.0)
        with pytest.raises(ValueError, match="buckets|bounds"):
            a.merge(b)

    def test_non_mapping_rejected(self):
        with pytest.raises(TypeError):
            MetricsRegistry(enabled=True).merge([1, 2])
