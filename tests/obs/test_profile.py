"""Sampled profiler: span-stack attribution, collapsed output, mem mode."""

import tracemalloc

import pytest

from repro import obs
from repro.obs.profile import SampledProfiler, rss_bytes


class TestRssBytes:
    __test__ = True

    def test_returns_plausible_size_or_none(self):
        value = rss_bytes()
        # Never raises; on Linux it is this process's RSS in bytes.
        assert value is None or 1 << 20 < value < 1 << 44


class TestSampleOnce:
    __test__ = True

    def test_attributes_to_named_span_stack(self):
        prof = SampledProfiler()
        with obs.collect_spans("run"):
            with obs.span("fig15"):
                with obs.span("sim.run"):
                    stack = prof.sample_once()
        assert stack == "run;fig15;sim.run"
        assert prof.stacks == {"run;fig15;sim.run": 1}
        assert prof.sample_count == 1
        assert prof.attributed == 1
        assert prof.attributed_fraction == 1.0

    def test_root_only_sample_is_unattributed(self):
        prof = SampledProfiler()
        with obs.collect_spans("run"):
            prof.sample_once()
        assert prof.stacks == {"run": 1}
        assert prof.attributed == 0
        assert prof.attributed_fraction == 0.0

    def test_no_collector_bucket(self):
        prof = SampledProfiler()
        assert prof.sample_once() == "(no-collector)"
        assert prof.attributed_fraction == 0.0

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            SampledProfiler(interval_s=0.0)


class TestLifecycle:
    __test__ = True

    def test_thread_samples_while_running(self):
        prof = SampledProfiler(interval_s=0.001)
        with obs.collect_spans("run"):
            with obs.span("busy"):
                with prof:
                    deadline = 500
                    while prof.sample_count < 3 and deadline:
                        prof._stop.wait(0.002)
                        deadline -= 1
        assert prof.sample_count >= 3
        assert prof.wall_s > 0.0
        assert any(s.startswith("run;busy") for s in prof.stacks)

    def test_double_start_raises(self):
        prof = SampledProfiler(interval_s=0.05)
        prof.start()
        try:
            with pytest.raises(RuntimeError):
                prof.start()
        finally:
            prof.stop()

    def test_stop_without_start_is_noop(self):
        SampledProfiler().stop()


class TestOutput:
    __test__ = True

    def _sampled(self):
        prof = SampledProfiler(interval_s=0.5)
        with obs.collect_spans("run"):
            with obs.span("fill"):
                prof.sample_once()
                prof.sample_once()
            prof.sample_once()
        return prof

    def test_to_dict_shape_and_ordering(self):
        prof = self._sampled()
        data = prof.to_dict()
        assert data["sample_count"] == 3
        assert data["attributed_fraction"] == round(2 / 3, 4)
        assert list(data["stacks"]) == ["run;fill", "run"]
        assert data["stacks"]["run;fill"] == 2
        assert "mem" not in data

    def test_write_collapsed(self, tmp_path):
        prof = self._sampled()
        out = tmp_path / "deep" / "stacks.txt"
        prof.write_collapsed(str(out))
        lines = out.read_text().splitlines()
        assert lines == ["run 1", "run;fill 2"]

    def test_manifest_roundtrip(self, tmp_path):
        """The profile payload survives write -> load intact."""
        manifest = obs.RunManifest(experiments=["fig15"], seed=7, quick=True)
        manifest.profile = self._sampled().to_dict()
        path = tmp_path / "m.json"
        manifest.write(str(path))
        loaded = obs.load_manifest(str(path))
        assert loaded["profile"] == manifest.profile


class TestMemMode:
    __test__ = True

    def test_mem_sampling_records_heap_peaks(self):
        prof = SampledProfiler(mem=True)
        was_tracing = tracemalloc.is_tracing()
        prof_started = False
        try:
            prof.start()
            prof_started = True
            assert tracemalloc.is_tracing()
            with obs.collect_spans("run"):
                with obs.span("alloc"):
                    blob = bytearray(2 << 20)
                    prof.sample_once()
                    del blob
        finally:
            if prof_started:
                prof.stop()
        if not was_tracing:
            assert not tracemalloc.is_tracing()
        data = prof.to_dict()
        assert data["mem"]["tracemalloc_peak_bytes"] >= 2 << 20
        assert data["mem"]["stack_peaks"].get("run;alloc", 0) >= 2 << 20
