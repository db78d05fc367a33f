"""Regression gate: metric extraction, verdicts, and the CLI contract."""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.obs.compare import (
    DEFAULT_THRESHOLD,
    WALL_CLOCK_THRESHOLD,
    classify_direction,
    compare_files,
    compare_metrics,
    extract_metrics,
    main,
)
from repro.obs.manifest import RunManifest


def _manifest_dict(wall_s=2.0, sim_wall_s=1.5, counters=None):
    manifest = RunManifest.start(["fig06"], seed=0, quick=True)
    manifest.add_timing("sim.fig06", sim_wall_s)
    manifest.metrics = {"counters": dict(counters or {"sim.loops": 100}),
                        "gauges": {"memcon.lo_ref_rows": 40.0}}
    manifest.wall_s = wall_s
    return manifest.to_dict()


def _write(path, data):
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


class TestDirectionHeuristics:
    __test__ = True

    @pytest.mark.parametrize("name,expected", [
        ("fig15.weighted_speedup", "higher"),
        ("pril.hit_rate", "higher"),
        ("mean_ipc", "higher"),
        ("fig14.refresh_reduction", "higher"),
        ("obs_disabled_overhead.est_disabled_overhead_fraction", "lower"),
        ("mc.read_latency_ns", "lower"),
        ("timing.sim.fig06_s", "lower"),
        ("wall_s", "lower"),
        ("window_ms", "lower"),
        ("counter.sim.loop_iterations", None),
        ("trace_events", None),
    ])
    def test_classification(self, name, expected):
        assert classify_direction(name) == expected

    def test_higher_tokens_win_over_lower_suffix(self):
        # "hit_rate_ns" is contrived, but ordering must be deterministic.
        assert classify_direction("coverage_ms") == "higher"


class TestExtractMetrics:
    __test__ = True

    def test_manifest_flattening(self):
        metrics = extract_metrics(_manifest_dict())
        assert metrics["wall_s"] == 2.0
        assert metrics["timing.sim.fig06_s"] == 1.5
        assert metrics["counter.sim.loops"] == 100.0
        assert metrics["gauge.memcon.lo_ref_rows"] == 40.0

    def test_bench_flattening_skips_metadata(self):
        bench = {
            "obs_disabled_overhead": {
                "disabled_run_s": 0.5,
                "obs_calls": 12000,
                "recorded_at": "2026-08-06T00:00:00",
                "history": [{"disabled_run_s": 0.6}],
                "note": "not a number",
                "flag": True,
            }
        }
        metrics = extract_metrics(bench)
        assert metrics == {
            "obs_disabled_overhead.disabled_run_s": 0.5,
            "obs_disabled_overhead.obs_calls": 12000.0,
        }


class TestVerdicts:
    __test__ = True

    def test_identical_maps_are_ok(self):
        metrics = {"a.latency_ns": 10.0, "b.speedup": 3.0, "c.count": 7.0}
        result = compare_metrics(metrics, dict(metrics))
        assert result.ok(strict=True)
        assert {d.verdict for d in result.deltas} == {"ok", "info"}

    def test_latency_increase_is_regression(self):
        result = compare_metrics({"mc.latency_ns": 100.0},
                                 {"mc.latency_ns": 120.0})
        (delta,) = result.deltas
        assert delta.verdict == "regression"
        assert delta.rel_change == pytest.approx(0.20)
        assert not result.ok()

    def test_speedup_drop_is_regression_and_gain_improvement(self):
        down = compare_metrics({"fig15.speedup": 4.0}, {"fig15.speedup": 3.0})
        assert down.deltas[0].verdict == "regression"
        up = compare_metrics({"fig15.speedup": 4.0}, {"fig15.speedup": 5.0})
        assert up.deltas[0].verdict == "improvement"
        assert up.ok()

    def test_within_threshold_is_ok(self):
        result = compare_metrics({"mc.latency_ns": 100.0},
                                 {"mc.latency_ns": 105.0})
        assert result.deltas[0].verdict == "ok"

    def test_directionless_metric_never_gates(self):
        result = compare_metrics({"trace_events": 100.0},
                                 {"trace_events": 900.0})
        assert result.deltas[0].verdict == "info"
        assert result.ok(strict=True)

    def test_missing_and_added(self):
        result = compare_metrics({"old.latency_ns": 5.0},
                                 {"new.latency_ns": 5.0})
        verdicts = {d.name: d.verdict for d in result.deltas}
        assert verdicts == {"old.latency_ns": "missing",
                           "new.latency_ns": "added"}
        assert result.ok()
        assert not result.ok(strict=True)

    def test_zero_baseline_yields_infinite_change(self):
        result = compare_metrics({"x.overhead": 0.0}, {"x.overhead": 1.0})
        delta = result.deltas[0]
        assert delta.rel_change == float("inf")
        assert delta.verdict == "regression"

    def test_wall_clock_noise_floor(self):
        # 20% slower wall clock is inside the 30% noise floor...
        result = compare_metrics({"timing.fig06_s": 1.0},
                                 {"timing.fig06_s": 1.2})
        assert result.deltas[0].threshold == WALL_CLOCK_THRESHOLD
        assert result.deltas[0].verdict == "ok"
        # ...but 40% is not.
        result = compare_metrics({"timing.fig06_s": 1.0},
                                 {"timing.fig06_s": 1.4})
        assert result.deltas[0].verdict == "regression"

    def test_explicit_override_beats_noise_floor(self):
        result = compare_metrics(
            {"timing.fig06_s": 1.0}, {"timing.fig06_s": 1.2},
            overrides={"timing.fig06_s": 0.05},
        )
        assert result.deltas[0].threshold == 0.05
        assert result.deltas[0].verdict == "regression"

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            compare_metrics({}, {}, threshold=-0.1)


class TestCompareFiles:
    __test__ = True

    def test_manifest_vs_manifest(self, tmp_path):
        old = _write(tmp_path / "old.json", _manifest_dict(sim_wall_s=1.0))
        new = _write(tmp_path / "new.json", _manifest_dict(sim_wall_s=2.0))
        result = compare_files(old, new)
        by_name = {d.name: d for d in result.deltas}
        assert by_name["timing.sim.fig06_s"].verdict == "regression"

    def test_bench_vs_bench(self, tmp_path):
        old = _write(tmp_path / "old.json",
                     {"bench": {"latency_ns": 100.0}})
        new = _write(tmp_path / "new.json",
                     {"bench": {"latency_ns": 95.0}})
        assert compare_files(old, new).ok()


class TestCli:
    __test__ = True

    def test_identical_manifests_exit_zero(self, tmp_path, capsys):
        data = _manifest_dict()
        old = _write(tmp_path / "old.json", data)
        new = _write(tmp_path / "new.json", data)
        assert main([old, new]) == 0
        out = capsys.readouterr().out
        assert "0 regression(s)" in out

    def test_regression_exits_one(self, tmp_path, capsys):
        old = _write(tmp_path / "old.json",
                     {"bench": {"run_latency_ns": 100.0}})
        new = _write(tmp_path / "new.json",
                     {"bench": {"run_latency_ns": 200.0}})
        assert main([old, new]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_warn_only_suppresses_failure(self, tmp_path, capsys):
        old = _write(tmp_path / "old.json",
                     {"bench": {"run_latency_ns": 100.0}})
        new = _write(tmp_path / "new.json",
                     {"bench": {"run_latency_ns": 200.0}})
        assert main([old, new, "--warn-only"]) == 0
        assert "warn" in capsys.readouterr().err.lower()

    def test_strict_fails_on_missing_metric(self, tmp_path):
        old = _write(tmp_path / "old.json", {"bench": {"events": 5}})
        new = _write(tmp_path / "new.json", {"other": {"events": 5}})
        assert main([old, new]) == 0
        assert main([old, new, "--strict"]) == 1

    def test_metric_threshold_override(self, tmp_path):
        old = _write(tmp_path / "old.json", {"b": {"latency_ns": 100.0}})
        new = _write(tmp_path / "new.json", {"b": {"latency_ns": 115.0}})
        assert main([old, new]) == 1
        assert main([old, new,
                     "--metric-threshold", "b.latency_ns=0.20"]) == 0

    def test_bad_override_spec_rejected(self, tmp_path, capsys):
        old = _write(tmp_path / "old.json", {})
        with pytest.raises(SystemExit):
            main([old, old, "--metric-threshold", "nonsense"])

    def test_unreadable_input_exits_two(self, tmp_path, capsys):
        ok = _write(tmp_path / "ok.json", {})
        assert main([str(tmp_path / "absent.json"), ok]) == 2
        garbled = tmp_path / "garbled.json"
        garbled.write_text("{not json", encoding="utf-8")
        assert main([str(garbled), ok]) == 2
        assert "error:" in capsys.readouterr().err

    def test_verbose_lists_quiet_metrics(self, tmp_path, capsys):
        data = {"bench": {"events": 5}}
        old = _write(tmp_path / "old.json", data)
        new = _write(tmp_path / "new.json", data)
        main([old, new])
        assert "bench.events" not in capsys.readouterr().out
        main([old, new, "--verbose"])
        assert "bench.events" in capsys.readouterr().out

    def test_default_threshold_is_ten_percent(self):
        assert DEFAULT_THRESHOLD == 0.10


class TestObservabilityMetrics:
    """RSS, timing and event-count metrics in the gate."""

    @pytest.mark.parametrize("name,expected", [
        ("workers.rss_peak_bytes", "lower"),
        ("timeseries.events_total", None),  # informational only
        ("timing.fig14_s", "lower"),
    ])
    def test_new_direction_tokens(self, name, expected):
        assert classify_direction(name) == expected

    def test_rss_gets_wall_clock_noise_floor(self):
        """RSS swings with allocator/page-cache behavior: a 20% bump
        must not gate under the default 10% threshold."""
        old = {"workers.rss_peak_bytes": 100e6}
        new = {"workers.rss_peak_bytes": 120e6}
        result = compare_metrics(old, new)
        (delta,) = result.deltas
        assert delta.threshold == WALL_CLOCK_THRESHOLD
        assert delta.verdict == "ok"
        worse = compare_metrics(old, {"workers.rss_peak_bytes": 140e6})
        assert worse.deltas[0].verdict == "regression"

    def test_profile_and_telemetry_extracted_from_manifest(self):
        data = _manifest_dict()
        # A manifest written before the span tree became the run's one
        # profile may still carry a "profile" section; it is ignored.
        data["profile"] = {
            "interval_s": 0.005, "wall_s": 2.0, "sample_count": 400,
            "attributed_fraction": 0.9, "rss_peak_bytes": 90e6,
            "stacks": {"run": 400},
        }
        data["workers"] = {
            "jobs": 2, "stats": {},
            "workers": [
                {"shard": "w0", "rss_peak_bytes": 70e6},
                {"shard": "w1", "rss_peak_bytes": 85e6},
            ],
        }
        metrics = extract_metrics(data)
        assert metrics["workers.rss_peak_bytes"] == 85e6  # max over workers
        assert not any(k.startswith("profile.") for k in metrics)

    def test_sample_count_change_is_informational(self):
        """A count of what the run sampled or emitted (here the rollups'
        event total) is informational only."""
        result = compare_metrics({"timeseries.events_total": 100.0},
                                 {"timeseries.events_total": 900.0})
        assert result.deltas[0].verdict == "info"
        assert result.ok()


class TestMalformedSections:
    """A manifest missing or corrupting a whole section must degrade to
    warn-only no-data, never a crash — the other sections still gate."""

    def _extract(self, **overrides):
        data = _manifest_dict()
        data.update(overrides)
        warnings = []
        metrics = extract_metrics(data, warnings)
        return metrics, warnings

    def test_missing_sections_are_silent_no_data(self):
        data = _manifest_dict()
        for section in ("timeseries", "workers", "metrics", "timings",
                        "forensics"):
            data.pop(section, None)
        warnings = []
        metrics = extract_metrics(data, warnings)
        assert metrics == {"wall_s": 2.0}
        assert warnings == []

    def test_malformed_timeseries_warns(self):
        metrics, warnings = self._extract(timeseries=[1, 2, 3])
        assert "wall_s" in metrics
        assert any("timeseries" in w for w in warnings)

    def test_malformed_workers_warns(self):
        metrics, warnings = self._extract(workers="broken")
        assert "wall_s" in metrics
        assert any("workers" in w for w in warnings)

    def test_malformed_telemetry_entries_warn(self):
        metrics, warnings = self._extract(workers={
            "jobs": 2,
            "workers": ["junk", {"rss_peak_bytes": 5}],
        })
        assert metrics["workers.rss_peak_bytes"] == 5.0
        assert any("workers" in w for w in warnings)

    def test_malformed_timings_warns(self):
        metrics, warnings = self._extract(timings="oops")
        assert "wall_s" in metrics
        assert not any(name.startswith("timing.") for name in metrics)
        assert any("timings" in w for w in warnings)

    def test_malformed_metrics_snapshot_warns(self):
        metrics, warnings = self._extract(metrics={"counters": 7})
        assert not any(name.startswith("counter.") for name in metrics)
        assert any("counters" in w for w in warnings)

    def test_timeseries_and_forensics_extracted(self):
        metrics, warnings = self._extract(
            timeseries={"events_total": 120, "windows": []},
            forensics={"records": 9, "rows": 4,
                       "kinds": {"pril_grant": 9}},
        )
        assert metrics["timeseries.events_total"] == 120.0
        assert metrics["forensics.records"] == 9.0
        assert metrics["forensics.rows"] == 4.0
        assert warnings == []

    def test_cli_survives_malformed_manifest(self, tmp_path, capsys):
        data = _manifest_dict()
        data["timeseries"] = [1]
        data["workers"] = "nope"
        old = _write(tmp_path / "old.json", data)
        new = _write(tmp_path / "new.json", data)
        assert main([old, new]) == 0
        err = capsys.readouterr().err
        assert "warning" in err and "timeseries" in err


class TestModuleEntryPoints:
    """``python -m repro.obs.<cli>`` must not re-import a module that the
    package has already imported (runpy warns when it does)."""

    @pytest.mark.parametrize("cli", ["compare", "report", "dashboard", "why"])
    def test_help_runs_without_runtime_warning(self, cli):
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-m", f"repro.obs.{cli}", "--help"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "RuntimeWarning" not in proc.stderr
