"""Tests for the command-line entry point."""

import json
import logging

import pytest

from repro import obs
from repro.experiments.runner import main


class TestCli:
    def test_single_experiment_prints_table(self, capsys):
        assert main(["fig06"]) == 0
        out = capsys.readouterr().out
        assert "fig06" in out
        assert "560" in out

    def test_out_file_written(self, tmp_path, capsys):
        target = tmp_path / "results.md"
        assert main(["fig06", "--out", str(target)]) == 0
        content = target.read_text()
        assert content.startswith("```")
        assert "min_write_interval_ms" in content

    def test_out_file_truncated_between_runs(self, tmp_path, capsys):
        target = tmp_path / "results.md"
        target.write_text("stale content from an earlier run\n")
        main(["fig06", "--out", str(target)])
        first = target.read_text()
        assert "stale content" not in first
        main(["fig06", "--out", str(target)])
        assert target.read_text() == first

    def test_seed_flag_accepted(self, capsys):
        assert main(["fig06", "--seed", "7"]) == 0

    def test_fig03_quick_smoke(self, capsys):
        from repro.experiments.runner import run_experiments

        results = run_experiments(["fig03"], quick=True)
        assert len(results) == 1
        assert results[0].experiment_id == "fig03"
        assert results[0].rows  # one entry per pattern

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            main(["fig99"])

    def test_serial_run_honours_a_unit_subset(self, tmp_path, monkeypatch,
                                              capsys):
        """The end-to-end benchmark narrows an experiment by replacing its
        module's ``units`` with a filter; the serial path must run just
        those units, even though their ``seq`` values leave gaps."""
        from repro.experiments import fig06

        every_unit = fig06.units
        keep = ("fig06:lo64-read_and_compare", "fig06:lo128-read_and_compare")

        def subset(*args, **kwargs):
            return [u for u in every_unit(*args, **kwargs) if u.key in keep]

        monkeypatch.setattr(fig06, "units", subset)
        assert [u.seq for u in fig06.units()] == [0, 2]
        out = tmp_path / "subset.md"
        assert main(["fig06", "--jobs", "1", "--out", str(out)]) == 0
        rows = [
            line.split()[:2] for line in out.read_text().splitlines()
            if line[:1].isdigit()
        ]
        assert rows == [["64.000", "read_and_compare"],
                        ["128.000", "read_and_compare"]]

    def test_verbose_and_quiet_flags_accepted(self, capsys):
        assert main(["fig06", "--verbose"]) == 0
        assert main(["fig06", "--quiet"]) == 0
        # The result table still prints in quiet mode.
        assert "min_write_interval_ms" in capsys.readouterr().out

    def test_verbose_and_quiet_conflict(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig06", "--verbose", "--quiet"])


class TestObservabilityCli:
    def test_trace_file_is_schema_valid(self, tmp_path, capsys):
        trace_path = str(tmp_path / "t.jsonl")
        assert main(["fig06", "--trace", trace_path]) == 0
        records = list(obs.read_trace(trace_path))  # validates every record
        kinds = [r["kind"] for r in records]
        assert kinds[0] == "run_started"
        assert kinds[-1] == "run_finished"
        assert "experiment_started" in kinds
        assert "experiment_finished" in kinds
        finished = next(r for r in records if r["kind"] == "experiment_finished")
        assert finished["experiment"] == "fig06"
        assert finished["wall_s"] >= 0.0

    def test_trace_sink_uninstalled_after_run(self, tmp_path, capsys):
        assert obs.get_sink() is None
        main(["fig06", "--trace", str(tmp_path / "t.jsonl")])
        assert obs.get_sink() is None

    def test_metrics_snapshot_written(self, tmp_path, capsys):
        metrics_path = str(tmp_path / "m.json")
        assert main(["fig14", "--metrics", metrics_path]) == 0
        snapshot = json.loads((tmp_path / "m.json").read_text())
        assert set(snapshot) == {"counters", "gauges", "histograms"}
        # fig14 runs the MEMCON accounting model over real traces.
        assert snapshot["counters"]["memcon.tests_started"] > 0

    def test_metrics_registry_restored_after_run(self, tmp_path, capsys):
        before = obs.get_registry()
        main(["fig06", "--metrics", str(tmp_path / "m.json")])
        assert obs.get_registry() is before

    def test_manifest_written_next_to_out(self, tmp_path, capsys):
        out_path = tmp_path / "results.md"
        assert main(["fig06", "--out", str(out_path)]) == 0
        manifest = obs.load_manifest(str(tmp_path / "results.manifest.json"))
        assert manifest["experiments"] == ["fig06"]
        assert manifest["seed"] == 1
        assert manifest["quick"] is True
        assert manifest["timings"][0]["name"] == "fig06"
        assert manifest["spans"]["children"][0]["name"] == "fig06"

    def test_manifest_derived_from_metrics_path(self, tmp_path, capsys):
        assert main(["fig06", "--metrics", str(tmp_path / "m.json")]) == 0
        manifest = obs.load_manifest(str(tmp_path / "m.manifest.json"))
        assert manifest["metrics"]["counters"] is not None

    def test_manifest_explicit_path(self, tmp_path, capsys):
        target = tmp_path / "custom.json"
        assert main(["fig06", "--manifest", str(target)]) == 0
        assert obs.load_manifest(str(target))["experiments"] == ["fig06"]

    def test_no_flags_means_no_files(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["fig06"]) == 0
        assert list(tmp_path.iterdir()) == []

    def test_trace_and_report_round_trip(self, tmp_path, capsys):
        trace_path = str(tmp_path / "t.jsonl")
        manifest_path = str(tmp_path / "run.json")
        assert main(["fig06", "--trace", trace_path,
                     "--manifest", manifest_path]) == 0
        capsys.readouterr()
        from repro.obs.report import main as report_main

        assert report_main([trace_path, "--manifest", manifest_path]) == 0
        out = capsys.readouterr().out
        assert "trace summary" in out
        assert "run manifest" in out
        assert "fig06" in out


class TestAnalyticsCli:
    def test_traced_run_stores_timeseries_in_manifest(self, tmp_path, capsys):
        trace_path = str(tmp_path / "t.jsonl")
        manifest_path = str(tmp_path / "run.json")
        assert main(["fig14", "--trace", trace_path,
                     "--manifest", manifest_path]) == 0
        manifest = obs.load_manifest(manifest_path)
        timeseries = manifest["timeseries"]
        assert timeseries["window_ms"] == 1024.0
        assert timeseries["events_total"] > 0
        # fig14 runs MEMCON over real traces: test outcomes and ref
        # populations must show up in the windows.
        assert any(w["tests"]["started"] for w in timeseries["windows"])
        assert any(w["ref"] for w in timeseries["windows"])
        # The stored rollups match an offline re-aggregation of the file.
        offline = obs.aggregate_trace(
            obs.read_trace(trace_path), window_ms=1024.0
        )
        assert offline == timeseries

    def test_window_ms_flag_controls_rollup_width(self, tmp_path, capsys):
        manifest_path = str(tmp_path / "run.json")
        assert main(["fig06", "--trace", str(tmp_path / "t.jsonl"),
                     "--manifest", manifest_path,
                     "--window-ms", "512"]) == 0
        manifest = obs.load_manifest(manifest_path)
        assert manifest["timeseries"]["window_ms"] == 512.0
        assert manifest["config"]["window_ms"] == 512.0

    def test_untraced_run_has_no_timeseries(self, tmp_path, capsys):
        manifest_path = str(tmp_path / "run.json")
        assert main(["fig06", "--manifest", manifest_path]) == 0
        assert obs.load_manifest(manifest_path)["timeseries"] is None

    def test_live_prints_status_lines(self, tmp_path, capsys):
        # interval throttling is wall-clock; the close() summary line is
        # the deterministic part of the contract.
        assert main(["fig06", "--live"]) == 0
        err = capsys.readouterr().err
        assert "[live]" in err
        assert "tests outstanding" in err

    def test_live_without_trace_leaves_no_files(self, tmp_path, capsys,
                                                monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["fig06", "--live"]) == 0
        assert list(tmp_path.iterdir()) == []
        assert obs.get_sink() is None

    def test_report_timeseries_from_manifest(self, tmp_path, capsys):
        trace_path = str(tmp_path / "t.jsonl")
        manifest_path = str(tmp_path / "run.json")
        assert main(["fig14", "--trace", trace_path,
                     "--manifest", manifest_path]) == 0
        capsys.readouterr()
        from repro.obs.report import main as report_main

        assert report_main(["--manifest", manifest_path,
                            "--timeseries"]) == 0
        out = capsys.readouterr().out
        assert "time series" in out
        assert "lo%" in out

    def test_report_timeseries_recomputed_from_trace(self, tmp_path, capsys):
        trace_path = str(tmp_path / "t.jsonl")
        assert main(["fig14", "--trace", trace_path]) == 0
        capsys.readouterr()
        from repro.obs.report import main as report_main

        assert report_main([trace_path, "--timeseries"]) == 0
        assert "time series" in capsys.readouterr().out

    def test_report_timeseries_needs_a_source(self, tmp_path, capsys):
        manifest_path = str(tmp_path / "run.json")
        assert main(["fig06", "--manifest", manifest_path]) == 0
        capsys.readouterr()
        from repro.obs.report import main as report_main

        with pytest.raises(SystemExit):
            report_main(["--manifest", manifest_path, "--timeseries"])


class TestParallelCli:
    def test_nested_output_directories_created(self, tmp_path, capsys):
        out = tmp_path / "a" / "b" / "results.md"
        trace = tmp_path / "c" / "t.jsonl"
        manifest = tmp_path / "d" / "e" / "run.json"
        assert main(["fig06", "--out", str(out), "--trace", str(trace),
                     "--manifest", str(manifest)]) == 0
        assert out.exists() and trace.exists() and manifest.exists()

    def test_jobs_flag_produces_identical_table(self, tmp_path, capsys):
        serial = tmp_path / "serial.md"
        sharded = tmp_path / "sharded.md"
        assert main(["fig06", "--out", str(serial)]) == 0
        assert main(["fig06", "--jobs", "2", "--out", str(sharded),
                     "--checkpoint", str(tmp_path / "c.jsonl")]) == 0
        assert sharded.read_text() == serial.read_text()

    def test_jobs_must_be_positive(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig06", "--jobs", "0"])

    def test_serial_manifest_has_no_workers(self, tmp_path, capsys):
        manifest = tmp_path / "run.json"
        assert main(["fig06", "--manifest", str(manifest)]) == 0
        assert obs.load_manifest(str(manifest))["workers"] is None

    def test_sharded_manifest_records_topology(self, tmp_path, capsys):
        manifest = tmp_path / "run.json"
        assert main(["fig06", "--jobs", "2", "--manifest", str(manifest),
                     "--checkpoint", str(tmp_path / "c.jsonl")]) == 0
        workers = obs.load_manifest(str(manifest))["workers"]
        assert workers["jobs"] == 2
        assert workers["stats"]["executed"] == 4
        assert sum(w["units"] for w in workers["workers"]) == 4

    def test_serial_and_sharded_manifests_compare_clean(self, tmp_path,
                                                        capsys):
        """Without --metrics neither manifest records a registry snapshot,
        so the two compare with nothing missing; with it both carry one."""
        from repro.obs.compare import main as compare_main

        def run(label, *extra):
            manifest = tmp_path / label / "m.json"
            assert main(["fig07", "--manifest", str(manifest),
                         "--checkpoint", str(tmp_path / label / "c.jsonl"),
                         *extra]) == 0
            return str(manifest)

        serial, sharded = run("serial"), run("sharded", "--jobs", "2")
        capsys.readouterr()
        assert compare_main([serial, sharded, "--threshold", "0.50",
                             "--warn-only"]) == 0
        assert capsys.readouterr().out.rstrip().endswith(", 0 missing")
        for manifest in (serial, sharded):
            assert obs.load_manifest(manifest)["metrics"] is None

        metered = [
            run(label, "--metrics", str(tmp_path / label / "metrics.json"),
                *extra)
            for label, extra in (("m-serial", ()),
                                 ("m-sharded", ("--jobs", "2")))
        ]
        for manifest in metered:
            snapshot = obs.load_manifest(manifest)["metrics"]
            assert set(snapshot) == {"counters", "gauges", "histograms"}

    def test_default_checkpoint_lands_next_to_out(self, tmp_path, capsys):
        out = tmp_path / "results.md"
        assert main(["fig06", "--jobs", "2", "--out", str(out)]) == 0
        assert (tmp_path / "results.checkpoint.jsonl").exists()

    def test_serial_run_writes_no_checkpoint(self, tmp_path, capsys,
                                             monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["fig06"]) == 0
        assert list(tmp_path.iterdir()) == []


class TestProfilingCli:
    def test_profile_records_manifest_section(self, tmp_path, capsys):
        manifest = tmp_path / "run.json"
        assert main(["fig06", "--profile", "--profile-interval-ms", "1",
                     "--manifest", str(manifest)]) == 0
        profile = obs.load_manifest(str(manifest))["profile"]
        assert profile is not None
        assert profile["sample_count"] >= 0
        assert 0.0 <= profile["attributed_fraction"] <= 1.0
        assert profile["interval_s"] == pytest.approx(0.001)
        # Samples land on the runner's named spans (root "run").
        assert all(s == "(no-collector)" or s.split(";")[0] == "run"
                   for s in profile["stacks"])

    def test_profile_out_writes_collapsed_stacks(self, tmp_path, capsys):
        stacks = tmp_path / "stacks.txt"
        assert main(["fig06", "--profile",
                     "--profile-interval-ms", "1",
                     "--profile-out", str(stacks),
                     "--manifest", str(tmp_path / "run.json")]) == 0
        for line in stacks.read_text().splitlines():
            stack, count = line.rsplit(" ", 1)
            assert stack
            assert int(count) > 0

    def test_unprofiled_manifest_has_no_profile(self, tmp_path, capsys):
        manifest = tmp_path / "run.json"
        assert main(["fig06", "--manifest", str(manifest)]) == 0
        assert obs.load_manifest(str(manifest))["profile"] is None

    def test_sharded_run_records_worker_rows(self, tmp_path, capsys):
        manifest = tmp_path / "run.json"
        assert main(["fig06", "--jobs", "2",
                     "--manifest", str(manifest),
                     "--checkpoint", str(tmp_path / "c.jsonl")]) == 0
        rows = obs.load_manifest(str(manifest))["workers"]["workers"]
        assert sum(r["units"] for r in rows) == 4
        intervals = [iv for r in rows for iv in r["timeline"]]
        assert len(intervals) == 4
        assert {iv["experiment"] for iv in intervals} == {"fig06"}
        assert all(iv["t_start"] <= iv["t_end"] for iv in intervals)
        assert all(r["rss_peak_bytes"] > 0 for r in rows)

    def test_live_sharded_run_prints_worker_rows(self, tmp_path, capsys):
        manifest = tmp_path / "run.json"
        assert main(["fig06", "--jobs", "2", "--live",
                     "--manifest", str(manifest),
                     "--checkpoint", str(tmp_path / "c.jsonl")]) == 0
        err = capsys.readouterr().err
        assert "  worker-g1-" in err
        # Worker events reach the parent's aggregator, as in a serial run.
        status = [line for line in err.splitlines()
                  if line.startswith("[live]")]
        assert status and all("events" in line for line in status)
        assert "experiments 1/1" in status[-1]
        rows = obs.load_manifest(str(manifest))["workers"]["workers"]
        assert sum(r["units"] for r in rows) == 4

    def test_serial_live_run_has_no_telemetry(self, tmp_path, capsys):
        manifest = tmp_path / "run.json"
        assert main(["fig06", "--live", "--manifest", str(manifest)]) == 0
        assert obs.load_manifest(str(manifest))["workers"] is None
        status = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("[live]")]
        assert status and all("events" in line for line in status)


class TestForensicsCli:
    """--forensics: ledger extraction, gate hygiene, and the two identity
    guarantees (tables unchanged; serial == sharded ledger)."""

    @pytest.fixture(scope="class")
    def forensic_runs(self, tmp_path_factory):
        """fig04 fig18 three ways: plain, forensics serial, forensics
        --jobs 2. fig04 evaluates the fault predicate (predicate_eval);
        fig18 runs MEMCON's accounting pass (pril_grant)."""
        root = tmp_path_factory.mktemp("forensics")

        def run(label, *extra):
            out = root / label / "t.md"
            manifest = root / label / "m.json"
            assert main([
                "fig04", "fig18", "--out", str(out),
                "--manifest", str(manifest), *extra,
            ]) == 0
            return out, manifest

        plain = run("plain")
        serial = run("serial", "--forensics")
        jobs = run("jobs", "--forensics", "--jobs", "2")
        return {"plain": plain, "serial": serial, "jobs": jobs}

    def test_tables_identical_with_and_without_forensics(self, forensic_runs):
        plain_out, _ = forensic_runs["plain"]
        serial_out, _ = forensic_runs["serial"]
        assert plain_out.read_bytes() == serial_out.read_bytes()

    def test_ledger_serial_vs_jobs_byte_identical(self, forensic_runs):
        serial_out, _ = forensic_runs["serial"]
        jobs_out, _ = forensic_runs["jobs"]
        serial_ledger = serial_out.parent / "t.trace.forensics.jsonl"
        jobs_ledger = jobs_out.parent / "t.trace.forensics.jsonl"
        assert serial_ledger.read_bytes() == jobs_ledger.read_bytes()
        assert serial_out.read_bytes() == jobs_out.read_bytes()

    def test_manifest_census_and_ledger_file(self, forensic_runs):
        serial_out, manifest_path = forensic_runs["serial"]
        manifest = json.loads(manifest_path.read_text())
        census = manifest["forensics"]
        assert census["records"] > 0
        assert census["kinds"].get("predicate_eval", 0) > 0
        assert census["kinds"].get("pril_grant", 0) > 0
        assert census["rows"] > 0
        ledger = serial_out.parent / "t.trace.forensics.jsonl"
        assert str(ledger) == census["ledger_path"]
        records = list(obs.read_trace(str(ledger), validate=False))
        assert len(records) == census["records"]
        assert manifest["config"]["forensics"] is True

    def test_plain_run_has_no_forensics(self, forensic_runs):
        plain_out, manifest_path = forensic_runs["plain"]
        manifest = json.loads(manifest_path.read_text())
        assert manifest["forensics"] is None
        assert manifest["config"]["forensics"] is False
        assert not (plain_out.parent / "t.trace.forensics.jsonl").exists()

    def test_forensics_implies_trace(self, tmp_path, capsys, caplog):
        out = tmp_path / "r.md"
        # The runner's "repro" logger does not propagate to the root
        # logger caplog listens on, so attach caplog's handler directly.
        runner_logger = logging.getLogger("repro.experiments.runner")
        runner_logger.addHandler(caplog.handler)
        try:
            assert main(["fig06", "--out", str(out), "--forensics"]) == 0
        finally:
            runner_logger.removeHandler(caplog.handler)
        trace = tmp_path / "r.trace.jsonl"
        assert trace.exists()
        assert (tmp_path / "r.trace.forensics.jsonl").exists()
        assert f"--forensics: tracing to {trace}" in caplog.messages

    def test_forensics_out_flag(self, tmp_path, capsys):
        out = tmp_path / "r.md"
        ledger = tmp_path / "deep" / "l.jsonl"
        assert main([
            "fig06", "--out", str(out), "--forensics",
            "--forensics-out", str(ledger),
        ]) == 0
        assert ledger.exists()
        manifest = json.loads((tmp_path / "r.manifest.json").read_text())
        assert manifest["forensics"]["ledger_path"] == str(ledger)

    def test_gate_restored_after_run(self, tmp_path, capsys):
        assert not obs.forensics_active()
        main(["fig06", "--out", str(tmp_path / "r.md"), "--forensics"])
        assert not obs.forensics_active()
