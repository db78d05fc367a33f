"""Run manifests and the `python -m repro.obs.report` renderer."""

import json

import pytest

from repro.obs import (
    MANIFEST_SCHEMA_VERSION,
    RunManifest,
    git_revision,
    load_manifest,
)
from repro.obs.report import main as report_main


class TestRunManifest:
    def test_start_prefills_environment(self):
        manifest = RunManifest.start(["fig06"], seed=3, quick=True)
        assert manifest.experiments == ["fig06"]
        assert manifest.seed == 3
        assert manifest.python.count(".") >= 1
        assert manifest.platform_tag

    def test_write_and_load_round_trip(self, tmp_path):
        manifest = RunManifest.start(["fig06", "fig14"], seed=1, quick=False,
                                     config={"out": "r.md"})
        manifest.add_timing("fig06", 0.5)
        manifest.add_timing("fig14", 1.5, workloads=12)
        manifest.wall_s = 2.0
        manifest.metrics = {"counters": {"memcon.tests_started": 7}}
        path = str(tmp_path / "run.manifest.json")
        manifest.write(path)
        loaded = load_manifest(path)
        assert loaded["schema"] == MANIFEST_SCHEMA_VERSION
        assert loaded["experiments"] == ["fig06", "fig14"]
        assert loaded["quick"] is False
        assert loaded["config"] == {"out": "r.md"}
        assert loaded["timings"][1] == {
            "name": "fig14", "wall_s": 1.5, "workloads": 12,
        }
        assert loaded["metrics"]["counters"]["memcon.tests_started"] == 7

    def test_load_rejects_non_manifest(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"schema": 99}')
        with pytest.raises(ValueError):
            load_manifest(str(path))

    def test_git_revision_in_repo(self):
        # The test suite runs from the repository, so this must resolve.
        rev = git_revision()
        assert rev is None or (len(rev) == 40 and set(rev) <= set("0123456789abcdef"))

    def test_git_revision_outside_repo(self, tmp_path):
        assert git_revision(cwd=str(tmp_path)) is None


class TestReportCli:
    def _write_trace(self, tmp_path):
        path = tmp_path / "t.jsonl"
        records = [
            {"v": 1, "kind": "test_started", "t_ms": 0.0, "page": 1},
            {"v": 1, "kind": "test_started", "t_ms": 0.0, "page": 2},
            {"v": 1, "kind": "test_passed", "t_ms": 64.0, "page": 1},
            {"v": 1, "kind": "test_failed", "t_ms": 64.0, "page": 2},
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        return str(path)

    def test_trace_summary(self, tmp_path, capsys):
        assert report_main([self._write_trace(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "4 events" in out
        assert "test_started" in out
        # started (2) reconciles with aborted+passed+failed (0+1+1).
        assert "2 started = 0 aborted + 1 passed + 1 failed" in out
        assert "OK" in out
        assert "MISMATCH" not in out

    def test_trace_lifecycle_mismatch_verdict(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        path.write_text(
            '{"v": 1, "kind": "test_started", "t_ms": 0.0, "page": 1}\n'
        )
        report_main([str(path)])
        out = capsys.readouterr().out
        assert "MISMATCH" in out

    def test_manifest_summary(self, tmp_path, capsys):
        manifest = RunManifest.start(["fig06"], seed=1, quick=True)
        manifest.add_timing("fig06", 0.123)
        manifest.spans = {
            "name": "run", "elapsed_s": 0.2, "count": 1,
            "children": [
                {"name": "fig06", "elapsed_s": 0.1, "count": 1, "children": []},
            ],
        }
        manifest.metrics = {"counters": {"memcon.tests_started": 3}}
        path = str(tmp_path / "m.json")
        manifest.write(path)
        assert report_main(["--manifest", path]) == 0
        out = capsys.readouterr().out
        assert "fig06" in out
        assert "memcon.tests_started" in out
        assert "0.123s" in out

    def test_requires_an_input(self, capsys):
        with pytest.raises(SystemExit):
            report_main([])

    def test_invalid_trace_fails_loudly(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"v": 1, "kind": "bogus"}\n')
        from repro.obs import TraceSchemaError

        with pytest.raises(TraceSchemaError):
            report_main([str(path)])


class TestProfileWorkersRoundTrip:
    """Manifest fields: "profile" and the worker rows under "workers"."""

    def _manifest(self):
        manifest = RunManifest.start(["fig15"], seed=7, quick=True)
        manifest.profile = {
            "interval_s": 0.005, "wall_s": 3.0, "sample_count": 600,
            "attributed_fraction": 0.95, "rss_peak_bytes": 96 << 20,
            "stacks": {"run;fig15;sim.run": 570, "run": 30},
        }
        manifest.workers = {
            "jobs": 2, "start_method": "fork",
            "stats": {"executed": 8, "retried": 0, "workers_lost": 0},
            "workers": [{
                "shard": "worker-g1-1", "units": 4,
                "rss_peak_bytes": 80 << 20,
                "timeline": [{
                    "experiment": "fig15", "unit": "u3", "seq": 3,
                    "t_start": 1.0, "t_end": 9.0, "wall_s": 8.0,
                }],
            }],
        }
        return manifest

    def test_load_manifest_round_trip(self, tmp_path):
        manifest = self._manifest()
        path = str(tmp_path / "m.json")
        manifest.write(path)
        assert load_manifest(path) == manifest.to_dict()

    def test_report_tolerates_pre_profile_manifests(self, tmp_path, capsys):
        data = self._manifest().to_dict()
        del data["profile"]
        del data["workers"]
        path = tmp_path / "m.json"
        path.write_text(json.dumps(data))
        assert report_main(["--manifest", str(path)]) == 0
        out = capsys.readouterr().out
        assert "samples" not in out
        assert "workers:" not in out

    def test_file_round_trip(self, tmp_path):
        manifest = self._manifest()
        path = str(tmp_path / "m.json")
        manifest.write(path)
        loaded = load_manifest(path)
        assert loaded["profile"]["sample_count"] == 600
        assert loaded["workers"]["workers"][0]["timeline"][0]["unit"] == "u3"

    def test_report_renders_profile_and_workers(self, tmp_path, capsys):
        path = str(tmp_path / "m.json")
        self._manifest().write(path)
        assert report_main(["--manifest", path]) == 0
        out = capsys.readouterr().out
        assert "600 samples" in out
        assert "95.0% attributed" in out
        assert "run;fig15;sim.run" in out
        assert "workers: jobs 2 (fork)" in out
        assert "worker-g1-1" in out
        assert "80MB" in out
        assert "workers_lost 0" in out


class TestForensicsRoundTrip:
    """The manifest's "forensics" census field and its report block."""

    def _manifest(self):
        manifest = RunManifest.start(["fig04", "fig18"], seed=3, quick=True)
        manifest.forensics = {
            "records": 42, "rows": 7,
            "kinds": {"predicate_eval": 5, "pril_grant": 30,
                      "test_started": 7},
            "ledger_path": "run.forensics.jsonl",
        }
        return manifest

    def test_load_manifest_round_trip(self, tmp_path):
        manifest = self._manifest()
        path = str(tmp_path / "m.json")
        manifest.write(path)
        assert load_manifest(path)["forensics"] == manifest.forensics

    def test_report_tolerates_pre_forensics_manifests(self, tmp_path, capsys):
        data = self._manifest().to_dict()
        del data["forensics"]
        path = tmp_path / "m.json"
        path.write_text(json.dumps(data))
        assert report_main(["--manifest", str(path)]) == 0
        assert "forensics" not in capsys.readouterr().out

    def test_report_renders_census(self, tmp_path, capsys):
        path = str(tmp_path / "m.json")
        self._manifest().write(path)
        assert report_main(["--manifest", path]) == 0
        out = capsys.readouterr().out
        assert "forensics: 42 ledger records across 7 rows" in out
        assert "run.forensics.jsonl" in out

    def test_report_silent_without_census(self, tmp_path, capsys):
        manifest = RunManifest.start(["fig04", "fig18"], seed=3, quick=True)
        path = str(tmp_path / "m.json")
        manifest.write(path)
        assert report_main(["--manifest", path]) == 0
        assert "forensics" not in capsys.readouterr().out
