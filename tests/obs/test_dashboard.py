"""Static HTML dashboard: section rendering, fallbacks, the CLI."""

import json

import pytest

from repro.obs.dashboard import main, render_dashboard


def _manifest(**overrides):
    data = {
        "schema": 1,
        "experiments": ["fig14"],
        "seed": 42,
        "quick": True,
        "config": {"jobs": 2},
        "git_rev": "abcdef1234567890",
        "python": "3.12.0",
        "platform": "Linux",
        "wall_s": 12.5,
        "timings": [{"name": "fig14", "wall_s": 12.0}],
        "spans": {
            "name": "run", "elapsed_s": 12.5, "count": 1,
            "children": [
                {"name": "fig14", "elapsed_s": 12.0, "count": 1,
                 "children": []},
            ],
        },
        "metrics": None,
        "timeseries": None,
        "trace_path": None,
        "workers": None,
    }
    data.update(overrides)
    return data


def _window(t_ms, ref=True, tests=(3, 2, 1, 0), mc=False):
    started, passed, failed, aborted = tests
    w = {
        "index": int(t_ms // 1024),
        "t_ms": t_ms,
        "tests": {"started": started, "passed": passed,
                  "failed": failed, "aborted": aborted},
        "ref": None,
        "mc": None,
    }
    if ref:
        w["ref"] = {
            "lo_rows": 10, "testing_rows": 2, "total_rows": 64,
            "lo_fraction": 10 / 64, "testing_fraction": 2 / 64,
            "hi_fraction": 52 / 64,
        }
    if mc:
        w["mc"] = {
            "requests": 100, "refreshes": 4, "refresh_per_s": 2.0,
            "latency_mean_ns": 120.0, "latency_p50_ns": 100.0,
            "latency_p95_ns": 300.0, "latency_p99_ns": 700.0,
        }
    return w


def _timeseries(n_windows=4, **window_kwargs):
    return {
        "window_ms": 1024.0,
        "events_total": 6 * n_windows,
        "kinds": {"test_started": 3 * n_windows,
                  "ref_transition": 2 * n_windows},
        "windows": [
            _window(1024.0 * i, **window_kwargs) for i in range(n_windows)
        ],
        "pril": [],
        "energy": None,
    }


def _worker_rows():
    return [
        {
            "shard": "worker-g1-1", "units": 2, "rss_peak_bytes": 64 << 20,
            "timeline": [
                {"experiment": "fig14", "unit": "scan-0", "seq": 0,
                 "t_start": 1000.0, "t_end": 1002.0, "wall_s": 2.0},
                {"experiment": "fig14", "unit": "scan-1", "seq": 1,
                 "t_start": 1002.0, "t_end": 1004.0, "wall_s": 2.0},
            ],
        },
        {
            "shard": "worker-g1-2", "units": 1, "rss_peak_bytes": 80 << 20,
            "timeline": [
                {"experiment": "fig14", "unit": "scan-2", "seq": 2,
                 "t_start": 1000.5, "t_end": 1003.5, "wall_s": 3.0},
            ],
        },
    ]


class TestRenderDashboard:
    __test__ = True

    def test_minimal_manifest_renders_standalone_page(self):
        html = render_dashboard(_manifest())
        assert html.startswith("<!DOCTYPE html>")
        assert "<script" not in html
        assert "fig14" in html
        # The flame view renders from the span tree.
        assert "Where the time went" in html
        assert html.count("<svg") >= 1

    def test_timeseries_sections(self):
        html = render_dashboard(
            _manifest(timeseries=_timeseries(mc=True))
        )
        assert "LO-REF coverage" in html
        assert "Test outcomes" in html
        assert "Request latency percentiles" in html
        assert "Disturb pressure" not in html
        assert html.count("<svg") >= 3
        # Every chart keeps a no-JS data-table fallback.
        assert "Data table" in html

    def test_lifecycle_only_trace_falls_back_to_event_census(self):
        timeseries = _timeseries(n_windows=0)
        html = render_dashboard(_manifest(timeseries=timeseries))
        assert "Event census" in html
        assert "test_started" in html

    def test_worker_timeline_gantt(self):
        workers = {
            "jobs": 2, "start_method": "fork",
            "stats": {"executed": 3, "retried": 0},
            "workers": _worker_rows(),
        }
        html = render_dashboard(_manifest(workers=workers))
        assert "Worker timeline" in html
        assert "worker-g1-1" in html
        assert "scan-0" in html  # interval tooltip
        assert "<th>worker</th><th>units</th><th>rss peak</th>" in html
        assert "<td>worker-g1-2</td><td>1</td><td>80 MB</td>" in html

    def test_bench_sparklines(self):
        bench = {"BENCH_obs.json": {
            "faultmap_scan": {
                "wall_s": 1.0, "jobs": 1, "recorded_at": "2026-01-01",
                "history": [{"wall_s": 1.4}, {"wall_s": 1.2}],
            },
        }}
        html = render_dashboard(_manifest(), bench_files=bench)
        assert "Benchmark trajectories" in html
        assert "faultmap_scan.wall_s" in html

    def test_single_history_entry_yields_no_sparkline(self):
        bench = {"BENCH_obs.json": {
            "lonely": {"wall_s": 1.0, "history": []},
        }}
        html = render_dashboard(_manifest(), bench_files=bench)
        assert "lonely" not in html

    def test_text_is_escaped(self):
        html = render_dashboard(
            _manifest(experiments=["<script>alert(1)</script>"])
        )
        assert "<script>alert" not in html


class TestCli:
    __test__ = True

    def _write_manifest(self, tmp_path, **overrides):
        path = tmp_path / "run.manifest.json"
        path.write_text(json.dumps(_manifest(**overrides)))
        return path

    def test_renders_next_to_manifest(self, tmp_path, capsys):
        path = self._write_manifest(
            tmp_path, timeseries=_timeseries(mc=True))
        assert main([str(path)]) == 0
        out = tmp_path / "run.manifest.html"
        assert out.exists()
        assert "LO-REF coverage" in out.read_text()
        assert str(out) in capsys.readouterr().out

    def test_offline_aggregation_from_trace(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        records = [
            {"v": 1, "kind": "test_started", "t_ms": 10.0, "page": 1},
            {"v": 1, "kind": "test_passed", "t_ms": 80.0, "page": 1},
        ]
        trace.write_text(
            "".join(json.dumps(r) + "\n" for r in records))
        path = self._write_manifest(tmp_path)  # no stored timeseries
        out = tmp_path / "dash.html"
        assert main([str(path), str(trace), "--out", str(out)]) == 0
        assert "Test outcomes" in out.read_text()

    def test_bench_flag(self, tmp_path):
        bench = tmp_path / "BENCH_obs.json"
        bench.write_text(json.dumps({
            "scan": {"wall_s": 1.0, "history": [{"wall_s": 1.5}]},
        }))
        path = self._write_manifest(tmp_path)
        out = tmp_path / "dash.html"
        assert main([str(path), "--bench", str(bench),
                     "--out", str(out)]) == 0
        assert "scan.wall_s" in out.read_text()

    def test_unreadable_bench_is_warning_not_error(self, tmp_path, capsys):
        path = self._write_manifest(tmp_path)
        out = tmp_path / "dash.html"
        assert main([str(path), "--bench", str(tmp_path / "missing.json"),
                     "--out", str(out)]) == 0
        assert "skipping" in capsys.readouterr().err

    def test_rejects_non_manifest(self, tmp_path):
        bogus = tmp_path / "x.json"
        bogus.write_text("{}")
        with pytest.raises(ValueError):
            main([str(bogus)])


class TestHostileNames:
    """Every interpolated name must render inert: a unit named ``<b>x``
    (or worse) shows up as text, never as markup."""

    HOSTILE = '<script>alert(1)</script><b class="x">'

    def _assert_inert(self, html_text):
        assert "<script" not in html_text
        assert '<b class="x">' not in html_text
        assert "&lt;script&gt;" in html_text

    def test_hostile_experiment_name(self):
        html_text = render_dashboard(_manifest(experiments=[self.HOSTILE]))
        self._assert_inert(html_text)

    def test_hostile_worker_and_unit_names(self):
        rows = _worker_rows()
        worker = rows[0]
        worker["shard"] = self.HOSTILE
        worker["timeline"][0]["experiment"] = self.HOSTILE
        worker["timeline"][0]["unit"] = self.HOSTILE
        # Non-numeric junk in numeric columns must escape too (_fmt
        # falls through to str for non-numbers).
        worker["units"] = self.HOSTILE
        worker["rss_peak_bytes"] = 0
        html_text = render_dashboard(_manifest(workers={
            "jobs": 2, "start_method": self.HOSTILE,
            "stats": {}, "workers": rows,
        }))
        self._assert_inert(html_text)

    def test_hostile_profile_stack_names(self):
        # The span tree is the run's profile: a hostile name deep in a
        # stack (as a worker's unit span would arrive) renders inert.
        html_text = render_dashboard(_manifest(spans={
            "name": "run", "elapsed_s": 4.0, "count": 1,
            "children": [{
                "name": "fig14", "elapsed_s": 4.0, "count": 1,
                "children": [{
                    "name": self.HOSTILE, "elapsed_s": 4.0, "count": 4,
                    "children": [],
                }],
            }],
        }))
        self._assert_inert(html_text)

    def test_hostile_span_names(self):
        html_text = render_dashboard(_manifest(spans={
            "name": self.HOSTILE, "elapsed_s": 1.0, "count": 1,
            "children": [],
        }))
        self._assert_inert(html_text)

    def test_hostile_forensics_census(self):
        html_text = render_dashboard(_manifest(forensics={
            "records": 5, "rows": 2,
            "kinds": {self.HOSTILE: 5},
            "ledger_path": "l.jsonl",
        }))
        self._assert_inert(html_text)

    def test_hostile_timeseries_strings(self):
        # A hostile string in a window only the data table renders
        # (charts skip windows without ref/tests/mc data).
        timeseries = _timeseries()
        timeseries["windows"].append({
            "index": 99, "t_ms": self.HOSTILE,
            "tests": {"started": 0, "passed": 0, "failed": 0, "aborted": 0},
            "ref": None, "mc": None,
        })
        html_text = render_dashboard(
            _manifest(), timeseries=timeseries
        )
        self._assert_inert(html_text)


class TestForensicsSection:
    def test_census_rendered(self):
        html_text = render_dashboard(_manifest(forensics={
            "records": 631, "rows": 12,
            "kinds": {"predicate_eval": 5, "pril_grant": 600},
            "ledger_path": "run.forensics.jsonl",
        }))
        assert "Failure forensics" in html_text
        assert "predicate_eval" in html_text
        assert "repro.obs.why" in html_text
        assert "run.forensics.jsonl" in html_text

    def test_absent_without_census(self):
        assert "Failure forensics" not in render_dashboard(_manifest())

    def test_malformed_census_ignored(self):
        html_text = render_dashboard(_manifest(forensics=[1, 2]))
        assert "Failure forensics" not in html_text
