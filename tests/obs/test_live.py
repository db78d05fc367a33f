"""LiveReporter: throttled status lines over the shared aggregator."""

import io

import pytest

from repro import obs
from repro.obs.analytics import AggregatingSink
from repro.obs.live import LiveReporter


class FakeClock:
    def __init__(self, start=100.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def _rec(kind, **fields):
    record = {"v": obs.SCHEMA_VERSION, "kind": kind}
    record.update(fields)
    return record


def _reporter(interval_s=1.0):
    clock = FakeClock()
    stream = io.StringIO()
    aggregator = AggregatingSink()
    live = LiveReporter(aggregator, stream=stream,
                        interval_s=interval_s, clock=clock)
    return live, aggregator, stream, clock


class TestLiveReporter:
    __test__ = True

    def test_rejects_negative_interval(self):
        with pytest.raises(ValueError):
            LiveReporter(AggregatingSink(), interval_s=-1.0)

    def test_throttles_to_interval(self):
        live, aggregator, stream, clock = _reporter(interval_s=1.0)
        for _ in range(50):
            record = _rec("test_started", t_ms=0.0, page=1)
            aggregator.emit(record)
            live.emit(record)
        assert live.reports_written == 0  # clock never advanced
        clock.advance(1.5)
        record = _rec("test_passed", t_ms=64.0, page=1)
        aggregator.emit(record)
        live.emit(record)
        assert live.reports_written == 1
        assert stream.getvalue().count("[live]") == 1

    def test_status_line_reflects_aggregator_state(self):
        live, aggregator, stream, clock = _reporter()
        for record in (
            _rec("test_started", t_ms=0.0, page=7),
            _rec("ref_transition", t_ms=10.0, page=3,
                 **{"from": "hi_ref", "to": "lo_ref"}),
        ):
            aggregator.emit(record)
            live.emit(record)
        clock.advance(2.0)
        record = _rec("ref_transition", t_ms=20.0, page=4,
                      **{"from": "hi_ref", "to": "lo_ref"})
        aggregator.emit(record)
        live.emit(record)
        line = stream.getvalue()
        assert "3 events" in line
        assert "lo-ref rows 2" in line
        assert "tests outstanding 1" in line

    def test_experiment_progress_and_eta(self):
        live, aggregator, stream, clock = _reporter()
        for record in (
            _rec("run_started", experiments=["fig06", "fig09", "fig15"]),
            _rec("experiment_finished", name="fig06", wall_s=2.0),
        ):
            aggregator.emit(record)
            live.emit(record)
        clock.advance(4.0)
        record = _rec("experiment_finished", name="fig09", wall_s=2.0)
        aggregator.emit(record)
        live.emit(record)
        line = stream.getvalue()
        assert "experiments 2/3" in line
        # 2 done in 4s elapsed -> 1 remaining at ~2s/each.
        assert "eta 2s" in line

    def test_no_eta_before_first_experiment_finishes(self):
        """done == 0 guard: the eta extrapolation divides by the number
        of finished experiments, so the first status line must carry the
        progress counter but no eta (and must not crash)."""
        live, aggregator, stream, clock = _reporter(interval_s=0.0)
        clock.advance(1.0)
        record = _rec("run_started", experiments=["fig06", "fig09"])
        aggregator.emit(record)
        live.emit(record)
        line = stream.getvalue()
        assert "experiments 0/2" in line
        assert "eta" not in line

    def test_no_eta_when_all_experiments_done(self):
        live, aggregator, stream, clock = _reporter(interval_s=0.0)
        for record in (
            _rec("run_started", experiments=["fig06"]),
            _rec("experiment_finished", name="fig06", wall_s=1.0),
        ):
            aggregator.emit(record)
            live.emit(record)
        clock.advance(2.0)
        live.close()
        final = stream.getvalue().splitlines()[-1]
        assert "experiments 1/1" in final
        assert "eta" not in final

    def test_close_writes_final_line_even_when_throttled(self):
        live, aggregator, stream, clock = _reporter(interval_s=60.0)
        record = _rec("test_started", t_ms=0.0, page=0)
        aggregator.emit(record)
        live.emit(record)
        assert stream.getvalue() == ""
        live.close()
        assert stream.getvalue().count("[live]") == 1
        assert "1 events" in stream.getvalue()

    def test_defaults_to_stderr(self, capsys):
        clock = FakeClock()
        live = LiveReporter(AggregatingSink(), interval_s=0.0, clock=clock)
        clock.advance(1.0)
        live.emit(_rec("run_started", experiments=["fig06"]))
        assert "[live]" in capsys.readouterr().err


class TestBatch:
    __test__ = True

    def test_batch_tracks_progress_and_repaints_at_most_once(self):
        live, aggregator, stream, clock = _reporter(interval_s=0.0)
        reads = []

        def counting_clock():
            reads.append(True)
            return clock()

        live._clock = counting_clock
        clock.advance(5.0)
        batch = [
            _rec("run_started", experiments=["fig14", "fig17", "fig18"]),
            _rec("test_started", t_ms=0.0, page=1),
            _rec("experiment_finished", experiment="fig14", wall_s=1.0),
            _rec("test_passed", t_ms=64.0, page=1),
            _rec("experiment_finished", experiment="fig17", wall_s=1.0),
        ]
        aggregator.emit_many(batch)
        live.emit_many(batch)
        assert live._experiments_done == 2
        assert live.reports_written == 1
        assert len(reads) == 1  # one clock read for the whole batch
        assert "experiments 2/3" in stream.getvalue()

    def test_tee_delivers_the_batch_whole(self):
        live, aggregator, stream, clock = _reporter(interval_s=0.0)
        clock.advance(5.0)
        tee = obs.TeeSink(aggregator, live)
        tee.emit_many([
            _rec("run_started", experiments=["fig14", "fig17"]),
            _rec("experiment_finished", experiment="fig14", wall_s=1.0),
            _rec("experiment_finished", experiment="fig17", wall_s=1.0),
        ])
        assert live.reports_written == 1
        line = stream.getvalue()
        assert "3 events" in line and "experiments 2/2" in line


    def test_runner_tee_builds_no_record_of_a_verdict_batch(self, tmp_path):
        from repro.core import MemconConfig, simulate_refresh_reduction
        from repro.traces.events import WriteTrace

        batches = []

        class Keep:
            def emit_many(self, records):
                batches.append(records)

        trace = WriteTrace(
            duration_ms=8192.0, total_pages=8, name="live-tee",
            writes={page: [100.0 * page + 5.0] for page in range(6)},
        )
        previous = obs.set_sink(Keep())
        try:
            simulate_refresh_reduction(trace, MemconConfig(quantum_ms=1024.0))
        finally:
            obs.set_sink(previous)
        (batch,) = batches
        assert isinstance(batch, obs.RecordBatch) and len(batch)
        live, aggregator, stream, clock = _reporter(interval_s=0.0)
        jsonl = obs.JsonlTraceSink(str(tmp_path / "trace.jsonl"))
        ledger = obs.LedgerSink(str(tmp_path / "trace.forensics.jsonl"))
        tee = obs.TeeSink(jsonl, aggregator, live, ledger)
        tee.emit_many(batch)
        tee.close()
        assert batch._records is None
        assert aggregator.events_total == len(batch)
        assert jsonl.records_emitted == len(batch)
        assert live.reports_written == 2  # one repaint, one final line


class TestZeroExperiments:
    __test__ = True

    def test_final_line_shows_zero_of_zero(self):
        """A run that matched no experiments still closes with an
        explicit "experiments 0/0" so the operator sees the run was
        empty rather than silent."""
        live, aggregator, stream, clock = _reporter(interval_s=0.0)
        record = _rec("run_started", experiments=[])
        aggregator.emit(record)
        live.emit(record)
        clock.advance(1.0)
        live.close()
        final = stream.getvalue().splitlines()[-1]
        assert "experiments 0/0" in final
        assert "eta" not in final

    def test_missing_experiment_list_stays_unknown(self):
        live, aggregator, stream, clock = _reporter(interval_s=0.0)
        record = _rec("run_started")
        aggregator.emit(record)
        live.emit(record)
        clock.advance(1.0)
        live.close()
        assert "experiments" not in stream.getvalue()


class TestTick:
    __test__ = True

    def test_tick_repaints_without_a_record(self):
        live, aggregator, stream, clock = _reporter(interval_s=1.0)
        live.tick()
        assert live.reports_written == 0  # throttled
        clock.advance(1.5)
        live.tick()
        assert live.reports_written == 1
        assert "[live]" in stream.getvalue()


class TestWidthHandling:
    __test__ = True

    def test_non_tty_stream_is_never_clipped(self):
        """Pipes, CI redirects and test buffers get full lines; only a
        real terminal is clipped to its width."""
        live, aggregator, stream, clock = _reporter(interval_s=0.0)
        clock.advance(1.0)
        record = _rec(
            "run_started",
            experiments=[f"fig{i:02d}" for i in range(40)],
        )
        aggregator.emit(record)
        live.emit(record)
        line = stream.getvalue().splitlines()[0]
        assert "experiments 0/40" in line  # nothing truncated

    def test_tty_clips_to_terminal_width(self):
        class FakeTty(io.StringIO):
            def isatty(self):
                return True

            def fileno(self):
                raise ValueError("no real fd")  # -> FALLBACK_COLUMNS

        from repro.obs.live import FALLBACK_COLUMNS

        clock = FakeClock()
        stream = FakeTty()
        aggregator = AggregatingSink()
        live = LiveReporter(aggregator, stream=stream, interval_s=0.0,
                            clock=clock)
        clock.advance(1.0)
        record = _rec(
            "run_started",
            experiments=[f"fig{i:02d}" for i in range(40)],
        )
        aggregator.emit(record)
        live.emit(record)
        for line in stream.getvalue().splitlines():
            assert len(line) <= FALLBACK_COLUMNS


class TestWorkerRows:
    __test__ = True

    def test_repaint_appends_worker_rows(self):
        clock = FakeClock()
        stream = io.StringIO()
        live = LiveReporter(AggregatingSink(), stream=stream, interval_s=0.0,
                            clock=clock)
        clock.advance(1.0)
        live.show_workers([{
            "shard": "worker-g1-1", "units": 2, "rss_peak_bytes": 64 << 20,
            "timeline": [
                {"experiment": "fig04", "unit": "scan-0"},
                {"experiment": "fig04", "unit": "scan-1"},
            ],
        }])
        lines = stream.getvalue().splitlines()
        assert lines[0].startswith("[live]")
        assert lines[1] == (
            "  worker-g1-1: units 2 | last fig04/scan-1 | rss 64MB"
        )
