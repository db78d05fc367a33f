"""Streaming analytics: TeeSink fan-out and AggregatingSink rollups."""

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import MemconConfig, simulate_refresh_reduction
from repro.obs.analytics import (
    LATENCY_BUCKET_BOUNDS_NS,
    AggregatingSink,
    TeeSink,
    _percentile_from_buckets,
    aggregate_trace,
)
from repro.traces.events import WriteTrace
from tests.oracles.memcon import MemconController

V = obs.SCHEMA_VERSION


def _rec(kind, **fields):
    record = {"v": V, "kind": kind}
    record.update(fields)
    return record


class TestTeeSink:
    __test__ = True

    def test_fans_out_in_order(self):
        first, second = obs.ListTraceSink(), obs.ListTraceSink()
        tee = TeeSink(first, second)
        tee.emit(_rec("run_started", experiments=["fig06"]))
        tee.emit(_rec("run_finished", wall_s=1.0))
        assert [r["kind"] for r in first.records] == [
            "run_started", "run_finished"]
        assert first.records == second.records

    def test_needs_at_least_one_sink(self):
        with pytest.raises(ValueError):
            TeeSink()

    def test_close_closes_closable_children(self):
        stream = io.StringIO()
        jsonl = obs.JsonlTraceSink(stream)
        listsink = obs.ListTraceSink()  # has no close(); must not break
        tee = TeeSink(jsonl, listsink)
        tee.emit(_rec("run_finished", wall_s=0.5))
        tee.close()
        assert json.loads(stream.getvalue())["kind"] == "run_finished"

    def test_close_raises_first_error_but_closes_all(self):
        class Exploding:
            closed = False

            def emit(self, record):
                pass

            def close(self):
                self.closed = True
                raise RuntimeError("boom")

        a, b = Exploding(), Exploding()
        tee = TeeSink(a, b)
        with pytest.raises(RuntimeError):
            tee.close()
        assert a.closed and b.closed


class TestAggregatingSinkUnits:
    __test__ = True

    def test_rejects_bad_parameters(self):
        for window_ms in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                AggregatingSink(window_ms=window_ms)
        with pytest.raises(ValueError):
            AggregatingSink(total_pages=0)

    def test_ref_population_sampled_per_window(self):
        sink = AggregatingSink(window_ms=100.0, total_pages=4)
        sink.emit(_rec("ref_transition", t_ms=10.0, page=0,
                       **{"from": "hi_ref", "to": "lo_ref"}))
        sink.emit(_rec("ref_transition", t_ms=20.0, page=1,
                       **{"from": "hi_ref", "to": "testing"}))
        # Crossing into window 1 samples window 0's closing state.
        sink.emit(_rec("ref_transition", t_ms=150.0, page=1,
                       **{"from": "testing", "to": "hi_ref"}))
        rollup = sink.to_dict()
        by_index = {w["index"]: w for w in rollup["windows"]}
        assert by_index[0]["ref"] == {
            "lo_rows": 1, "testing_rows": 1, "total_rows": 4,
            "lo_fraction": 0.25, "testing_fraction": 0.25,
            "hi_fraction": 0.5,
        }
        # The in-progress window is sampled at to_dict() time.
        assert by_index[1]["ref"]["testing_rows"] == 0
        assert by_index[1]["ref"]["lo_rows"] == 1

    def test_live_counters_track_population(self):
        sink = AggregatingSink()
        assert sink.rows_lo == 0 and sink.tests_outstanding == 0
        sink.emit(_rec("test_started", t_ms=0.0, page=3))
        assert sink.tests_outstanding == 1
        sink.emit(_rec("ref_transition", t_ms=0.0, page=3,
                       **{"from": "hi_ref", "to": "testing"}))
        assert sink.rows_testing == 1
        sink.emit(_rec("test_passed", t_ms=64.0, page=3))
        sink.emit(_rec("ref_transition", t_ms=64.0, page=3,
                       **{"from": "testing", "to": "lo_ref"}))
        assert sink.tests_outstanding == 0
        assert sink.rows_lo == 1

    def test_test_outcomes_counted_in_their_own_window(self):
        sink = AggregatingSink(window_ms=100.0)
        sink.emit(_rec("test_started", t_ms=90.0, page=1))
        sink.emit(_rec("test_passed", t_ms=190.0, page=1))
        rollup = sink.to_dict()
        by_index = {w["index"]: w for w in rollup["windows"]}
        assert by_index[0]["tests"]["started"] == 1
        assert by_index[0]["tests"]["passed"] == 0
        assert by_index[1]["tests"]["passed"] == 1

    def test_pril_hit_rate_attribution(self):
        sink = AggregatingSink()
        sink.emit(_rec("pril_quantum", quantum=1, predicted=2, buffer=5))
        sink.emit(_rec("test_started", t_ms=1024.0, page=1))
        sink.emit(_rec("test_started", t_ms=1024.0, page=2))
        sink.emit(_rec("test_passed", t_ms=1088.0, page=1))
        sink.emit(_rec("test_aborted", t_ms=1100.0, page=2))
        (quantum,) = sink.to_dict()["pril"]
        assert quantum["predicted"] == 2
        assert quantum["started"] == 2
        assert quantum["resolved"] == 1
        assert quantum["aborted"] == 1
        assert quantum["hit_rate"] == 0.5

    def test_read_only_tests_do_not_pollute_pril(self):
        sink = AggregatingSink()
        for pages in ((1, 2), (3, 4)):
            # Each pass starts with a read-only sweep at 0 ms, before its
            # own pril_quantum events. A later pass's sweep is earlier
            # than the test before it, so the last quantum does not
            # claim it either.
            sink.emit(_rec("test_started", t_ms=0.0, page=9))
            sink.emit(_rec("test_passed", t_ms=64.0, page=9))
            for quantum, page in zip((2, 4), pages):
                t_ms = quantum * 1024.0
                sink.emit(_rec("pril_quantum", quantum=quantum, predicted=1,
                               buffer=1))
                sink.emit(_rec("test_started", t_ms=t_ms, page=page))
                sink.emit(_rec("test_passed", t_ms=t_ms + 64.0, page=page))
        # A pass with no read-only sweep: its first test, earlier than the
        # last pass's, belongs to the quantum announced just before it.
        sink.emit(_rec("pril_quantum", quantum=2, predicted=1, buffer=1))
        sink.emit(_rec("test_started", t_ms=2048.0, page=5))
        sink.emit(_rec("test_aborted", t_ms=2050.0, page=5))
        pril = sink.to_dict()["pril"]
        assert [(q["quantum"], q["started"], q["resolved"], q["aborted"])
                for q in pril] == [
            (2, 1, 1, 0), (4, 1, 1, 0), (2, 1, 1, 0), (4, 1, 1, 0),
            (2, 1, 0, 1),
        ]
        assert sink.kinds()["test_started"] == 7

    def test_mc_window_latency_and_refresh_bandwidth(self):
        sink = AggregatingSink(window_ms=1.0)  # 1 ms windows = 1e6 ns
        for latency in (30.0, 30.0, 30.0, 900.0):
            sink.emit(_rec("mc_request", t_ns=5_000.0, kind_served="read",
                           bank=0, latency_ns=latency))
        sink.emit(_rec("mc_refresh", t_ns=5_000.0, channel=0))
        sink.emit(_rec("mc_refresh", t_ns=9_000.0, channel=0))
        (window,) = sink.to_dict()["windows"]
        mc = window["mc"]
        assert mc["requests"] == 4
        assert mc["latency_p50_ns"] == 50.0     # 3 of 4 in (25, 50]
        assert mc["latency_p95_ns"] == 1600.0   # tail bucket bound
        assert mc["latency_mean_ns"] == pytest.approx((3 * 30 + 900) / 4)
        assert mc["refreshes"] == 2
        assert mc["refresh_per_s"] == pytest.approx(2 / 1e-3)

    def test_latency_beyond_last_bound_reports_none(self):
        sink = AggregatingSink(window_ms=1.0)
        sink.emit(_rec("mc_request", t_ns=0.0, kind_served="read",
                       bank=0, latency_ns=LATENCY_BUCKET_BOUNDS_NS[-1] * 10))
        (window,) = sink.to_dict()["windows"]
        assert window["mc"]["latency_p50_ns"] is None

    def test_energy_rollups_accumulate(self):
        sink = AggregatingSink()
        sink.emit(_rec("energy_rollup", window_ns=1e6, refresh_pj=10.0,
                       access_pj=5.0, background_pj=1.0, channel=0))
        sink.emit(_rec("energy_rollup", window_ns=1e6, refresh_pj=20.0,
                       access_pj=5.0, background_pj=1.0, channel=1))
        energy = sink.to_dict()["energy"]
        assert len(energy["rollups"]) == 2
        assert energy["rollups"][1]["channel"] == 1
        assert energy["totals"] == {
            "refresh_pj": 30.0, "access_pj": 10.0, "background_pj": 2.0,
        }

    def test_to_dict_is_idempotent(self):
        sink = AggregatingSink(window_ms=100.0)
        sink.emit(_rec("test_started", t_ms=42.0, page=1))
        sink.emit(_rec("ref_transition", t_ms=42.0, page=1,
                       **{"from": "hi_ref", "to": "testing"}))
        first = sink.to_dict()
        assert sink.to_dict() == first

    def test_unknown_kinds_only_counted(self):
        sink = AggregatingSink()
        sink.emit(_rec("softmc_phase", phase="fill", rows=8))
        rollup = sink.to_dict()
        assert rollup["events_total"] == 1
        assert rollup["kinds"] == {"softmc_phase": 1}
        assert rollup["windows"] == []


class TestPercentileFromBuckets:
    """Edge semantics of the bucketed-percentile helper."""

    BOUNDS = (10.0, 100.0, 1000.0)

    def test_empty_histogram_returns_none(self):
        assert _percentile_from_buckets(
            self.BOUNDS, [0, 0, 0], 0, 0.5) is None

    def test_negative_total_returns_none(self):
        assert _percentile_from_buckets(
            self.BOUNDS, [0, 0, 0], -1, 0.5) is None

    def test_single_observation_hits_its_bucket_bound(self):
        assert _percentile_from_buckets(
            self.BOUNDS, [0, 1, 0], 1, 0.5) == 100.0
        assert _percentile_from_buckets(
            self.BOUNDS, [0, 1, 0], 1, 0.99) == 100.0

    def test_overflow_bucket_returns_none(self):
        # All mass beyond every bound: the true value is unknown.
        assert _percentile_from_buckets(
            self.BOUNDS, [0, 0, 0], 5, 0.5) is None

    def test_quantile_walks_cumulative_counts(self):
        counts = [3, 1, 0]
        assert _percentile_from_buckets(self.BOUNDS, counts, 4, 0.50) == 10.0
        assert _percentile_from_buckets(self.BOUNDS, counts, 4, 0.75) == 10.0
        assert _percentile_from_buckets(self.BOUNDS, counts, 4, 0.95) == 100.0


def _memcon_trace(seed, pages=64, quanta=6):
    rng = np.random.default_rng(seed)
    duration_ms = quanta * 1024.0
    writes = {}
    for page in range(pages):
        if page % 5 == 4:
            continue  # keep some read-only pages
        count = int(rng.integers(1, 8))
        times = np.sort(rng.uniform(0.0, duration_ms - 1.0, size=count))
        writes[page] = times.astype(np.float64)
    return WriteTrace(duration_ms=duration_ms, writes=writes,
                      total_pages=pages, name=f"analytics-{seed}")


def _run_controller(trace):
    controller = MemconController(
        total_pages=trace.total_pages,
        config=MemconConfig(quantum_ms=1024.0),
        fails=lambda page: page % 7 == 0,
    )
    return controller.run(trace)


def _run_vectorised(trace):
    # The runner's producer: one emit_many batch from the vectorised pass.
    return simulate_refresh_reduction(
        trace, MemconConfig(quantum_ms=1024.0), failing_page_fraction=0.3,
    )


memcon_producers = pytest.mark.parametrize(
    "run_memcon", [_run_controller, _run_vectorised],
    ids=["controller", "vectorised"],
)


class TestOfflineOnlineEquivalence:
    """ISSUE 3 property: offline aggregation of the JSONL file equals the
    in-process rollups for the same run, events having round-tripped
    through JSON."""

    __test__ = True

    @memcon_producers
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_memcon_run_round_trips(self, tmp_path_factory, run_memcon,
                                    seed):
        trace = _memcon_trace(seed)
        path = str(tmp_path_factory.mktemp("traces") / f"t{seed}.jsonl")
        aggregator = obs.AggregatingSink(window_ms=1024.0,
                                         total_pages=trace.total_pages)
        jsonl = obs.JsonlTraceSink(path)
        previous = obs.set_sink(TeeSink(jsonl, aggregator))
        try:
            run_memcon(trace)
        finally:
            obs.set_sink(previous)
            jsonl.close()
        offline = aggregate_trace(
            obs.read_trace(path), window_ms=1024.0,
            total_pages=trace.total_pages,
        )
        assert offline == aggregator.to_dict()

    def test_system_sim_run_round_trips(self, tmp_path):
        from repro.sim import simulate_workload

        path = str(tmp_path / "sim.jsonl")
        aggregator = obs.AggregatingSink(window_ms=0.05)
        jsonl = obs.JsonlTraceSink(path)
        previous = obs.set_sink(TeeSink(jsonl, aggregator))
        try:
            simulate_workload(["mcf"], window_ns=200_000.0, channels=2)
        finally:
            obs.set_sink(previous)
            jsonl.close()
        online = aggregator.to_dict()
        offline = aggregate_trace(obs.read_trace(path), window_ms=0.05)
        assert offline == online
        # The run must have produced controller and energy telemetry.
        assert online["kinds"]["mc_request"] > 0
        assert online["energy"] is not None
        assert len(online["energy"]["rollups"]) == 2  # one per channel
        assert any(w["mc"] for w in online["windows"])


class TestMemconRollupSemantics:
    """End-to-end: rollups reconcile with the producer's own report."""

    __test__ = True

    @memcon_producers
    def test_rollup_totals_match_report(self, run_memcon):
        trace = _memcon_trace(seed=3)
        aggregator = obs.AggregatingSink(window_ms=1024.0,
                                         total_pages=trace.total_pages)
        previous = obs.set_sink(aggregator)
        try:
            report = run_memcon(trace)
        finally:
            obs.set_sink(previous)
        rollup = aggregator.to_dict()
        tests = [w["tests"] for w in rollup["windows"]]
        assert sum(t["started"] for t in tests) == report.tests_total
        assert sum(t["aborted"] for t in tests) == report.tests_aborted
        assert sum(t["failed"] for t in tests) == report.tests_failed
        # Every test resolves, so nothing stays outstanding at the end.
        assert aggregator.tests_outstanding == 0
        # PRIL quanta: every started test was attributed somewhere, and
        # predictions match the pril_quantum events' own counts.
        pril_started = sum(q["started"] for q in rollup["pril"])
        read_only = trace.total_pages - len(trace.writes)
        assert pril_started == report.tests_total - read_only
        for quantum in rollup["pril"]:
            assert quantum["started"] == quantum["predicted"]
            assert quantum["resolved"] + quantum["aborted"] == (
                quantum["started"]
            )


def _verdict_stream(seed=5):
    """A traced MEMCON accounting run's records, forensic grants included."""
    from repro.core.memcon import simulate_refresh_reduction

    capture = obs.ListTraceSink()
    previous = obs.set_sink(capture)
    gate = obs.set_forensics(True)
    try:
        simulate_refresh_reduction(
            _memcon_trace(seed), MemconConfig(quantum_ms=1024.0),
            failing_page_fraction=0.3, seed=seed,
        )
    finally:
        obs.set_forensics(gate)
        obs.set_sink(previous)
    return capture.records


#: Times on and beside the window boundaries of 1024, 333.3 and 0.7 ms.
_TIMES = (0.0, 0.7, 1.4, 2.1, 333.3, 666.6, 1023.9, 1024.0, 2048.0, 2100.0,
          4096.0, 5000.5)


@st.composite
def _fields(draw, n, pages):
    """``t_ms`` and ``page`` for ``n`` records: columns or constants, of
    the types the column fold reads and of some it leaves to records."""
    fields = {}
    # Mostly what the column fold reads; an int column sends the batch
    # through its records.
    shape = draw(st.sampled_from(
        ["column"] * 5 + ["constant"] * 2 + ["int", "ints"]))
    if shape == "column":
        fields["t_ms"] = np.array(
            draw(st.lists(st.sampled_from(_TIMES), min_size=n, max_size=n)))
    elif shape == "constant":
        fields["t_ms"] = draw(st.sampled_from(_TIMES))
    elif shape == "int":
        fields["t_ms"] = draw(st.integers(0, 5000))
    else:
        fields["t_ms"] = np.array(
            draw(st.lists(st.integers(0, 5000), min_size=n, max_size=n)),
            dtype=np.int64)
    if draw(st.booleans()):
        fields["page"] = draw(st.integers(0, pages - 1))
    else:
        fields["page"] = np.array(
            draw(st.lists(st.integers(0, pages - 1), min_size=n,
                          max_size=n)),
            dtype=draw(st.sampled_from(
                [np.int64] * 6 + [np.int32, np.uint16])))
    if not any(isinstance(v, np.ndarray) for v in fields.values()):
        fields["bank"] = np.zeros(n, dtype=np.int64)  # a column sets n
    return fields


@st.composite
def _segments(draw, pages, record_kinds=False):
    """Random segments of the kinds a MEMCON stream holds, and others."""
    kinds = ["ref_transition", "test_started", "test_passed", "test_failed",
             "test_aborted", "pril_quantum", "pril_grant", "softmc_phase"]
    segments = []
    for _ in range(draw(st.integers(0, 6))):
        n = draw(st.integers(0, 5))
        kind = draw(st.sampled_from(kinds))
        fields = {"v": V, "kind": kind}
        if kind == "pril_quantum":
            fields["quantum"] = np.arange(n) + draw(st.integers(1, 5))
            fields["predicted"] = np.array(
                draw(st.lists(st.integers(0, 9), min_size=n, max_size=n)))
            fields["buffer"] = draw(st.integers(0, 9))
        elif kind == "softmc_phase":
            fields.update(phase="fill", rows=np.arange(n))
        else:
            fields.update(draw(_fields(n, pages)))
            if kind == "ref_transition":
                fields["from"] = "hi_ref"
                fields["to"] = draw(
                    st.sampled_from(["hi_ref", "lo_ref", "testing"]))
            elif kind == "pril_grant":
                fields["quantum"] = 2
        segments.append(fields)
    if record_kinds:
        n = draw(st.integers(1, 3))
        segments.append(draw(st.sampled_from([
            {"v": V, "kind": "mc_request", "t_ns": np.arange(n) * 3e5,
             "kind_served": "read", "bank": 0,
             "latency_ns": np.full(n, 30.0)},
            {"v": V, "kind": "energy_rollup", "window_ns": np.full(n, 1e6),
             "refresh_pj": 1.0, "access_pj": 2.0, "background_pj": 3.0},
        ])))
    return segments


@st.composite
def _batches(draw, pages, record_kinds=False):
    segments = draw(_segments(pages, record_kinds))
    n = sum(len(next(v for v in s.values() if isinstance(v, np.ndarray)))
            for s in segments)
    order = draw(st.permutations(range(n)))
    return obs.RecordBatch(segments, np.array(order, dtype=np.int64))


def _split(batch, k):
    """The batch's first ``k`` emitted records and the rest, as batches."""
    order = batch.order
    head = np.zeros(len(order), dtype=bool)
    head[order[:k]] = True
    parts = []
    for keep in (head, ~head):
        segments, offset = [], 0
        for segment in batch.segments:
            chosen = keep[offset:offset + segment.length]
            offset += segment.length
            segments.append({
                name: value[chosen] if isinstance(value, np.ndarray)
                else value
                for name, value in segment.fields.items()
            })
        renumber = np.cumsum(keep) - 1
        parts.append(obs.RecordBatch(segments, renumber[order[keep[order]]]))
    return parts


def _fold_state(sink):
    return (sink.to_dict(), sink.kinds(), sink.rows_lo, sink.rows_testing,
            sink.tests_outstanding, sink.pages_seen)


class TestBatchIngestion:
    """``emit_many`` folds exactly what per-record ``emit`` folds."""

    __test__ = True

    @given(data=st.data(), window_ms=st.sampled_from([1024.0, 333.3, 0.7]),
           pages=st.integers(1, 6), record_kinds=st.booleans(),
           split=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_column_fold_equals_record_fold(self, data, window_ms, pages,
                                            record_kinds, split):
        # The prefix leaves an open test, a current quantum, a seen page
        # and a window behind, plus whatever a random stream leaves.
        prefix = [
            _rec("pril_quantum", quantum=1, predicted=1, buffer=1),
            _rec("test_started", t_ms=data.draw(st.sampled_from(_TIMES)),
                 page=data.draw(st.integers(0, pages - 1))),
        ] + list(data.draw(_batches(pages)))
        batch = data.draw(_batches(pages, record_kinds))
        columns = AggregatingSink(window_ms=window_ms)
        records = AggregatingSink(window_ms=window_ms)
        for record in prefix:
            columns.emit(record)
            records.emit(record)
        if split:
            for part in _split(batch, data.draw(st.integers(0, len(batch)))):
                columns.emit_many(part)
        else:
            columns.emit_many(batch)
        for record in list(batch):
            records.emit(record)
        assert _fold_state(columns) == _fold_state(records)
        # What the batch leaves behind folds the same way afterwards.
        suffix = [_rec("test_started", t_ms=0.0, page=0)]
        suffix += list(data.draw(_batches(pages)))
        for record in suffix:
            columns.emit(record)
            records.emit(record)
        assert _fold_state(columns) == _fold_state(records)

    def test_transition_at_nan_folds_as_its_record(self):
        # _fold lets a transition at NaN pass without crossing a window.
        batch = obs.RecordBatch([
            {"v": V, "kind": "ref_transition",
             "t_ms": np.array([float("nan"), 2048.0]),
             "page": np.array([1, 2]), "from": "hi_ref", "to": "lo_ref"},
        ], np.array([0, 1]))
        columns, records = AggregatingSink(), AggregatingSink()
        columns.emit_many(batch)
        for record in list(batch):
            records.emit(record)
        assert _fold_state(columns) == _fold_state(records)
        assert columns.rows_lo == 2

    @pytest.mark.parametrize("kind", ["test_started", "ref_transition"])
    def test_negative_page_raises(self, kind):
        fields = {"v": V, "kind": kind, "t_ms": np.array([1.0, 2.0]),
                  "page": np.array([3, -4], dtype=np.int64)}
        if kind == "ref_transition":
            fields.update({"from": "hi_ref", "to": "testing"})
        batch = obs.RecordBatch([fields], np.array([0, 1]))
        with pytest.raises(obs.TraceSchemaError, match="negative page: -4"):
            AggregatingSink().emit_many(batch)
        with pytest.raises(obs.TraceSchemaError, match="negative page: -4"):
            AggregatingSink().emit_many(list(batch))

    def test_aggregating_batch_equals_per_record(self):
        records = _verdict_stream()
        lifecycle = [_rec("experiment_started", experiment="fig14")]
        one_by_one = AggregatingSink(window_ms=1024.0, total_pages=64)
        for record in lifecycle + records:
            one_by_one.emit(record)
        batched = AggregatingSink(window_ms=1024.0, total_pages=64)
        # A buffered record ahead of the batch keeps its place.
        batched.emit(lifecycle[0])
        batched.emit_many(records)
        assert not batched._buffer  # folded on arrival, not buffered
        assert batched.events_total == one_by_one.events_total
        assert batched.to_dict() == one_by_one.to_dict()

    def test_aggregating_batches_compose(self):
        records = _verdict_stream(seed=6)
        whole = AggregatingSink(window_ms=1024.0)
        whole.emit_many(records)
        halves = AggregatingSink(window_ms=1024.0)
        middle = len(records) // 2
        halves.emit_many(records[:middle])
        halves.emit_many(records[middle:])
        assert halves.to_dict() == whole.to_dict()

    def test_tee_batch_reaches_emit_only_child(self):
        class EmitOnly:
            def __init__(self):
                self.records = []

            def emit(self, record):
                self.records.append(record)

        batched, plain = obs.ListTraceSink(), EmitOnly()
        records = [_rec("run_started", experiments=["fig14"]),
                   _rec("run_finished", wall_s=1.0)]
        TeeSink(batched, plain).emit_many(records)
        assert plain.records == records
        assert batched.records == records

    def test_tee_batch_writes_the_per_record_bytes(self):
        records = _verdict_stream(seed=7)
        one_by_one, batched = io.StringIO(), io.StringIO()
        tee = TeeSink(obs.JsonlTraceSink(one_by_one), AggregatingSink())
        for record in records:
            tee.emit(record)
        TeeSink(obs.JsonlTraceSink(batched), AggregatingSink()).emit_many(
            records)
        assert batched.getvalue() == one_by_one.getvalue()
