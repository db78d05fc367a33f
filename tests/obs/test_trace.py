"""JSONL event-trace schema: emission, sinks, validation, round-trip."""

import io
import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import (
    EVENT_KINDS,
    SCHEMA_VERSION,
    AggregatingSink,
    JsonlTraceSink,
    LedgerSink,
    ListTraceSink,
    RecordBatch,
    TeeSink,
    TraceSchemaError,
    emit,
    emit_many,
    read_trace,
    set_sink,
    trace_active,
    validate_record,
)


@pytest.fixture
def list_sink():
    sink = ListTraceSink()
    previous = set_sink(sink)
    try:
        yield sink
    finally:
        set_sink(previous)


class TestEmit:
    def test_emit_without_sink_is_noop(self):
        previous = set_sink(None)
        try:
            assert not trace_active()
            emit("test_started", t_ms=0.0, page=1)  # must not raise
        finally:
            set_sink(previous)

    def test_emit_adds_envelope(self, list_sink):
        emit("test_started", t_ms=5.0, page=3)
        (record,) = list_sink.records
        assert record == {
            "v": SCHEMA_VERSION, "kind": "test_started", "t_ms": 5.0, "page": 3,
        }

    def test_kinds_histogram(self, list_sink):
        emit("test_started", t_ms=0.0, page=1)
        emit("test_started", t_ms=1.0, page=2)
        emit("test_passed", t_ms=2.0, page=1)
        assert list_sink.kinds() == {"test_started": 2, "test_passed": 1}


class TestEmitMany:
    def test_without_sink_is_noop(self):
        previous = set_sink(None)
        try:
            emit_many([{"v": SCHEMA_VERSION, "kind": "run_started",
                        "experiments": []}])
        finally:
            set_sink(previous)

    def test_sink_without_batch_method_gets_each_record(self):
        class EmitOnly:
            def __init__(self):
                self.records = []

            def emit(self, record):
                self.records.append(record)

        sink = EmitOnly()
        records = [{"v": SCHEMA_VERSION, "kind": "test_started",
                    "t_ms": float(i), "page": i} for i in range(3)]
        previous = set_sink(sink)
        try:
            emit_many(records)
        finally:
            set_sink(previous)
        assert sink.records == records

    def test_list_sink_copies_records(self, list_sink):
        record = {"v": SCHEMA_VERSION, "kind": "test_started",
                  "t_ms": 0.0, "page": 1}
        emit_many([record])
        record["page"] = 99
        assert list_sink.records == [
            {"v": SCHEMA_VERSION, "kind": "test_started",
             "t_ms": 0.0, "page": 1},
        ]
        assert list_sink.records[0] is not record


#: Records whose encoding exercises escaping, float repr and nesting.
BATCH = [
    {"v": SCHEMA_VERSION, "kind": "run_started",
     "experiments": ["fig14", "fig17"], "seed": 1, "quick": True},
    {"v": SCHEMA_VERSION, "kind": "experiment_started",
     "experiment": "caf\u00e9 \u2603 \"quoted\" \\ tab\t"},
    {"v": SCHEMA_VERSION, "kind": "test_started", "t_ms": 1e-07, "page": 0},
    {"v": SCHEMA_VERSION, "kind": "test_passed", "t_ms": 1e16, "page": 1},
    {"v": SCHEMA_VERSION, "kind": "ref_transition", "t_ms": 2048.5,
     "page": 2, "from": "testing", "to": "lo_ref"},
    {"v": SCHEMA_VERSION, "kind": "predicate_eval", "interval_ms": 64.0,
     "rows": 3, "failed": None,
     "rows_failed_sample": [1, 2.5, {"nested": False}]},
]


class TestJsonlEmitMany:
    def test_bytes_identical_to_per_record_emit(self):
        one_by_one = io.StringIO()
        sink = JsonlTraceSink(one_by_one)
        for record in BATCH:
            sink.emit(record)
        batched = io.StringIO()
        JsonlTraceSink(batched).emit_many(BATCH)
        assert batched.getvalue() == one_by_one.getvalue()
        assert "1e-07" in batched.getvalue()
        assert "1e+16" in batched.getvalue()
        assert "\\u2603" in batched.getvalue()  # ensure_ascii, as emit

    def test_numpy_integer_raises_like_emit(self):
        record = {"v": SCHEMA_VERSION, "kind": "test_started",
                  "t_ms": 0.0, "page": np.int64(3)}
        stream = io.StringIO()
        sink = JsonlTraceSink(stream)
        with pytest.raises(TypeError) as per_record:
            sink.emit(record)
        with pytest.raises(TypeError) as batched:
            sink.emit_many([BATCH[2], record])
        assert str(batched.value) == str(per_record.value)
        # Encoded before written: the failed batch left no partial line.
        assert stream.getvalue() == ""
        assert sink.records_emitted == 0

    def test_counts_and_flushes_once_per_batch(self):
        flushes = []

        class CountingStream(io.StringIO):
            def flush(self):
                flushes.append(True)
                return super().flush()

        sink = JsonlTraceSink(CountingStream(), flush_every=1000)
        sink.emit_many(BATCH)
        sink.emit_many(BATCH)
        assert sink.records_emitted == 2 * len(BATCH)
        assert len(flushes) == 2

    def test_flush_zero_disables_batch_flush(self):
        flushes = []

        class CountingStream(io.StringIO):
            def flush(self):
                flushes.append(True)
                return super().flush()

        JsonlTraceSink(CountingStream(), flush_every=0).emit_many(BATCH)
        assert not flushes

    def test_empty_batch_writes_nothing(self):
        stream = io.StringIO()
        sink = JsonlTraceSink(stream)
        sink.emit_many([])
        assert stream.getvalue() == "" and sink.records_emitted == 0

    def test_closed_sink_raises(self, tmp_path):
        sink = JsonlTraceSink(str(tmp_path / "t.jsonl"))
        sink.close()
        with pytest.raises(ValueError, match="closed"):
            sink.emit_many(BATCH)

    def test_round_trips_through_read_trace(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with JsonlTraceSink(path) as sink:
            sink.emit_many(BATCH)
        assert list(read_trace(path, validate=False)) == BATCH


def _dumps(record):
    return json.dumps(record, separators=(",", ":"))


#: Floats whose JSON text is easy to get wrong.
SPECIAL_FLOATS = (-0.0, 5e-324, 1e-07, 1e16, float("nan"), float("inf"),
                  float("-inf"))

#: Constants a segment may carry besides its columns.
constants = st.one_of(
    st.text(alphabet=st.sampled_from('a"\\%\t\u00e9\u2603\U0001f600'),
            max_size=6),
    st.integers(-2 ** 70, 2 ** 70),
    st.sampled_from(SPECIAL_FLOATS) | st.floats(),
    st.none(),
    st.booleans(),
    st.lists(st.integers(-3, 3), max_size=3),
)


def _column(draw, n):
    """A numpy column of ``n`` values and the values it holds."""
    choice = draw(st.sampled_from(["float", "int", "uint"]))
    if choice == "float":
        values = draw(st.lists(
            st.sampled_from(SPECIAL_FLOATS) | st.floats(),
            min_size=n, max_size=n,
        ))
        return np.array(values, dtype=np.float64), values
    if choice == "int":
        values = draw(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1),
                               min_size=n, max_size=n))
        return np.array(values, dtype=np.int64), values
    values = draw(st.lists(
        st.integers(2 ** 63, 2 ** 64 - 1) | st.integers(0, 9),
        min_size=n, max_size=n,
    ))
    return np.array(values, dtype=np.uint64), values


@st.composite
def batches(draw):
    """(batch, its records built independently, in emission order)."""
    segments, records = [], []
    for _ in range(draw(st.integers(0, 4))):
        n = draw(st.integers(0, 6))
        names = draw(st.lists(
            st.text(alphabet=st.sampled_from('ab"%\u00e9'), min_size=1,
                    max_size=3),
            min_size=1, max_size=5, unique=True,
        ))
        names = [name for name in names if name not in ("v", "kind")]
        kind = draw(st.sampled_from(["test_started", 'caf\u00e9 "x"']))
        fields = {"v": SCHEMA_VERSION, "kind": kind}
        values = {}
        has_column = False
        for name in names:
            if draw(st.booleans()):
                fields[name], values[name] = _column(draw, n)
                has_column = True
            else:
                fields[name] = draw(constants)
        if not has_column:
            fields["page"], values["page"] = _column(draw, n)
        segments.append(fields)
        records.extend(
            {name: values[name][i] if name in values else value
             for name, value in fields.items()}
            for i in range(n)
        )
    order = draw(st.permutations(range(len(records))))
    batch = RecordBatch(segments, np.array(order, dtype=np.int64))
    return batch, [records[i] for i in order]


def _jsonl(records):
    stream = io.StringIO()
    JsonlTraceSink(stream).emit_many(records)
    return stream.getvalue()


class TestRecordBatch:
    @given(batches())
    @settings(max_examples=300, deadline=None)
    def test_jsonl_is_json_dumps_of_each_record(self, case):
        batch, records = case
        expected = [_dumps(record) for record in records]
        assert _jsonl(batch).splitlines() == expected
        assert _jsonl(batch) == "".join(line + "\n" for line in expected)
        # The batch reads as the same records, key order included.
        assert len(batch) == len(records)
        assert [list(r) for r in batch] == [list(r) for r in records]
        assert [_dumps(r) for r in batch] == expected

    @given(batches())
    @settings(max_examples=100, deadline=None)
    def test_pickle_round_trips_without_caches(self, case):
        batch, records = case
        fresh = pickle.dumps(batch)
        batch.lines()
        list(batch)
        assert pickle.dumps(batch) == fresh  # the built dicts stay behind
        restored = pickle.loads(fresh)
        assert [_dumps(r) for r in restored] == [_dumps(r) for r in records]
        assert _jsonl(restored) == _jsonl(batch)

    def test_records_are_built_once_and_shared(self):
        batch = RecordBatch([{"v": 1, "kind": "test_started",
                              "t_ms": np.array([2.0, 1.0]),
                              "page": np.array([7, 8])}], np.array([1, 0]))
        first = list(batch)
        assert first == [
            {"v": 1, "kind": "test_started", "t_ms": 1.0, "page": 8},
            {"v": 1, "kind": "test_started", "t_ms": 2.0, "page": 7},
        ]
        assert all(a is b for a, b in zip(first, batch))
        assert batch[0] is first[0] and batch[-1] is first[1]

    @pytest.mark.parametrize("bad", [
        np.array([True, False]),
        np.array([1.0, "x"], dtype=object),
        pytest.param(
            np.array([1.5, 2.5], dtype=np.longdouble),
            marks=pytest.mark.skipif(
                np.dtype(np.longdouble).itemsize <= 8,
                reason="longdouble is a double on this platform",
            ),
        ),
    ])
    def test_bool_or_object_column_raises_before_writing(self, bad):
        good = {"v": 1, "kind": "test_started", "t_ms": np.array([0.0, 1.0]),
                "page": np.array([1, 2])}
        batch = RecordBatch([good, {**good, "page": bad}], np.arange(4))
        stream = io.StringIO()
        sink = JsonlTraceSink(stream)
        with pytest.raises(TypeError, match="integers or floats"):
            sink.emit_many(batch)
        assert stream.getvalue() == "" and sink.records_emitted == 0

    @pytest.mark.parametrize("segments,order,error,message", [
        ([{"v": 1, "kind": "k", "page": 3}], [0], ValueError,
         "needs columns"),
        ([{"v": 1, "kind": "k", "a": np.zeros(2), "b": np.zeros(3)}], [0, 1],
         ValueError, "needs columns"),
        ([{"v": 1, "kind": "k", "a": np.zeros((2, 2))}], [0, 1], ValueError,
         "not 1-d"),
        ([{"v": 1, "kind": np.array([1]), "a": np.zeros(1)}], [0], TypeError,
         "constant str"),
        ([{"v": 1, "kind": "k", 3: np.zeros(1)}], [0], TypeError,
         "field names are str"),
        ([{"v": 1, "kind": "k", "a": np.zeros(2)}], [0, 0], ValueError,
         "permutation"),
        ([{"v": 1, "kind": "k", "a": np.zeros(2)}], [0, 2], ValueError,
         "permutation"),
        ([{"v": 1, "kind": "k", "a": np.zeros(2)}], [0], ValueError,
         "permutation"),
        ([{"v": 1, "kind": "k", "a": np.zeros(2)}], [0.0, 1.0], TypeError,
         "holds integers"),
    ])
    def test_malformed_batch_rejected(self, segments, order, error, message):
        with pytest.raises(error, match=message):
            RecordBatch(segments, np.array(order))

    def test_select_keeps_order_and_shares_segments(self):
        batch = RecordBatch([
            {"v": 1, "kind": "pril_quantum", "quantum": np.array([4, 5]),
             "predicted": 1, "buffer": 1},
            {"v": 1, "kind": "test_started", "t_ms": np.array([0.0, 9.0]),
             "page": np.array([3, 4])},
        ], np.array([2, 0, 3, 1]))
        chosen = batch.select({"test_started"})
        assert [s is batch.segments[1] for s in chosen.segments] == [True]
        assert [r["page"] for r in chosen] == [3, 4]
        assert chosen.lines() == [
            line for line in batch.lines() if "test_started" in line
        ]
        assert batch.select({"test_started", "pril_quantum"}) is batch

    def test_every_sink_reads_a_batch_as_its_records(self, tmp_path):
        segments = [
            {"v": 1, "kind": "pril_quantum", "quantum": np.array([2]),
             "predicted": np.array([2]), "buffer": np.array([2])},
            {"v": 1, "kind": "test_started", "t_ms": np.array([2048.0] * 2),
             "page": np.array([5, 6])},
            {"v": 1, "kind": "ref_transition", "t_ms": np.array([2048.0] * 2),
             "page": np.array([5, 6]), "from": "hi_ref", "to": "testing"},
            {"v": 1, "kind": "test_passed", "t_ms": np.array([2112.0]),
             "page": np.array([5])},
            # An outcome no test had: an empty segment counts nowhere.
            {"v": 1, "kind": "test_aborted", "t_ms": np.empty(0),
             "page": np.empty(0, dtype=np.int64)},
        ]
        order = np.array([0, 1, 3, 2, 4, 5])

        def run(records, tag):
            trace = tmp_path / f"{tag}.jsonl"
            jsonl = JsonlTraceSink(str(trace))
            aggregator = AggregatingSink(window_ms=1024.0)
            ledger = LedgerSink(str(tmp_path / f"{tag}.forensics.jsonl"))
            tee = TeeSink(jsonl, aggregator, ledger)
            tee.emit_many(records)
            tee.close()
            census = ledger.census()
            census.pop("ledger_path")
            return (trace.read_text(), aggregator.to_dict(), census,
                    open(ledger.path).read())

        batch = RecordBatch(segments, order)
        assert run(batch, "batch") == run(list(batch), "records")


class TestValidation:
    def test_every_kind_round_trips(self):
        # A minimal record of each declared kind must validate.
        for kind, fields in EVENT_KINDS.items():
            record = {"v": SCHEMA_VERSION, "kind": kind}
            record.update({name: 0 for name in fields})
            validate_record(record)

    def test_unknown_kind_rejected(self):
        with pytest.raises(TraceSchemaError):
            validate_record({"v": SCHEMA_VERSION, "kind": "nope"})

    def test_missing_field_rejected(self):
        with pytest.raises(TraceSchemaError) as err:
            validate_record({"v": SCHEMA_VERSION, "kind": "test_started"})
        assert "missing" in str(err.value)

    def test_wrong_version_rejected(self):
        with pytest.raises(TraceSchemaError):
            validate_record({"v": 999, "kind": "test_started",
                             "t_ms": 0.0, "page": 0})

    def test_extra_fields_allowed(self):
        validate_record({
            "v": SCHEMA_VERSION, "kind": "test_started",
            "t_ms": 0.0, "page": 0, "workload": "Netflix",
        })


class TestJsonlRoundTrip:
    def test_file_round_trip(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with JsonlTraceSink(path) as sink:
            previous = set_sink(sink)
            try:
                emit("test_started", t_ms=0.0, page=1)
                emit("test_passed", t_ms=64.0, page=1)
                emit("pril_quantum", quantum=1, predicted=3, buffer=2)
            finally:
                set_sink(previous)
            assert sink.records_emitted == 3
        records = list(read_trace(path))
        assert [r["kind"] for r in records] == [
            "test_started", "test_passed", "pril_quantum",
        ]
        # One compact JSON object per line.
        lines = (tmp_path / "trace.jsonl").read_text().splitlines()
        assert len(lines) == 3
        assert all(json.loads(line)["v"] == SCHEMA_VERSION for line in lines)

    def test_stream_sink_does_not_close_stream(self):
        stream = io.StringIO()
        sink = JsonlTraceSink(stream)
        sink.emit({"v": SCHEMA_VERSION, "kind": "run_finished", "wall_s": 1.0})
        sink.close()
        assert not stream.closed
        assert json.loads(stream.getvalue())["kind"] == "run_finished"

    def test_read_trace_rejects_bad_records(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"v": 1, "kind": "bogus_kind"}\n')
        with pytest.raises(TraceSchemaError):
            list(read_trace(str(path)))

    def test_read_trace_rejects_bad_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(TraceSchemaError):
            list(read_trace(str(path)))

    def test_read_trace_skips_blank_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            '{"v": 1, "kind": "run_started", "experiments": []}\n\n'
        )
        assert len(list(read_trace(str(path)))) == 1

    def test_no_validate_passes_unknown_kinds(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"v": 1, "kind": "future_kind"}\n')
        assert list(read_trace(str(path), validate=False)) == [
            {"v": 1, "kind": "future_kind"}
        ]


class TestNumericFieldValidation:
    @pytest.mark.parametrize("field,kind,base", [
        ("t_ms", "test_started", {"page": 0}),
        ("t_ns", "mc_refresh", {"channel": 0}),
        ("latency_ns", "mc_request",
         {"t_ns": 0.0, "kind_served": "read", "bank": 0}),
        ("wall_s", "run_finished", {}),
    ])
    def test_non_numeric_value_rejected(self, field, kind, base):
        record = {"v": SCHEMA_VERSION, "kind": kind, field: "12.5"}
        record.update(base)
        with pytest.raises(TraceSchemaError) as err:
            validate_record(record)
        assert "must be numeric" in str(err.value)

    def test_bool_is_not_numeric(self):
        with pytest.raises(TraceSchemaError):
            validate_record({"v": SCHEMA_VERSION, "kind": "test_started",
                             "t_ms": True, "page": 0})

    def test_int_and_float_accepted(self):
        validate_record({"v": SCHEMA_VERSION, "kind": "test_started",
                         "t_ms": 5, "page": 0})
        validate_record({"v": SCHEMA_VERSION, "kind": "test_started",
                         "t_ms": 5.0, "page": 0})


class TestCrashSafety:
    def test_default_flush_cadence(self, tmp_path):
        sink = JsonlTraceSink(str(tmp_path / "t.jsonl"))
        assert sink.flush_every == 1000
        sink.close()

    def test_negative_flush_every_rejected(self):
        with pytest.raises(ValueError):
            JsonlTraceSink(io.StringIO(), flush_every=-1)

    def test_flushes_every_n_records(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JsonlTraceSink(str(path), flush_every=10)
        record = {"v": SCHEMA_VERSION, "kind": "test_started",
                  "t_ms": 0.0, "page": 1}
        for _ in range(25):
            sink.emit(record)
        # Without closing, everything up to the last flush boundary must
        # already be on disk (the crash-safety guarantee).
        on_disk = path.read_text().count("\n")
        assert on_disk >= 20
        sink.close()
        assert path.read_text().count("\n") == 25

    def test_flush_zero_disables_periodic_flush(self):
        flushes = []

        class CountingStream(io.StringIO):
            def flush(self):
                flushes.append(True)
                return super().flush()

        sink = JsonlTraceSink(CountingStream(), flush_every=0)
        record = {"v": SCHEMA_VERSION, "kind": "test_started",
                  "t_ms": 0.0, "page": 1}
        for _ in range(5000):
            sink.emit(record)
        assert not flushes

    def test_truncated_final_line_tolerated(self, tmp_path):
        path = tmp_path / "killed.jsonl"
        path.write_text(
            '{"v": 1, "kind": "test_started", "t_ms": 0.0, "page": 1}\n'
            '{"v": 1, "kind": "test_pas'  # the kill signature
        )
        with pytest.raises(TraceSchemaError):
            list(read_trace(str(path)))
        records = list(read_trace(str(path), tolerate_truncation=True))
        assert [r["kind"] for r in records] == ["test_started"]

    def test_corruption_mid_file_still_raises(self, tmp_path):
        path = tmp_path / "corrupt.jsonl"
        path.write_text(
            '{"v": 1, "kind": "test_started", "t_ms": 0.0, "page": 1}\n'
            '{"v": 1, "kind": "test_pas\n'
            '{"v": 1, "kind": "test_passed", "t_ms": 64.0, "page": 1}\n'
        )
        with pytest.raises(TraceSchemaError):
            list(read_trace(str(path), tolerate_truncation=True))

    def test_truncated_line_followed_by_blanks_tolerated(self, tmp_path):
        path = tmp_path / "killed.jsonl"
        path.write_text(
            '{"v": 1, "kind": "run_started", "experiments": []}\n'
            '{"v": 1, "kin\n'
            '\n'
        )
        records = list(read_trace(str(path), tolerate_truncation=True))
        assert len(records) == 1


class TestListSinkKinds:
    def test_record_without_kind_raises_schema_error(self):
        sink = ListTraceSink()
        sink.emit({"v": SCHEMA_VERSION, "kind": "run_finished", "wall_s": 1.0})
        sink.emit({"v": SCHEMA_VERSION, "page": 3})
        with pytest.raises(TraceSchemaError) as err:
            sink.kinds()
        assert "record 1" in str(err.value)


class TestSinkLifecycle:
    def _record(self):
        return {"v": SCHEMA_VERSION, "kind": "run_finished", "wall_s": 0.0}

    def test_close_is_idempotent(self, tmp_path):
        sink = JsonlTraceSink(str(tmp_path / "t.jsonl"))
        sink.emit(self._record())
        sink.close()
        sink.close()  # must not raise
        assert sink.closed

    def test_emit_after_close_raises(self, tmp_path):
        sink = JsonlTraceSink(str(tmp_path / "t.jsonl"))
        sink.close()
        with pytest.raises(ValueError, match="closed"):
            sink.emit(self._record())

    def test_parent_directories_created_for_path_targets(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "t.jsonl"
        with JsonlTraceSink(str(path)) as sink:
            sink.emit(self._record())
        assert [r["kind"] for r in read_trace(str(path))] == ["run_finished"]

    def test_unflushed_tail_written_on_close(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        sink = JsonlTraceSink(path, flush_every=0)
        sink.emit(self._record())
        sink.close()
        assert len(list(read_trace(path))) == 1
