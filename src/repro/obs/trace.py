"""Structured JSONL event trace with a pluggable sink.

Instrumented code calls :func:`emit` with an event *kind* plus the
kind's payload fields; when no sink is installed the call is one module
attribute load and a ``None`` check. Records are schema-versioned flat
JSON objects::

    {"v": 1, "kind": "test_started", "t_ms": 2048.0, "page": 17}

The kind registry (:data:`EVENT_KINDS`) names every event the pipeline
emits and the fields each one must carry, so traces can be validated
offline (:func:`validate_record`, :func:`read_trace`) and new events are
a one-line schema addition. Unknown extra fields are allowed — events
may carry context (workload name, channel id) beyond the schema floor.

Sinks are anything with ``emit(record: dict)``; :class:`JsonlTraceSink`
writes one compact JSON object per line, :class:`ListTraceSink` buffers
records in memory for tests and in-process consumers.

Producers that hold a whole batch of finished records (MEMCON's
accounting pass replays every verdict of a trace at once) hand it over
with :func:`emit_many`. A sink may take the batch in one call through an
``emit_many(records)`` method of its own; one without it receives the
records one ``emit`` at a time, so the stream a sink sees never depends
on how the producer delivered it.

A producer that holds its records as arrays hands over a
:class:`RecordBatch`: segments of one kind each, whose fields are numpy
columns or constants, plus the order the records are emitted in. The
batch reads as the sequence of record dicts, built at most once and
shared by every sink that reads dicts; :class:`JsonlTraceSink` writes it
from the columns instead, with one ``%``-format string per segment, and
the aggregating sink folds it from the columns.
"""

from __future__ import annotations

import io
import json
import operator
import os
from collections import deque
from itertools import chain, repeat
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import (
    Any, Callable, Collection, Dict, Iterable, Iterator, List, Mapping,
    Optional, Sequence, Tuple, Union,
)

import numpy as np

__all__ = [
    "EVENT_KINDS",
    "SCHEMA_VERSION",
    "JsonlTraceSink",
    "ListTraceSink",
    "RecordBatch",
    "TraceSchemaError",
    "emit",
    "emit_many",
    "get_sink",
    "read_trace",
    "set_sink",
    "trace_active",
    "validate_record",
]

#: Bump on any backwards-incompatible record-shape change.
SCHEMA_VERSION = 1

#: Every known event kind -> the fields a record of that kind must carry
#: (beyond the envelope ``v`` and ``kind``).
EVENT_KINDS: Dict[str, frozenset] = {
    # MEMCON test lifecycle (core/memcon.py)
    "test_started": frozenset({"t_ms", "page"}),
    "test_aborted": frozenset({"t_ms", "page"}),
    "test_passed": frozenset({"t_ms", "page"}),
    "test_failed": frozenset({"t_ms", "page"}),
    # Refresh-ledger state changes (core/memcon.py)
    "ref_transition": frozenset({"t_ms", "page", "from", "to"}),
    # PRIL quantum boundaries (core/memcon.py)
    "pril_quantum": frozenset({"quantum", "predicted", "buffer"}),
    # Memory-controller events (mc/controller.py)
    "mc_refresh": frozenset({"t_ns", "channel"}),
    "mc_request": frozenset({"t_ns", "kind_served", "bank", "latency_ns"}),
    # SoftMC tester phases (testinfra/softmc.py)
    "softmc_phase": frozenset({"phase", "rows"}),
    # System simulator progress (sim/system.py)
    "sim_progress": frozenset({"t_ns", "core", "instructions"}),
    # Energy accounting per simulated window (sim/energy.py)
    "energy_rollup": frozenset(
        {"window_ns", "refresh_pj", "access_pj", "background_pj"}
    ),
    # Experiment runner lifecycle (experiments/runner.py)
    "run_started": frozenset({"experiments"}),
    "run_finished": frozenset({"wall_s"}),
    "experiment_started": frozenset({"experiment"}),
    "experiment_finished": frozenset({"experiment", "wall_s"}),
    # A pool worker died; the parent records the last unit it was known
    # to be holding (fingerprint from the checkpoint journal) so resume
    # diagnostics can name the culprit (parallel/executor.py).
    "worker_lost": frozenset({"experiment", "unit", "fingerprint"}),
    # --- Forensic decision-provenance records (obs/forensics.py) ---
    # Only emitted while the forensics gate is enabled; they ride the
    # normal trace stream, so sharded runs carry them like any record.
    # PRIL granted a LO-REF window: the page had exactly one write in
    # its quantum, so MEMCON schedules a retention test (core/memcon.py).
    "pril_grant": frozenset({"page", "quantum"}),
    # One batch evaluation of the content-dependent fault predicate,
    # with the CRC of the content snapshot it used (dram/faults.py).
    "predicate_eval": frozenset({"interval_ms", "rows", "failed"}),
}


class TraceSchemaError(ValueError):
    """A trace record does not match the event schema."""


def _compact_encoder() -> Callable[[object, int], Tuple[str, ...]]:
    """The encoder behind ``json.dumps(obj, separators=(",", ":"))``.

    ``json.dumps`` builds a fresh encoder for every call; building it
    once serves a whole batch. Same separators, ``ensure_ascii``,
    ``allow_nan`` and ``TypeError`` for unserialisable values. The
    circular-reference check is off: trace records are flat objects.
    ``encode(obj, 0)`` returns the text in chunks.
    """
    base = json.JSONEncoder(separators=(",", ":"))
    if c_make_encoder is None:  # an interpreter without the C accelerator
        return lambda obj, _level: (base.encode(obj),)
    return c_make_encoder(
        None, base.default, encode_basestring_ascii, None,
        base.key_separator, base.item_separator, base.sort_keys,
        base.skipkeys, base.allow_nan,
    )


_ENCODE = _compact_encoder()


class _Segment:
    """Records of one kind: each field a numpy column or a constant.

    ``fields`` maps each key, in record key order, to a 1-d array (one
    value per record) or to the value every record shares.
    """

    __slots__ = ("fields", "kind", "length")

    def __init__(self, fields: Mapping[str, Any]) -> None:
        fields = dict(fields)
        lengths = set()
        for name, value in fields.items():
            if not isinstance(name, str):
                raise TypeError(f"field names are str, got {name!r}")
            if isinstance(value, np.ndarray):
                if value.ndim != 1:
                    raise ValueError(f"column {name!r} is not 1-d")
                lengths.add(len(value))
        kind = fields.get("kind")
        if not isinstance(kind, str):
            raise TypeError(
                f"a segment's kind is a constant str, got {kind!r}"
            )
        if len(lengths) != 1:
            raise ValueError(
                f"{kind} segment needs columns, all of one length"
            )
        self.fields = fields
        self.kind = kind
        self.length = lengths.pop()

    def records(self) -> List[dict]:
        """The segment's records, in segment order, as new dicts."""
        shape = {
            name: None if isinstance(value, np.ndarray) else value
            for name, value in self.fields.items()
        }
        records = list(map(dict.copy, repeat(shape, self.length)))
        # Setting a key the copy already holds keeps its place, so every
        # record has the fields' key order.
        fill = deque(maxlen=0).extend
        for name, value in self.fields.items():
            if isinstance(value, np.ndarray):
                fill(map(operator.setitem, records, repeat(name),
                         value.tolist()))
        return records

    def lines(self) -> List[str]:
        """Each record's compact JSON text, in segment order.

        One ``%``-format string serves the segment: each constant is
        encoded once by ``_ENCODE``, an integer column is printed by
        ``%d`` and a float column by ``%r`` (``float.__repr__``, which
        is how ``json.dumps`` writes a finite float). A segment holding
        a non-finite float (``NaN`` or ``Infinity`` in JSON) encodes its
        records through ``_ENCODE`` instead. A column of any other dtype
        (bool, object, ``longdouble``, ...) raises ``TypeError``.
        """
        parts: List[str] = []
        columns: List[list] = []
        finite = True
        for name, value in self.fields.items():
            # Encoded text is escaped for the template (% -> %%).
            key = encode_basestring_ascii(name).replace("%", "%%") + ":"
            if not isinstance(value, np.ndarray):
                text = "".join(_ENCODE(value, 0))
                parts.append(key + text.replace("%", "%%"))
                continue
            dtype = value.dtype
            if dtype.kind in "iu":
                parts.append(key + "%d")
            elif dtype.kind == "f" and dtype.itemsize <= 8:
                # Wider floats would leave tolist() as numpy scalars.
                parts.append(key + "%r")
                finite = finite and bool(np.isfinite(value).all())
            else:
                raise TypeError(
                    f"{self.kind} column {name!r} has dtype {dtype}; "
                    "a RecordBatch column holds integers or floats"
                )
            columns.append(value.tolist())
        if not finite:
            return ["".join(_ENCODE(record, 0)) for record in self.records()]
        template = "{" + ",".join(parts) + "}"
        if len(columns) == 1:
            return [template % value for value in columns[0]]
        return [template % row for row in zip(*columns)]


class RecordBatch(Sequence):
    """Finished records held as columns: segments plus an emission order.

    Each segment maps field names, in record key order, to 1-d numpy
    columns (one value per record) or constants; its ``kind`` field is a
    constant str, so a segment holds records of one kind. ``order``
    lists the records' positions in the concatenation of the segments,
    in the order they are emitted.

    The batch reads as a ``Sequence[Mapping]`` of its records, column
    values as Python ints and floats (``ndarray.tolist``). The record
    dicts are built at most once and shared by every reader, so they
    must not be mutated. :meth:`lines` encodes each record's compact
    JSON text from the columns, without building them, and
    :class:`~repro.obs.analytics.AggregatingSink` folds ``segments`` and
    ``order`` directly; neither may be mutated either. A pickled batch
    carries its segments' fields and its order, not the dicts.
    """

    __slots__ = ("segments", "order", "_records")

    def __init__(
        self, segments: Iterable[Mapping[str, Any]], order: np.ndarray
    ) -> None:
        self.segments: List[_Segment] = [
            s if isinstance(s, _Segment) else _Segment(s) for s in segments
        ]
        n = sum(s.length for s in self.segments)
        order = np.asarray(order)
        if order.dtype.kind not in "iu":
            raise TypeError("a batch's order holds integers")
        order = order.astype(np.intp, copy=False)
        if order.shape != (n,) or n and (
            order.min() < 0 or order.max() >= n
            or np.bincount(order, minlength=n).max() != 1
        ):
            raise ValueError("a batch's order is a permutation of its records")
        self.order = order
        self._records: Optional[List[dict]] = None

    def __reduce__(self):
        return (RecordBatch, (self.segments, self.order))

    def __len__(self) -> int:
        return len(self.order)

    def __getitem__(self, index):
        return self._dicts()[index]

    def __iter__(self) -> Iterator[dict]:
        return iter(self._dicts())

    def _dicts(self) -> List[dict]:
        if self._records is None:
            records = list(chain.from_iterable(
                [s.records() for s in self.segments]
            ))
            self._records = [records[i] for i in self.order.tolist()]
        return self._records

    def lines(self) -> List[str]:
        """Each record's ``json.dumps(record, separators=(",", ":"))``
        text, in emission order, as a new list.

        Every segment is encoded (see ``_Segment.lines``) before this
        returns, so a column that cannot be written raises ``TypeError``
        before a sink writes anything.
        """
        lines = list(chain.from_iterable([s.lines() for s in self.segments]))
        return [lines[i] for i in self.order.tolist()]

    def select(self, kinds: Collection[str]) -> "RecordBatch":
        """The records whose kind is in ``kinds``, in this batch's order.

        The selection shares this batch's segments (their columns), not
        the dicts this batch has built.
        """
        keep = [s.kind in kinds for s in self.segments]
        if all(keep):
            return self
        chosen = [s for s, k in zip(self.segments, keep) if k]
        kept = np.repeat(
            np.array(keep, dtype=bool), [s.length for s in self.segments]
        )
        renumber = np.cumsum(kept) - 1
        return RecordBatch(chosen, renumber[self.order[kept[self.order]]])


class JsonlTraceSink:
    """Writes one compact JSON object per line to a file or stream.

    The sink flushes every ``flush_every`` records (default 1000, 0
    disables periodic flushing) so a killed run leaves at most that many
    records unwritten — paired with ``read_trace(...,
    tolerate_truncation=True)`` the surviving prefix stays analysable.

    ``close`` is idempotent. A path ``target`` has its parent
    directories created on demand, so a trace can land in a directory
    that does not exist yet.
    """

    def __init__(
        self,
        target: Union[str, io.TextIOBase],
        flush_every: int = 1000,
    ) -> None:
        if flush_every < 0:
            raise ValueError("flush_every must be non-negative")
        if isinstance(target, str):
            parent = os.path.dirname(target)
            if parent:
                os.makedirs(parent, exist_ok=True)
            self._file = open(target, "w", encoding="utf-8")
            self._owns_file = True
        else:
            self._file = target
            self._owns_file = False
        self.flush_every = flush_every
        self.records_emitted = 0
        self.closed = False

    def emit(self, record: Mapping) -> None:
        if self.closed:
            raise ValueError("emit() on a closed JsonlTraceSink")
        self._file.write(json.dumps(record, separators=(",", ":")) + "\n")
        self.records_emitted += 1
        if self.flush_every and self.records_emitted % self.flush_every == 0:
            self._file.flush()

    def emit_many(self, records: Sequence[Mapping]) -> None:
        """Write a batch: the bytes ``emit`` would write record by record.

        A :class:`RecordBatch` is written from its columns
        (:meth:`RecordBatch.lines`); any other sequence is encoded record
        by record with one compact encoder. The batch is encoded before
        anything is written, so a record that cannot be serialised
        raises ``TypeError`` with the file untouched. The file is
        flushed once per batch (unless ``flush_every`` is 0).
        """
        if self.closed:
            raise ValueError("emit_many() on a closed JsonlTraceSink")
        if isinstance(records, RecordBatch):
            lines = records.lines()
        else:
            encode = _ENCODE
            lines = ["".join(encode(record, 0)) for record in records]
        if not lines:
            return
        lines.append("")  # the last record's newline
        self._file.write("\n".join(lines))
        self.records_emitted += len(records)
        if self.flush_every:
            self._file.flush()

    def close(self) -> None:
        """Flush and release the target; safe to call any number of times."""
        if self.closed:
            return
        self.closed = True
        if self._owns_file:
            self._file.close()
        else:
            self._file.flush()

    def __enter__(self) -> "JsonlTraceSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ListTraceSink:
    """Buffers records in memory (tests, in-process analysis)."""

    def __init__(self) -> None:
        self.records: List[dict] = []

    def emit(self, record: Mapping) -> None:
        self.records.append(dict(record))

    def emit_many(self, records: Sequence[Mapping]) -> None:
        self.records.extend([dict(record) for record in records])

    def kinds(self) -> Dict[str, int]:
        """Histogram of record kinds, a common assertion in tests."""
        counts: Dict[str, int] = {}
        for index, record in enumerate(self.records):
            kind = record.get("kind")
            if kind is None:
                raise TraceSchemaError(
                    f"buffered record {index} has no 'kind' field: {record!r}"
                )
            counts[kind] = counts.get(kind, 0) + 1
        return counts


_sink = None


def get_sink():
    return _sink


def set_sink(sink) -> object:
    """Install (or clear, with ``None``) the process trace sink."""
    global _sink
    previous = _sink
    _sink = sink
    return previous


def trace_active() -> bool:
    """True when events are being recorded (hot paths may pre-check)."""
    return _sink is not None


def emit(kind: str, **fields) -> None:
    """Emit one event to the installed sink (no-op without a sink)."""
    sink = _sink
    if sink is None:
        return
    record = {"v": SCHEMA_VERSION, "kind": kind}
    record.update(fields)
    sink.emit(record)


def emit_many(records: Sequence[Mapping]) -> None:
    """Hand a batch of finished records to the installed sink.

    Each record already carries its envelope, keys in the order
    :func:`emit` gives them: ``{"v": SCHEMA_VERSION, "kind": ..., ...}``.
    ``records`` is a list of dicts or a columnar :class:`RecordBatch`.
    """
    sink = _sink
    if sink is not None and records:
        emit_batch(sink, records)


def emit_batch(sink, records: Sequence[Mapping]) -> None:
    """Give ``records`` to ``sink``: whole through its ``emit_many`` when
    it has one, else one ``emit`` at a time, in order."""
    batch = getattr(sink, "emit_many", None)
    if batch is not None:
        batch(records)
    else:
        for record in records:
            sink.emit(record)


#: Fields that must hold a plain number (not bool) whenever present.
_NUMERIC_FIELDS = frozenset({"t_ms", "t_ns", "latency_ns", "wall_s"})


def validate_record(record: Mapping) -> None:
    """Raise :class:`TraceSchemaError` unless ``record`` is schema-valid."""
    if not isinstance(record, Mapping):
        raise TraceSchemaError(f"record is not an object: {record!r}")
    version = record.get("v")
    if version != SCHEMA_VERSION:
        raise TraceSchemaError(f"unsupported schema version: {version!r}")
    kind = record.get("kind")
    if kind not in EVENT_KINDS:
        raise TraceSchemaError(f"unknown event kind: {kind!r}")
    missing = EVENT_KINDS[kind] - set(record)
    if missing:
        raise TraceSchemaError(
            f"{kind} record missing fields {sorted(missing)}"
        )
    for name in _NUMERIC_FIELDS & set(record):
        value = record[name]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TraceSchemaError(
                f"{kind} field {name!r} must be numeric, got {value!r}"
            )


def read_trace(
    path: str,
    validate: bool = True,
    tolerate_truncation: bool = False,
) -> Iterator[dict]:
    """Iterate the records of a JSONL trace file, validating by default.

    ``tolerate_truncation=True`` silently drops a partial *final* line —
    the signature a killed run leaves behind — so the surviving prefix
    is still analysable. Malformed lines with valid lines after them are
    corruption, not truncation, and raise either way.
    """
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                if tolerate_truncation:
                    remainder = (rest.strip() for rest in handle)
                    if not any(remainder):
                        return  # partial final line: a truncated trace
                raise TraceSchemaError(
                    f"{path}:{line_no}: not valid JSON: {exc}"
                ) from exc
            if validate:
                try:
                    validate_record(record)
                except TraceSchemaError as exc:
                    raise TraceSchemaError(f"{path}:{line_no}: {exc}") from exc
            yield record
