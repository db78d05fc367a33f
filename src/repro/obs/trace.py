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
"""

from __future__ import annotations

import io
import json
import os
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import (
    Callable, Dict, Iterator, List, Mapping, Sequence, Tuple, Union,
)

__all__ = [
    "EVENT_KINDS",
    "SCHEMA_VERSION",
    "JsonlTraceSink",
    "ListTraceSink",
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

        The batch is encoded before anything is written, so a record
        that cannot be serialised raises ``TypeError`` with the file
        untouched. The file is flushed once per batch (unless
        ``flush_every`` is 0).
        """
        if self.closed:
            raise ValueError("emit_many() on a closed JsonlTraceSink")
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
