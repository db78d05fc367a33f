"""Decision-provenance ledger for per-row failure forensics.

Aggregate observability (rollups, gantts, flamegraphs) answers *how
much*; this layer answers *why this row*. When the forensics gate is on,
instrumented decision points — PRIL LO-REF grants and revocations and
every batch fault-predicate evaluation — emit compact records into the
normal event trace (:mod:`repro.obs.trace`). Because they ride the same
stream, a sharded run carries them like any other record: its pool
workers hand each unit's records to the parent, which emits them in
unit order, so a serial ledger and a ``--jobs N`` ledger are
byte-identical.

The gate mirrors the sink pattern: one module-global bool, checked
before any payload is assembled, so disabled forensics cost one
attribute load per *decision* (not per access) on already-instrumented
paths and nothing anywhere else.

:class:`LedgerSink` sits in the runner's sink tee and writes the
append-only forensic ledger file as the run streams — the forensic
records plus the MEMCON test lifecycle and refresh-ledger transitions,
the same bytes the trace holds for them — and keeps a census (record
counts by kind, distinct pages) that the runner folds into the manifest.
:mod:`repro.obs.why` prints one row's causal chain from that ledger.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Sequence, Set

from .trace import JsonlTraceSink

__all__ = [
    "FORENSIC_KINDS",
    "LEDGER_KINDS",
    "LedgerSink",
    "forensics_active",
    "set_forensics",
]

#: Kinds that exist only for forensics (emitted behind the gate).
FORENSIC_KINDS = frozenset({"pril_grant", "predicate_eval"})

#: Kinds copied into the ledger: the forensic kinds plus the causal
#: slice of the ordinary stream (test lifecycle and refresh-ledger
#: transitions name the page they concern, so the why-CLI can build a
#: chain even for rows that never reached a predicate evaluation).
LEDGER_KINDS = FORENSIC_KINDS | frozenset(
    {
        "test_started",
        "test_aborted",
        "test_passed",
        "test_failed",
        "ref_transition",
    }
)

_enabled = False


def forensics_active() -> bool:
    """True when forensic records should be emitted (pre-check this)."""
    return _enabled


def set_forensics(enabled: bool) -> bool:
    """Toggle the process-wide forensics gate; returns the prior state."""
    global _enabled
    previous = _enabled
    _enabled = bool(enabled)
    return previous


class LedgerSink:
    """Writes the ledger-kind records of a stream to ``path``, in order.

    A trace sink for the runner's tee: every record it is handed whose
    kind is in :data:`LEDGER_KINDS` goes through a
    :class:`~repro.obs.trace.JsonlTraceSink`, so the ledger is a valid
    JSONL trace whose lines are the trace's ledger-kind lines, byte for
    byte. :meth:`census` summarises what was written.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._kinds: Dict[str, int] = {}
        self._pages: Set[int] = set()
        self._jsonl = JsonlTraceSink(path)

    def _count(self, record: Mapping) -> None:
        kind = record["kind"]
        self._kinds[kind] = self._kinds.get(kind, 0) + 1
        page = record.get("page")
        if isinstance(page, int) and not isinstance(page, bool):
            self._pages.add(page)

    def emit(self, record: Mapping) -> None:
        if record.get("kind") in LEDGER_KINDS:
            self._count(record)
            self._jsonl.emit(record)

    def emit_many(self, records: Sequence[Mapping]) -> None:
        ledger = [r for r in records if r.get("kind") in LEDGER_KINDS]
        for record in ledger:
            self._count(record)
        self._jsonl.emit_many(ledger)

    def census(self) -> Dict[str, Any]:
        """Record counts by kind, distinct pages and the ledger path."""
        return {
            "records": sum(self._kinds.values()),
            "kinds": dict(sorted(self._kinds.items())),
            "rows": len(self._pages),
            "ledger_path": self.path,
        }

    def close(self) -> None:
        self._jsonl.close()
