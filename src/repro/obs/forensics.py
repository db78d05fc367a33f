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

:func:`extract_ledger` filters a trace down to the append-only
forensic ledger file — the forensic records plus the MEMCON test
lifecycle and refresh-ledger transitions — and returns a census (record
counts by kind, distinct pages) that the runner folds into the manifest.
:mod:`repro.obs.why` prints one row's causal chain from that ledger.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, Iterator, Mapping, Optional

from . import trace as _trace

__all__ = [
    "FORENSIC_KINDS",
    "LEDGER_KINDS",
    "extract_ledger",
    "forensics_active",
    "iter_ledger",
    "ledger_census",
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


def iter_ledger(records: Iterable[Mapping]) -> Iterator[Mapping]:
    """Filter a record stream down to ledger kinds, preserving order."""
    for record in records:
        if record.get("kind") in LEDGER_KINDS:
            yield record


def ledger_census(records: Iterable[Mapping]) -> Dict[str, Any]:
    """Summarise ledger records: counts by kind and distinct pages."""
    kinds: Dict[str, int] = {}
    rows = set()
    total = 0
    for record in records:
        total += 1
        kind = record.get("kind", "?")
        kinds[kind] = kinds.get(kind, 0) + 1
        page = record.get("page")
        if isinstance(page, int) and not isinstance(page, bool):
            rows.add(page)
    return {
        "records": total,
        "kinds": dict(sorted(kinds.items())),
        "rows": len(rows),
    }


def extract_ledger(
    source: str, out_path: Optional[str] = None
) -> Dict[str, Any]:
    """Write the forensic ledger extracted from a trace; return a census.

    ``source`` is a trace file path, read with truncation tolerance so a
    killed run's surviving prefix still yields a ledger. The ledger is
    itself a valid JSONL trace (same envelope), so
    :func:`repro.obs.trace.read_trace` and the why-CLI read it directly.
    """
    records = _trace.read_trace(
        source, validate=False, tolerate_truncation=True
    )
    sink = open(out_path, "w", encoding="utf-8") if out_path else None

    def tee(stream: Iterable[Mapping]) -> Iterator[Mapping]:
        for record in stream:
            if sink is not None:
                sink.write(json.dumps(record, separators=(",", ":")))
                sink.write("\n")
            yield record

    try:
        census = ledger_census(tee(iter_ledger(records)))
    finally:
        if sink is not None:
            sink.close()
    if out_path:
        census["ledger_path"] = out_path
    return census
