"""``python -m repro.obs.why --row R`` — why did this row fail (or not)?

The answer is the row's **causal chain**, read from a forensic ledger
(see :mod:`repro.obs.forensics`) recorded by a ``--forensics`` run:
every ledger record naming the row or page, in stream (simulated-time)
order — PRIL LO-REF grants, the MEMCON test lifecycle, refresh-ledger
transitions, and the fault-predicate evaluations that found it failing.
"""

from __future__ import annotations

import argparse
import sys
from typing import Iterable, List, Mapping, Optional, Sequence

from .manifest import load_manifest
from .trace import read_trace

__all__ = ["causal_chain", "main", "render_chain"]


def causal_chain(records: Iterable[Mapping], row: int) -> List[dict]:
    """All ledger records naming ``row``, in stream (time) order.

    ``predicate_eval`` records name rows through their bounded
    ``rows_failed_sample`` list, so a row past the sample cap misses
    those entries; the per-page kinds are never sampled.
    """
    chain: List[dict] = []
    for record in records:
        if record.get("page") == row or row in (
            record.get("rows_failed_sample") or ()
        ):
            chain.append(dict(record))
    return chain


def _describe(record: Mapping) -> str:
    kind = record.get("kind")
    if kind == "pril_grant":
        parts = [f"PRIL granted LO-REF (quantum {record.get('quantum')}"]
        if "write_ms" in record:
            parts.append(f", single write at {record['write_ms']:.1f} ms")
        if "next_write_ms" in record:
            parts.append(f", next write {record['next_write_ms']:.1f} ms")
        return "".join(parts) + ")"
    if kind == "test_started":
        return "MEMCON retention test started"
    if kind == "test_aborted":
        return "MEMCON test aborted (page written mid-test)"
    if kind == "test_passed":
        return "MEMCON test passed -> LO-REF"
    if kind == "test_failed":
        return "MEMCON test failed -> stays HI-REF"
    if kind == "ref_transition":
        return f"refresh ledger: {record.get('from')} -> {record.get('to')}"
    if kind == "predicate_eval":
        crc = record.get("content_crc")
        crc_text = f", content crc {crc:08x}" if isinstance(crc, int) else ""
        return (
            f"fault predicate over {record.get('rows')} rows -> "
            f"{record.get('failed')} failing "
            f"(interval {record.get('interval_ms')} ms{crc_text})"
        )
    return str(dict(record))


def _record_time(record: Mapping) -> Optional[float]:
    """The record's simulated-time clock in ms, if it carries one."""
    t_ms = record.get("t_ms")
    if isinstance(t_ms, (int, float)) and not isinstance(t_ms, bool):
        return float(t_ms)
    t_ns = record.get("t_ns")
    if isinstance(t_ns, (int, float)) and not isinstance(t_ns, bool):
        return float(t_ns) * 1e-6
    return None


def render_chain(chain: Sequence[Mapping], row: int) -> str:
    lines = [f"causal chain for row {row} ({len(chain)} records):"]
    for record in chain:
        t = _record_time(record)
        stamp = f"{t:>12.3f} ms" if t is not None else " " * 15
        lines.append(f"  {stamp}  {_describe(record)}")
    return "\n".join(lines)


def _resolve_source(
    manifest_path: Optional[str], trace_path: Optional[str]
) -> str:
    if trace_path:
        return trace_path
    if manifest_path:
        manifest = load_manifest(manifest_path)
        info = manifest.get("forensics") or {}
        source = info.get("ledger_path") or manifest.get("trace_path")
        if source:
            return source
    raise SystemExit(
        "no ledger to read: pass --trace FILE or a --manifest whose "
        "run recorded one (--forensics)"
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.why",
        description=(
            "Print a row's causal decision chain from a forensic ledger."
        ),
    )
    parser.add_argument("--row", type=int, required=True, help="row/page id")
    parser.add_argument(
        "--manifest", help="run manifest naming the ledger (or trace)"
    )
    parser.add_argument(
        "--trace", metavar="FILE", help="ledger or trace file",
    )
    args = parser.parse_args(argv)

    records = read_trace(
        _resolve_source(args.manifest, args.trace),
        validate=False, tolerate_truncation=True,
    )
    chain = causal_chain(records, args.row)
    if not chain:
        print(f"no ledger records for row {args.row}", file=sys.stderr)
        return 1
    print(render_chain(chain, args.row))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
