"""Render a JSONL trace and/or run manifest as human-readable tables.

Usage::

    python -m repro.obs.report t.jsonl                 # trace summary
    python -m repro.obs.report t.jsonl --manifest m.json
    python -m repro.obs.report --manifest m.json       # manifest only
    python -m repro.obs.report t.jsonl --timeseries    # windowed rollups

The trace summary counts events by kind and reconciles the MEMCON test
lifecycle (started = aborted + passed + failed); the manifest summary
prints provenance, per-experiment timings, the span tree and the final
counter snapshot. ``--timeseries`` renders the windowed rollups — the
manifest's stored ``timeseries`` when present, otherwise recomputed
from the trace file via :func:`repro.obs.analytics.aggregate_trace`.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from .analytics import aggregate_trace
from .manifest import load_manifest
from .trace import read_trace

__all__ = [
    "main",
    "render_manifest",
    "render_timeseries",
    "render_trace_summary",
]


def _table(rows: Sequence[Sequence[Any]], header: Sequence[str]) -> str:
    rendered = [[str(v) for v in row] for row in rows]
    widths = [
        max(len(header[i]), *(len(r[i]) for r in rendered)) if rendered
        else len(header[i])
        for i in range(len(header))
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(header, widths)),
    ]
    lines.append("-" * len(lines[0]))
    for row in rendered:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


def render_trace_summary(records: Iterable[dict]) -> str:
    """Event counts by kind plus the MEMCON lifecycle reconciliation."""
    kinds: Dict[str, int] = {}
    total = 0
    for record in records:
        kinds[record["kind"]] = kinds.get(record["kind"], 0) + 1
        total += 1
    lines = [f"== trace summary: {total} events =="]
    lines.append(_table(
        sorted(kinds.items(), key=lambda kv: (-kv[1], kv[0])),
        header=("kind", "count"),
    ))
    started = kinds.get("test_started", 0)
    resolved = (
        kinds.get("test_aborted", 0)
        + kinds.get("test_passed", 0)
        + kinds.get("test_failed", 0)
    )
    if started or resolved:
        verdict = "OK" if started == resolved else "MISMATCH"
        lines.append(
            f"memcon lifecycle: {started} started = "
            f"{kinds.get('test_aborted', 0)} aborted + "
            f"{kinds.get('test_passed', 0)} passed + "
            f"{kinds.get('test_failed', 0)} failed -> {verdict}"
        )
    return "\n".join(lines)


def _render_span(node: Dict[str, Any], depth: int, out: List[Tuple]) -> None:
    out.append((
        "  " * depth + node["name"],
        f"{node['elapsed_s']:.3f}s",
        node["count"],
    ))
    for child in node.get("children", []):
        _render_span(child, depth + 1, out)


def render_manifest(manifest: Dict[str, Any]) -> str:
    """Provenance, timings, span tree and counters of one manifest."""
    lines = [
        f"== run manifest (schema {manifest.get('schema')}) ==",
        f"experiments: {', '.join(manifest.get('experiments', []))}",
        f"seed: {manifest.get('seed')}  quick: {manifest.get('quick')}",
        f"git: {manifest.get('git_rev') or 'unknown'}  "
        f"python: {manifest.get('python')}",
        f"wall: {manifest.get('wall_s', 0.0):.3f}s",
    ]
    timings = manifest.get("timings") or []
    if timings:
        lines.append("")
        lines.append(_table(
            [(t["name"], f"{t['wall_s']:.3f}s") for t in timings],
            header=("experiment", "wall"),
        ))
    spans = manifest.get("spans")
    if spans:
        rows: List[Tuple] = []
        _render_span(spans, 0, rows)
        lines.append("")
        lines.append(_table(rows, header=("span", "elapsed", "count")))
    metrics = manifest.get("metrics") or {}
    counters = metrics.get("counters") or {}
    if counters:
        lines.append("")
        lines.append(_table(
            sorted(counters.items()), header=("counter", "value")
        ))
    workers = manifest.get("workers")
    if workers:
        stats = workers.get("stats") or {}
        lines.append("")
        lines.append(
            f"workers: jobs {workers.get('jobs')} "
            f"({workers.get('start_method')}), "
            + ", ".join(f"{k} {v}" for k, v in sorted(stats.items()))
        )
        rows = workers.get("workers") or []
        if rows:
            lines.append(_table(
                [
                    (
                        w.get("shard"), w.get("units"),
                        f"{(w.get('rss_peak_bytes') or 0) / (1 << 20):.0f}MB",
                    )
                    for w in rows
                ],
                header=("worker", "units", "rss_peak"),
            ))
    forensics = manifest.get("forensics")
    if forensics:
        lines.append("")
        lines.append(
            f"forensics: {forensics.get('records', 0)} ledger records "
            f"across {forensics.get('rows', 0)} rows"
            + (
                f" ({forensics.get('ledger_path')})"
                if forensics.get("ledger_path") else ""
            )
        )
    profile = manifest.get("profile")
    if profile:
        lines.append("")
        lines.append(
            f"profile: {profile.get('sample_count', 0)} samples at "
            f"{profile.get('interval_s', 0.0) * 1000:g} ms, "
            f"{profile.get('attributed_fraction', 0.0):.1%} attributed, "
            f"rss peak "
            f"{(profile.get('rss_peak_bytes') or 0) / (1 << 20):.0f}MB"
        )
        stacks = sorted(
            (profile.get("stacks") or {}).items(),
            key=lambda kv: -kv[1],
        )[:10]
        if stacks:
            lines.append(_table(stacks, header=("stack", "samples")))
        mem = profile.get("mem")
        if mem:
            lines.append(
                f"tracemalloc peak: "
                f"{mem.get('tracemalloc_peak_bytes', 0) / (1 << 20):.1f}MB"
            )
    return "\n".join(lines)


def _fmt_fraction(value: Optional[float]) -> str:
    return f"{value:.1%}" if value is not None else "-"


def _fmt_opt(value: Optional[float], spec: str = ".0f") -> str:
    return format(value, spec) if value is not None else "-"


def render_timeseries(timeseries: Dict[str, Any]) -> str:
    """Windowed rollups: HI/LO-REF population, tests, MC, PRIL, energy."""
    window_ms = timeseries.get("window_ms", 0.0)
    lines = [
        f"== time series: {timeseries.get('events_total', 0)} events, "
        f"{window_ms:g} ms windows ==",
    ]
    windows = timeseries.get("windows") or []
    if windows:
        rows = []
        for w in windows:
            tests = w.get("tests") or {}
            ref = w.get("ref")
            mc = w.get("mc")
            rows.append((
                f"{w['t_ms']:g}",
                _fmt_fraction(ref and ref.get("lo_fraction")),
                _fmt_fraction(ref and ref.get("hi_fraction")),
                tests.get("started", 0),
                tests.get("passed", 0),
                tests.get("failed", 0),
                tests.get("aborted", 0),
                mc["requests"] if mc else "-",
                _fmt_opt(mc and mc.get("latency_p95_ns")),
                _fmt_opt(mc and mc.get("refresh_per_s"), ".1f"),
            ))
        lines.append(_table(rows, header=(
            "t_ms", "lo%", "hi%", "start", "pass", "fail", "abort",
            "mc_req", "p95_ns", "ref/s",
        )))
    pril = timeseries.get("pril") or []
    if pril:
        lines.append("")
        lines.append(_table(
            [
                (
                    q["quantum"], q["predicted"], q["buffer"], q["started"],
                    q["resolved"], q["aborted"],
                    _fmt_fraction(q.get("hit_rate")),
                )
                for q in pril
            ],
            header=("quantum", "predicted", "buffer", "started",
                    "resolved", "aborted", "hit_rate"),
        ))
    energy = timeseries.get("energy")
    if energy:
        totals = energy.get("totals") or {}
        lines.append("")
        lines.append(
            f"energy ({len(energy.get('rollups') or [])} rollups): "
            f"refresh {totals.get('refresh_pj', 0.0):.1f} pJ, "
            f"access {totals.get('access_pj', 0.0):.1f} pJ, "
            f"background {totals.get('background_pj', 0.0):.1f} pJ"
        )
    if not windows and not pril and not energy:
        lines.append("(no windowed events in this run)")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description="Summarise a repro.obs JSONL trace and/or run manifest.",
    )
    parser.add_argument("trace", nargs="?", default=None,
                        help="JSONL trace file written with --trace")
    parser.add_argument("--manifest", default=None,
                        help="run manifest JSON written next to the output")
    parser.add_argument("--no-validate", action="store_true",
                        help="skip per-record schema validation")
    parser.add_argument("--timeseries", action="store_true",
                        help="also render windowed rollups (from the "
                        "manifest when stored, else from the trace)")
    parser.add_argument("--window-ms", type=float, default=1024.0,
                        help="window width when recomputing rollups from "
                        "the trace (default %(default)s)")
    parser.add_argument("--tolerate-truncation", action="store_true",
                        help="skip a partial final trace line (killed run)")
    args = parser.parse_args(argv)
    if not args.trace and args.manifest is None:
        parser.error("give a trace file, --manifest, or both")
    sections: List[str] = []
    if args.trace:
        records = list(read_trace(
            args.trace,
            validate=not args.no_validate,
            tolerate_truncation=args.tolerate_truncation,
        ))
        sections.append(render_trace_summary(records))
    manifest = load_manifest(args.manifest) if args.manifest else None
    if manifest is not None:
        sections.append(render_manifest(manifest))
    if args.timeseries:
        timeseries = (manifest or {}).get("timeseries")
        if timeseries is None:
            if not args.trace:
                parser.error(
                    "--timeseries needs a trace file or a manifest that "
                    "stored rollups"
                )
            timeseries = aggregate_trace(records, window_ms=args.window_ms)
        sections.append(render_timeseries(timeseries))
    print("\n\n".join(sections))
    return 0


if __name__ == "__main__":
    sys.exit(main())
