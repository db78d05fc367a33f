"""Static HTML run dashboard: one self-contained file, no JavaScript.

``python -m repro.obs.dashboard MANIFEST [TRACE]`` renders a run
manifest (plus, optionally, its JSONL trace and ``BENCH_*.json``
perf trajectories) into a single HTML file with inline SVG charts:

* **run provenance** — experiments, seed, git revision, wall time;
* **rollup time series** — LO-REF / testing row coverage, test outcomes
  per window and controller latency percentiles, all from the manifest's
  ``"timeseries"`` rollups (recomputed offline from the trace when it
  is given);
* **flame view** — the run's span tree (``"spans"``) as a classic
  flamegraph layout; under ``--jobs N`` it holds the workers' unit
  spans too, summed across workers;
* **worker timeline** — a gantt of each pool worker's per-unit
  intervals, from the executor's worker rows (``workers.workers``);
* **failure forensics** — the ledger census a ``--forensics`` run folds
  into the manifest: record counts per ledger kind and a pointer at the
  why-CLI;
* **BENCH trajectories** — sparkline small-multiples over the history
  lists in ``BENCH_*.json`` files passed via ``--bench``.

Everything is inline (styles, SVG) so CI can upload the file as an
artifact and it opens anywhere with zero network access. There is no
script tag: hover detail rides on native SVG ``<title>`` tooltips, and
every chart has a data-table fallback in a ``<details>`` block. Colors
are CSS custom properties with a ``prefers-color-scheme: dark``
override, so the one file serves both modes.
"""

from __future__ import annotations

import argparse
import html
import json
import os
import sys
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from .analytics import aggregate_trace
from .manifest import load_manifest
from .trace import read_trace

__all__ = ["render_dashboard", "main"]


def _esc(value: Any) -> str:
    return html.escape(str(value), quote=True)


def _fmt(value: Any) -> str:
    """Compact human number for labels.

    Falls through to ``str`` for non-numbers, so any interpolation of
    its result into markup must go through :func:`_esc` — manifests are
    attacker-ish inputs (a unit named ``<b>x`` must render literally).
    """
    if value is None:
        return "-"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}".rstrip("0").rstrip(".")
        return f"{value:.3g}"
    return str(value)


def _cell(value: Any) -> str:
    """Escaped compact number: the only safe form inside markup."""
    return _esc(_fmt(value))


# ----------------------------------------------------------------------
# Palette: the validated reference palette (see DESIGN.md); light values
# with a dark override. Chart text always wears ink tokens, never a
# series color.
# ----------------------------------------------------------------------
_CSS = """
:root {
  color-scheme: light;
  --surface-1: #fcfcfb;
  --page: #f9f9f7;
  --ink-1: #0b0b0b;
  --ink-2: #52514e;
  --muted: #898781;
  --grid: #e1e0d9;
  --baseline: #c3c2b7;
  --border: rgba(11,11,11,0.10);
  --series-1: #2a78d6;
  --series-2: #eb6834;
  --series-3: #1baf7a;
  --status-good: #0ca30c;
  --status-warning: #fab219;
  --status-critical: #d03b3b;
  --flame-0: #2a78d6;
  --flame-1: #5598e7;
  --flame-2: #86b6ef;
  --flame-3: #b7d3f6;
}
@media (prefers-color-scheme: dark) {
  :root {
    color-scheme: dark;
    --surface-1: #1a1a19;
    --page: #0d0d0d;
    --ink-1: #ffffff;
    --ink-2: #c3c2b7;
    --muted: #898781;
    --grid: #2c2c2a;
    --baseline: #383835;
    --border: rgba(255,255,255,0.10);
    --series-1: #3987e5;
    --series-2: #d95926;
    --series-3: #199e70;
    --flame-0: #184f95;
    --flame-1: #256abf;
    --flame-2: #3987e5;
    --flame-3: #6da7ec;
  }
}
* { box-sizing: border-box; }
body {
  margin: 0; padding: 24px;
  background: var(--page); color: var(--ink-1);
  font: 14px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif;
}
main { max-width: 880px; margin: 0 auto; }
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 15px; margin: 0 0 8px; color: var(--ink-1); }
section {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 16px 16px 12px; margin: 16px 0;
}
.sub { color: var(--ink-2); margin: 0 0 16px; }
.prov { display: flex; flex-wrap: wrap; gap: 8px 24px; margin: 0; }
.prov div { min-width: 110px; }
.prov dt { color: var(--muted); font-size: 12px; }
.prov dd { margin: 0; font-variant-numeric: tabular-nums; }
.legend { display: flex; flex-wrap: wrap; gap: 4px 16px;
  color: var(--ink-2); font-size: 12px; margin: 4px 0 0; }
.legend span::before {
  content: ""; display: inline-block; width: 10px; height: 10px;
  border-radius: 2px; margin-right: 6px; background: var(--sw);
}
svg { display: block; width: 100%; height: auto; }
svg text { font: 11px system-ui, -apple-system, "Segoe UI", sans-serif;
  fill: var(--ink-2); }
svg text.muted { fill: var(--muted); }
svg text.num { font-variant-numeric: tabular-nums; }
svg text.onmark { fill: #ffffff; }
.empty { color: var(--muted); font-style: italic; }
details { margin-top: 8px; color: var(--ink-2); font-size: 12px; }
details table { border-collapse: collapse; margin-top: 6px; }
details th, details td {
  border: 1px solid var(--grid); padding: 2px 8px; text-align: right;
  font-variant-numeric: tabular-nums; }
details th:first-child, details td:first-child { text-align: left; }
"""


# ----------------------------------------------------------------------
# SVG primitives
# ----------------------------------------------------------------------
_W, _H = 760, 200
_ML, _MR, _MT, _MB = 52, 12, 8, 22


def _svg(body: str, width: int = _W, height: int = _H) -> str:
    return (
        f'<svg viewBox="0 0 {width} {height}" role="img" '
        f'preserveAspectRatio="xMidYMid meet">{body}</svg>'
    )


def _frame(width: int, height: int, y_ticks: Sequence[Tuple[float, str]],
           x_labels: Sequence[Tuple[float, str]]) -> str:
    """Gridlines, baseline and axis labels shared by the xy charts.

    ``y_ticks`` pairs a pixel y with its label; ``x_labels`` pairs a
    pixel x with its label.
    """
    parts: List[str] = []
    for y, label in y_ticks:
        parts.append(
            f'<line x1="{_ML}" y1="{y:.1f}" x2="{width - _MR}" '
            f'y2="{y:.1f}" stroke="var(--grid)" stroke-width="1"/>'
        )
        parts.append(
            f'<text class="num" x="{_ML - 6}" y="{y + 3.5:.1f}" '
            f'text-anchor="end">{_esc(label)}</text>'
        )
    base = height - _MB
    parts.append(
        f'<line x1="{_ML}" y1="{base}" x2="{width - _MR}" y2="{base}" '
        f'stroke="var(--baseline)" stroke-width="1"/>'
    )
    for x, label in x_labels:
        parts.append(
            f'<text class="muted num" x="{x:.1f}" y="{height - 6}" '
            f'text-anchor="middle">{_esc(label)}</text>'
        )
    return "".join(parts)


def _y_scale(vmax: float, height: int) -> Tuple[float, List[Tuple[float, str]]]:
    """Pixels-per-unit plus three round-ish gridline ticks."""
    vmax = vmax if vmax > 0 else 1.0
    plot_h = height - _MT - _MB
    ticks = []
    for frac in (0.0, 0.5, 1.0):
        value = vmax * frac
        y = height - _MB - plot_h * frac
        ticks.append((y, _fmt(value)))
    return plot_h / vmax, ticks


def _line_chart(
    series: Sequence[Dict[str, Any]],
    x_values: Sequence[float],
    x_unit: str = "",
    height: int = _H,
    y_max: Optional[float] = None,
) -> str:
    """Multi-series line chart. ``series[i]["points"]`` aligns with
    ``x_values``; ``None`` points break the line."""
    if not x_values:
        return ""
    x_lo, x_hi = min(x_values), max(x_values)
    span = (x_hi - x_lo) or 1.0
    plot_w = _W - _ML - _MR
    if y_max is None:
        y_max = max(
            (p for s in series for p in s["points"] if p is not None),
            default=1.0,
        )
    ppu, y_ticks = _y_scale(float(y_max), height)
    base = height - _MB
    x_labels = [
        (_ML, f"{_fmt(x_lo)}{x_unit}"),
        (_W - _MR, f"{_fmt(x_hi)}{x_unit}"),
    ]
    parts = [_frame(_W, height, y_ticks, x_labels)]
    for s in series:
        segments: List[List[str]] = [[]]
        for x, y in zip(x_values, s["points"]):
            if y is None:
                if segments[-1]:
                    segments.append([])
                continue
            px = _ML + (x - x_lo) / span * plot_w
            py = base - min(float(y), y_max) * ppu
            segments[-1].append(f"{px:.1f},{py:.1f}")
        for seg in segments:
            if len(seg) == 1:
                cx, cy = seg[0].split(",")
                parts.append(
                    f'<circle cx="{cx}" cy="{cy}" r="2.5" '
                    f'fill="var({s["color"]})"/>'
                )
            elif len(seg) > 1:
                parts.append(
                    f'<polyline points="{" ".join(seg)}" fill="none" '
                    f'stroke="var({s["color"]})" stroke-width="2" '
                    f'stroke-linejoin="round" stroke-linecap="round"/>'
                )
    return _svg("".join(parts), height=height)


def _stacked_bars(
    windows: Sequence[Mapping[str, Any]],
    segments: Sequence[Tuple[str, str]],
    values: Sequence[Dict[str, float]],
    x_unit: str = " ms",
    height: int = _H,
) -> str:
    """Stacked bars per window with 2px surface gaps between segments."""
    if not windows:
        return ""
    totals = [sum(v.values()) for v in values]
    y_max = max(totals) or 1.0
    ppu, y_ticks = _y_scale(float(y_max), height)
    base = height - _MB
    plot_w = _W - _ML - _MR
    n = len(windows)
    slot = plot_w / n
    bar_w = max(min(slot - 2.0, 40.0), 1.0)
    x_labels = [
        (_ML, f"{_fmt(windows[0].get('t_ms', 0))}{x_unit}"),
        (_W - _MR, f"{_fmt(windows[-1].get('t_ms', 0))}{x_unit}"),
    ]
    parts = [_frame(_W, height, y_ticks, x_labels)]
    for i, (window, value) in enumerate(zip(windows, values)):
        x = _ML + slot * i + (slot - bar_w) / 2
        y = base
        tip = ", ".join(
            f"{key} {int(value.get(key, 0))}" for key, _color in segments
        )
        bar = [f'<g><title>t={_cell(window.get("t_ms"))}{x_unit}: {_esc(tip)}</title>']
        for key, color in segments:
            v = float(value.get(key, 0))
            if v <= 0:
                continue
            h = v * ppu
            y -= h
            # 2px gap carved from the segment's top end.
            draw_h = max(h - 2.0, 0.75)
            bar.append(
                f'<rect x="{x:.1f}" y="{y:.1f}" width="{bar_w:.1f}" '
                f'height="{draw_h:.1f}" rx="1" fill="var({color})"/>'
            )
        bar.append("</g>")
        parts.append("".join(bar))
    return _svg("".join(parts), height=height)


def _hbar_chart(items: Sequence[Tuple[str, float]], height_per: int = 22) -> str:
    """Horizontal bars (event-kind histogram fallback)."""
    if not items:
        return ""
    v_max = max(v for _n, v in items) or 1.0
    label_w, value_w = 180, 64
    plot_w = _W - label_w - value_w
    height = height_per * len(items) + 8
    parts = []
    for i, (name, value) in enumerate(items):
        y = 4 + i * height_per
        w = max(plot_w * float(value) / v_max, 1.5)
        parts.append(
            f'<text x="{label_w - 8}" y="{y + 14}" text-anchor="end">'
            f"{_esc(name)}</text>"
        )
        parts.append(
            f'<g><title>{_esc(name)}: {_cell(value)}</title>'
            f'<rect x="{label_w}" y="{y + 3}" width="{w:.1f}" height="14" '
            f'rx="4" fill="var(--series-1)"/></g>'
        )
        parts.append(
            f'<text class="num" x="{label_w + w + 6:.1f}" y="{y + 14}">'
            f"{_cell(value)}</text>"
        )
    return _svg("".join(parts), height=height)


# ----------------------------------------------------------------------
# Flame view
# ----------------------------------------------------------------------
class _Flame:
    __slots__ = ("name", "value", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.children: Dict[str, "_Flame"] = {}


def _flame_from_spans(span: Mapping[str, Any]) -> Optional[_Flame]:
    def build(data: Mapping[str, Any]) -> _Flame:
        node = _Flame(str(data.get("name", "?")))
        node.value = float(data.get("elapsed_s", 0.0))
        child_sum = 0.0
        for child_data in data.get("children") or []:
            child = build(child_data)
            node.children[child.name] = child
            child_sum += child.value
        node.value = max(node.value, child_sum)
        return node

    root = build(span)
    return root if root.value else None


def _render_flame(root: _Flame, max_depth: int = 8) -> str:
    row_h = 22
    rows: List[str] = []
    total = root.value or 1.0
    depth_seen = [0]

    def render(node: _Flame, x0: float, depth: int) -> None:
        if depth > max_depth:
            return
        depth_seen[0] = max(depth_seen[0], depth)
        width = _W * node.value / total
        if width < 1.0:
            return
        y = depth * (row_h + 2)
        pct = 100.0 * node.value / total
        cls = f"--flame-{min(depth, 3)}"
        rows.append(
            f'<g><title>{_esc(node.name)}: {_cell(node.value)}s '
            f"({pct:.1f}%)</title>"
            f'<rect x="{x0:.1f}" y="{y}" width="{max(width - 1.5, 1.0):.1f}" '
            f'height="{row_h}" rx="2" fill="var({cls})"/></g>'
        )
        if width > 60:
            label = node.name if len(node.name) * 7 < width else (
                node.name[: max(int(width / 7) - 1, 1)] + "…"
            )
            text_cls = "onmark" if depth < 2 else ""
            rows.append(
                f'<text class="{text_cls}" x="{x0 + 6:.1f}" y="{y + 15}">'
                f"{_esc(label)}</text>"
            )
        x = x0
        for child in sorted(
            node.children.values(), key=lambda n: n.value, reverse=True
        ):
            render(child, x, depth + 1)
            x += _W * child.value / total

    render(root, 0.0, 0)
    height = (depth_seen[0] + 1) * (row_h + 2)
    return _svg("".join(rows), height=height)


# ----------------------------------------------------------------------
# Worker timeline (gantt)
# ----------------------------------------------------------------------
def _render_worker_timeline(workers: Sequence[Mapping[str, Any]]) -> str:
    t_lo = t_hi = None
    for worker in workers:
        for interval in worker.get("timeline") or []:
            for key in ("t_start", "t_end"):
                t = interval.get(key)
                if t is None:
                    continue
                t_lo = t if t_lo is None else min(t_lo, t)
                t_hi = t if t_hi is None else max(t_hi, t)
    if t_lo is None or t_hi is None:
        return ""
    span = (t_hi - t_lo) or 1.0
    label_w = 150
    plot_w = _W - label_w - 12
    row_h, gap = 20, 6
    height = len(workers) * (row_h + gap) + 26
    parts: List[str] = []
    base_y = height - 18
    parts.append(
        f'<line x1="{label_w}" y1="{base_y}" x2="{_W - 12}" y2="{base_y}" '
        f'stroke="var(--baseline)" stroke-width="1"/>'
    )
    parts.append(
        f'<text class="muted num" x="{label_w}" y="{height - 4}">0s</text>'
    )
    parts.append(
        f'<text class="muted num" x="{_W - 12}" y="{height - 4}" '
        f'text-anchor="end">{_fmt(span)}s</text>'
    )
    for i, worker in enumerate(workers):
        y = i * (row_h + gap) + 2
        label = str(worker.get("shard", "?"))
        parts.append(
            f'<text x="{label_w - 8}" y="{y + 14}" text-anchor="end">'
            f"{_esc(label)}</text>"
        )
        for interval in worker.get("timeline") or []:
            t0 = interval.get("t_start")
            t1 = interval.get("t_end")
            if t0 is None or t1 is None:
                continue
            x = label_w + (t0 - t_lo) / span * plot_w
            w = max((t1 - t0) / span * plot_w - 1.5, 1.5)
            name = f"{interval.get('experiment')}/{interval.get('unit')}"
            wall = interval.get("wall_s")
            tip = f"{name} ({_fmt(wall)}s)" if wall is not None else name
            parts.append(
                f"<g><title>{_esc(label)}: {_esc(tip)}</title>"
                f'<rect x="{x:.1f}" y="{y}" width="{w:.1f}" '
                f'height="{row_h}" rx="3" fill="var(--series-1)"/></g>'
            )
    return _svg("".join(parts), height=height)


# ----------------------------------------------------------------------
# BENCH trajectories
# ----------------------------------------------------------------------
_BENCH_SKIP_FIELDS = {"jobs", "recorded_at", "history", "path"}


def _bench_trajectories(
    bench_files: Mapping[str, Mapping[str, Any]],
) -> List[Tuple[str, List[float]]]:
    """(label, values-oldest-first) per numeric field with history."""
    out: List[Tuple[str, List[float]]] = []
    for file_label, data in sorted(bench_files.items()):
        if not isinstance(data, Mapping):
            continue
        for bench_name, entry in sorted(data.items()):
            if not isinstance(entry, Mapping):
                continue
            rows = list(entry.get("history") or []) + [entry]
            for field in sorted(entry):
                if field in _BENCH_SKIP_FIELDS:
                    continue
                value = entry[field]
                if isinstance(value, bool) or not isinstance(
                    value, (int, float)
                ):
                    continue
                values = [
                    float(row[field])
                    for row in rows
                    if isinstance(row, Mapping)
                    and isinstance(row.get(field), (int, float))
                    and not isinstance(row.get(field), bool)
                ]
                if len(values) < 2:
                    continue
                out.append((f"{bench_name}.{field}", values))
    return out


def _sparkline(label: str, values: Sequence[float]) -> str:
    w, h = 240, 56
    pad = 6
    v_lo, v_hi = min(values), max(values)
    span = (v_hi - v_lo) or 1.0
    n = len(values)
    points = []
    for i, v in enumerate(values):
        x = pad + (w - 2 * pad) * (i / max(n - 1, 1))
        y = h - 16 - (h - 26) * ((v - v_lo) / span)
        points.append((x, y))
    path = " ".join(f"{x:.1f},{y:.1f}" for x, y in points)
    lx, ly = points[-1]
    tip = " → ".join(_fmt(v) for v in values)
    body = (
        f"<g><title>{_esc(label)}: {_esc(tip)}</title>"
        f'<polyline points="{path}" fill="none" stroke="var(--series-1)" '
        f'stroke-width="2" stroke-linejoin="round"/>'
        f'<circle cx="{lx:.1f}" cy="{ly:.1f}" r="3" '
        f'fill="var(--series-1)"/></g>'
        f'<text class="muted" x="{pad}" y="{h - 3}">{_esc(label)}</text>'
        f'<text class="num" x="{w - pad}" y="{h - 3}" text-anchor="end">'
        f"{_fmt(values[-1])}</text>"
    )
    return (
        f'<svg viewBox="0 0 {w} {h}" role="img" '
        f'style="width:{w}px">{body}</svg>'
    )


# ----------------------------------------------------------------------
# Sections
# ----------------------------------------------------------------------
def _legend(entries: Sequence[Tuple[str, str]]) -> str:
    spans = "".join(
        f'<span style="--sw: var({color})">{_esc(label)}</span>'
        for label, color in entries
    )
    return f'<p class="legend">{spans}</p>'


def _windows_table(windows: Sequence[Mapping[str, Any]], limit: int = 48) -> str:
    head = (
        "<tr><th>t_ms</th><th>lo frac</th><th>testing frac</th>"
        "<th>passed</th><th>failed</th><th>aborted</th>"
        "<th>p50 ns</th><th>p95 ns</th><th>p99 ns</th></tr>"
    )
    rows = []
    for window in windows[:limit]:
        ref = window.get("ref") or {}
        tests = window.get("tests") or {}
        mc = window.get("mc") or {}
        rows.append(
            "<tr>"
            f"<td>{_cell(window.get('t_ms'))}</td>"
            f"<td>{_cell(ref.get('lo_fraction'))}</td>"
            f"<td>{_cell(ref.get('testing_fraction'))}</td>"
            f"<td>{_cell(tests.get('passed'))}</td>"
            f"<td>{_cell(tests.get('failed'))}</td>"
            f"<td>{_cell(tests.get('aborted'))}</td>"
            f"<td>{_cell(mc.get('latency_p50_ns'))}</td>"
            f"<td>{_cell(mc.get('latency_p95_ns'))}</td>"
            f"<td>{_cell(mc.get('latency_p99_ns'))}</td>"
            "</tr>"
        )
    more = (
        f"<p>…{len(windows) - limit} more windows</p>"
        if len(windows) > limit else ""
    )
    return (
        "<details><summary>Data table</summary>"
        f"<table>{head}{''.join(rows)}</table>{more}</details>"
    )


def _section(title: str, *bodies: str, sub: str = "") -> str:
    body = "".join(b for b in bodies if b)
    if not body:
        body = '<p class="empty">no data in this run</p>'
    subline = f'<p class="sub">{_esc(sub)}</p>' if sub else ""
    return f"<section><h2>{_esc(title)}</h2>{subline}{body}</section>"


def _provenance_section(manifest: Mapping[str, Any]) -> str:
    git_rev = manifest.get("git_rev") or "-"
    fields = [
        ("experiments", ", ".join(manifest.get("experiments") or []) or "-"),
        ("seed", manifest.get("seed")),
        ("mode", "quick" if manifest.get("quick") else "full"),
        ("jobs", (manifest.get("config") or {}).get("jobs", 1)),
        ("wall", f"{_fmt(manifest.get('wall_s'))}s"),
        ("git", str(git_rev)[:12]),
        ("python", manifest.get("python") or "-"),
    ]
    items = "".join(
        f"<div><dt>{_esc(name)}</dt><dd>{_esc(value)}</dd></div>"
        for name, value in fields
    )
    return f'<section><h2>Run</h2><dl class="prov">{items}</dl></section>'


def _timeseries_sections(timeseries: Optional[Mapping[str, Any]]) -> str:
    if not timeseries:
        return _section(
            "Time series",
            sub="no rollups in the manifest (run with --trace or --live, "
            "or pass the trace files on the command line)",
        )
    windows = timeseries.get("windows") or []
    out: List[str] = []

    ref_windows = [w for w in windows if w.get("ref")]
    if ref_windows:
        x = [w["t_ms"] for w in ref_windows]
        chart = _line_chart(
            [
                {"color": "--series-1",
                 "points": [w["ref"]["lo_fraction"] for w in ref_windows]},
                {"color": "--series-3",
                 "points": [w["ref"]["testing_fraction"]
                            for w in ref_windows]},
            ],
            x, x_unit=" ms", y_max=None,
        )
        out.append(_section(
            "LO-REF coverage",
            chart,
            _legend([("LO-REF fraction", "--series-1"),
                     ("testing fraction", "--series-3")]),
            _windows_table(windows),
            sub=f"row-population fractions per "
            f"{_fmt(timeseries.get('window_ms'))} ms window",
        ))

    test_windows = [
        w for w in windows
        if any((w.get("tests") or {}).get(k) for k in
               ("passed", "failed", "aborted"))
    ]
    if test_windows:
        chart = _stacked_bars(
            test_windows,
            [("passed", "--status-good"), ("failed", "--status-critical"),
             ("aborted", "--status-warning")],
            [w["tests"] for w in test_windows],
        )
        out.append(_section(
            "Test outcomes",
            chart,
            _legend([("✓ passed", "--status-good"),
                     ("✗ failed", "--status-critical"),
                     ("◌ aborted", "--status-warning")]),
            sub="retention-test verdicts per window",
        ))

    mc_windows = [w for w in windows if w.get("mc")]
    if mc_windows:
        x = [w["t_ms"] for w in mc_windows]
        chart = _line_chart(
            [
                {"color": "--series-1",
                 "points": [w["mc"].get("latency_p50_ns")
                            for w in mc_windows]},
                {"color": "--series-3",
                 "points": [w["mc"].get("latency_p95_ns")
                            for w in mc_windows]},
                {"color": "--series-2",
                 "points": [w["mc"].get("latency_p99_ns")
                            for w in mc_windows]},
            ],
            x, x_unit=" ms",
        )
        out.append(_section(
            "Request latency percentiles",
            chart,
            _legend([("p50 ns", "--series-1"), ("p95 ns", "--series-3"),
                     ("p99 ns", "--series-2")]),
            sub="controller read-latency bucket quantiles per window",
        ))

    if not out:
        # Lifecycle-only traces (pure fault-engine experiments) still
        # carry an event census worth a glance.
        kinds = sorted(
            (timeseries.get("kinds") or {}).items(),
            key=lambda kv: kv[1], reverse=True,
        )
        out.append(_section(
            "Event census",
            _hbar_chart(kinds[:12]),
            sub=f"{_fmt(timeseries.get('events_total'))} events, no "
            "windowed rollups in this trace",
        ))
    return "".join(out)


def _flame_section(manifest: Mapping[str, Any]) -> str:
    spans = manifest.get("spans")
    root = _flame_from_spans(spans) if spans else None
    if root is None:
        return _section("Where the time went", sub="no span data")
    return _section(
        "Where the time went", _render_flame(root),
        sub="span wall-clock totals; a node is at least its children's sum",
    )


def _workers_section(manifest: Mapping[str, Any]) -> str:
    workers = manifest.get("workers")
    if not workers:
        return ""
    rows = workers.get("workers") or []
    stats = workers.get("stats") or {}
    bits = [
        f"jobs {workers.get('jobs')}",
        f"start method {workers.get('start_method')}",
    ]
    bits.extend(f"{key} {value}" for key, value in sorted(stats.items()))
    table = ""
    if rows:
        head = "<tr><th>worker</th><th>units</th><th>rss peak</th></tr>"
        body = "".join(
            "<tr>"
            f"<td>{_esc(r.get('shard'))}</td>"
            f"<td>{_cell(r.get('units'))}</td>"
            f"<td>{_cell((r.get('rss_peak_bytes') or 0) / (1 << 20))} MB</td>"
            "</tr>"
            for r in rows
        )
        table = (
            "<details><summary>Worker table</summary>"
            f"<table>{head}{body}</table></details>"
        )
    return _section(
        "Worker timeline",
        _render_worker_timeline(rows),
        table,
        sub=" · ".join(bits),
    )


def _forensics_section(manifest: Mapping[str, Any]) -> str:
    forensics = manifest.get("forensics")
    if not isinstance(forensics, Mapping):
        return ""
    kinds = forensics.get("kinds") or {}
    table = ""
    if isinstance(kinds, Mapping) and kinds:
        head = "<tr><th>ledger kind</th><th>records</th></tr>"
        body = "".join(
            f"<tr><td>{_esc(kind)}</td><td>{_cell(count)}</td></tr>"
            for kind, count in sorted(kinds.items())
        )
        table = (
            "<details><summary>Ledger kinds</summary>"
            f"<table>{head}{body}</table></details>"
        )
    bits = [
        f"{_fmt(forensics.get('records'))} ledger records across "
        f"{_fmt(forensics.get('rows'))} rows",
    ]
    ledger_path = forensics.get("ledger_path")
    if ledger_path:
        bits.append(f"ledger: {ledger_path}")
    bits.append(
        "ask `python -m repro.obs.why --row R` for a row's causal chain"
    )
    return _section("Failure forensics", table, sub=" · ".join(bits))


def _bench_section(bench_files: Mapping[str, Mapping[str, Any]]) -> str:
    if not bench_files:
        return ""
    charts = [
        _sparkline(label, values)
        for label, values in _bench_trajectories(bench_files)
    ]
    return _section(
        "Benchmark trajectories",
        '<div style="display:flex;flex-wrap:wrap;gap:8px 24px">'
        + "".join(charts) + "</div>" if charts else "",
        sub="history of committed BENCH_*.json entries, oldest to newest",
    )


# ----------------------------------------------------------------------
def render_dashboard(
    manifest: Mapping[str, Any],
    timeseries: Optional[Mapping[str, Any]] = None,
    bench_files: Optional[Mapping[str, Mapping[str, Any]]] = None,
) -> str:
    """Render the full dashboard HTML for one run manifest."""
    timeseries = timeseries if timeseries is not None else manifest.get(
        "timeseries"
    )
    title = "MEMCON run · " + (
        ", ".join(manifest.get("experiments") or []) or "unknown"
    )
    sections = [
        _provenance_section(manifest),
        _timeseries_sections(timeseries),
        _flame_section(manifest),
        _workers_section(manifest),
        _forensics_section(manifest),
        _bench_section(bench_files or {}),
    ]
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">\n'
        f"<title>{_esc(title)}</title>\n"
        '<meta name="viewport" content="width=device-width, '
        'initial-scale=1">\n'
        f"<style>{_CSS}</style></head>\n"
        f"<body><main><h1>{_esc(title)}</h1>"
        f'<p class="sub">static run dashboard — hover any mark for '
        "detail</p>"
        + "".join(sections)
        + "</main></body></html>\n"
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.dashboard",
        description="Render a run manifest (and its trace) into a static "
        "HTML dashboard.",
    )
    parser.add_argument("manifest", help="run manifest JSON path")
    parser.add_argument(
        "trace", nargs="?", default=None,
        help="JSONL trace file; when given, the time-series rollups are "
        "recomputed offline from it",
    )
    parser.add_argument(
        "--out", metavar="FILE", default=None,
        help="output HTML path (default: next to the manifest)",
    )
    parser.add_argument(
        "--bench", metavar="FILE", action="append", default=[],
        help="BENCH_*.json trajectory file (repeatable)",
    )
    parser.add_argument(
        "--window-ms", type=float, default=1024.0,
        help="rollup window for offline trace aggregation "
        "(default %(default)s)",
    )
    args = parser.parse_args(argv)

    manifest = load_manifest(args.manifest)
    timeseries = None
    if args.trace:
        timeseries = aggregate_trace(
            read_trace(args.trace, validate=False, tolerate_truncation=True),
            window_ms=args.window_ms,
        )

    bench_files: Dict[str, Any] = {}
    for path in args.bench:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                bench_files[os.path.basename(path)] = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"warning: skipping {path}: {exc}", file=sys.stderr)

    html_text = render_dashboard(
        manifest, timeseries=timeseries, bench_files=bench_files
    )
    out = args.out or os.path.splitext(args.manifest)[0] + ".html"
    parent = os.path.dirname(out)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        handle.write(html_text)
    print(f"dashboard written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
