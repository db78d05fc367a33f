"""Cross-run regression gate: diff two manifests or two BENCH files.

Usage::

    python -m repro.obs.compare OLD.manifest.json NEW.manifest.json
    python -m repro.obs.compare BENCH_before.json BENCH_obs.json --threshold 0.30
    python -m repro.obs.compare OLD NEW --strict            # also fail on vanished metrics
    python -m repro.obs.compare OLD NEW --warn-only         # report, always exit 0 (CI runners)

Both inputs may be run manifests (written by the experiment runner) or
``BENCH_*.json`` perf-trajectory files (written by the benchmark
suite's ``record_bench`` fixture); the format is auto-detected per
file. Every numeric metric is extracted, classified by *direction*
(whether an increase is good, bad, or merely informational — inferred
from the metric name), and compared under a per-metric noise
threshold:

* explicit ``--metric-threshold NAME=FRACTION`` overrides win,
* wall-clock metrics (names ending in ``_s``) default to at least
  ``WALL_CLOCK_THRESHOLD`` (30%) because timings are noisy,
* everything else uses ``--threshold`` (default 10%).

Exit status: 0 when no tracked metric regressed beyond its threshold
(or ``--warn-only``), 1 on regression (or, with ``--strict``, when a
previously tracked metric disappeared), 2 on unreadable inputs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional

from .manifest import MANIFEST_SCHEMA_VERSION

__all__ = [
    "DEFAULT_THRESHOLD",
    "WALL_CLOCK_THRESHOLD",
    "ComparisonResult",
    "MetricDelta",
    "classify_direction",
    "compare_files",
    "compare_metrics",
    "extract_metrics",
    "main",
]

DEFAULT_THRESHOLD = 0.10
#: Noise floor for wall-clock metrics (CI runners vary wildly).
WALL_CLOCK_THRESHOLD = 0.30

#: Name fragments implying "bigger is better" (checked first).
#: ("attributed" is the profiler's span-attribution fraction — it must
#: win over the generic "fraction" lower-is-better token below.)
_HIGHER_TOKENS = ("speedup", "reduction", "hit_rate", "coverage", "ipc",
                  "attributed")
#: Name fragments / suffixes implying "smaller is better".
#: ("rss" covers the worker/profiler memory high-water marks.)
_LOWER_TOKENS = ("overhead", "latency", "fraction", "rss")
_LOWER_SUFFIXES = ("_s", "_ns", "_ms")
#: Fragments whose metrics are as noisy as wall clock (allocator and
#: page-cache behavior swing RSS across runs the same way CI runners
#: swing timings).
_NOISY_TOKENS = ("rss",)


def classify_direction(name: str) -> Optional[str]:
    """``'higher'`` / ``'lower'`` = which way is *better*; None = info only."""
    base = name.rsplit(".", 1)[-1].lower()
    for token in _HIGHER_TOKENS:
        if token in base:
            return "higher"
    for token in _LOWER_TOKENS:
        if token in base:
            return "lower"
    if base.endswith(_LOWER_SUFFIXES):
        return "lower"
    return None


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_manifest(data: Mapping) -> bool:
    return (
        isinstance(data, Mapping)
        and data.get("schema") == MANIFEST_SCHEMA_VERSION
        and "experiments" in data
    )


def _warn(warnings: Optional[List[str]], message: str) -> None:
    if warnings is not None:
        warnings.append(message)


def _mapping_of(
    container: Mapping, key: str, warnings: Optional[List[str]]
) -> Mapping:
    """Tolerantly read a sub-mapping: absent or malformed -> no data.

    A manifest produced by an older run (or hand-edited) may miss whole
    sections or hold junk in them; the gate must degrade to "nothing to
    compare there", not crash, so the *other* sections still gate.
    """
    value = container.get(key)
    if value is None:
        return {}
    if not isinstance(value, Mapping):
        _warn(warnings, f"section {key!r}: expected a mapping, got "
                        f"{type(value).__name__}; treating as no data")
        return {}
    return value


def _list_of(
    container: Mapping, key: str, warnings: Optional[List[str]]
) -> List[Mapping]:
    """Tolerantly read a list-of-mappings section (see _mapping_of)."""
    value = container.get(key)
    if value is None:
        return []
    if isinstance(value, (str, bytes)) or not isinstance(value, Iterable):
        _warn(warnings, f"section {key!r}: expected a list, got "
                        f"{type(value).__name__}; treating as no data")
        return []
    out: List[Mapping] = []
    for i, entry in enumerate(value):
        if isinstance(entry, Mapping):
            out.append(entry)
        else:
            _warn(warnings, f"section {key!r}[{i}]: expected a mapping, "
                            f"got {type(entry).__name__}; skipping")
    return out


def extract_metrics(
    data: Mapping, warnings: Optional[List[str]] = None
) -> Dict[str, float]:
    """Flatten a manifest or BENCH-style file into ``name -> value``.

    Missing or malformed manifest sections contribute no metrics; when
    ``warnings`` is given, malformed ones append a note to it instead
    of raising.
    """
    if _is_manifest(data):
        return _metrics_of_manifest(data, warnings)
    return _metrics_of_bench(data)


def _metrics_of_manifest(
    data: Mapping, warnings: Optional[List[str]] = None
) -> Dict[str, float]:
    metrics: Dict[str, float] = {}
    if _is_number(data.get("wall_s")):
        metrics["wall_s"] = float(data["wall_s"])
    for timing in _list_of(data, "timings", warnings):
        if _is_number(timing.get("wall_s")) and timing.get("name"):
            metrics[f"timing.{timing['name']}_s"] = float(timing["wall_s"])
    snapshot = _mapping_of(data, "metrics", warnings)
    for name, value in _mapping_of(snapshot, "counters", warnings).items():
        if _is_number(value):
            metrics[f"counter.{name}"] = float(value)
    for name, value in _mapping_of(snapshot, "gauges", warnings).items():
        if _is_number(value):
            metrics[f"gauge.{name}"] = float(value)
    profile = _mapping_of(data, "profile", warnings)
    for field_name in ("sample_count", "attributed_fraction",
                       "rss_peak_bytes", "wall_s"):
        if _is_number(profile.get(field_name)):
            metrics[f"profile.{field_name}"] = float(profile[field_name])
    timeseries = _mapping_of(data, "timeseries", warnings)
    if _is_number(timeseries.get("events_total")):
        metrics["timeseries.events_total"] = float(
            timeseries["events_total"]
        )
    forensics = _mapping_of(data, "forensics", warnings)
    for field_name in ("records", "rows"):
        if _is_number(forensics.get(field_name)):
            metrics[f"forensics.{field_name}"] = float(forensics[field_name])
    workers = _mapping_of(data, "workers", warnings)
    rss_peaks = [
        worker["rss_peak_bytes"]
        for worker in _list_of(workers, "workers", warnings)
        if _is_number(worker.get("rss_peak_bytes"))
    ]
    if rss_peaks:
        metrics["workers.rss_peak_bytes"] = float(max(rss_peaks))
    return metrics


def _metrics_of_bench(data: Mapping) -> Dict[str, float]:
    metrics: Dict[str, float] = {}
    for entry_name, entry in data.items():
        if not isinstance(entry, Mapping):
            continue
        for field_name, value in entry.items():
            if field_name in ("recorded_at", "history"):
                continue
            if _is_number(value):
                metrics[f"{entry_name}.{field_name}"] = float(value)
    return metrics


@dataclass
class MetricDelta:
    """One metric's movement between two runs."""

    name: str
    old: Optional[float]
    new: Optional[float]
    direction: Optional[str]
    threshold: float
    rel_change: Optional[float]  # (new - old) / |old|; None when undefined
    verdict: str  # ok | regression | improvement | info | missing | added


@dataclass
class ComparisonResult:
    """All deltas plus the gate verdict."""

    deltas: List[MetricDelta] = field(default_factory=list)

    @property
    def regressions(self) -> List[MetricDelta]:
        return [d for d in self.deltas if d.verdict == "regression"]

    @property
    def missing(self) -> List[MetricDelta]:
        return [d for d in self.deltas if d.verdict == "missing"]

    def ok(self, strict: bool = False) -> bool:
        if self.regressions:
            return False
        if strict and self.missing:
            return False
        return True


def _resolve_threshold(
    name: str, threshold: float, overrides: Optional[Mapping[str, float]]
) -> float:
    if overrides and name in overrides:
        return overrides[name]
    base = name.rsplit(".", 1)[-1].lower()
    if base.endswith("_s"):
        return max(threshold, WALL_CLOCK_THRESHOLD)
    if any(token in base for token in _NOISY_TOKENS):
        return max(threshold, WALL_CLOCK_THRESHOLD)
    return threshold


def compare_metrics(
    old: Mapping[str, float],
    new: Mapping[str, float],
    threshold: float = DEFAULT_THRESHOLD,
    overrides: Optional[Mapping[str, float]] = None,
) -> ComparisonResult:
    """Compare two flat metric maps under per-metric noise thresholds."""
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    result = ComparisonResult()
    for name in sorted(set(old) | set(new)):
        direction = classify_direction(name)
        limit = _resolve_threshold(name, threshold, overrides)
        if name not in new:
            result.deltas.append(MetricDelta(
                name, old[name], None, direction, limit, None, "missing"))
            continue
        if name not in old:
            result.deltas.append(MetricDelta(
                name, None, new[name], direction, limit, None, "added"))
            continue
        old_value, new_value = old[name], new[name]
        if old_value == new_value:
            rel = 0.0
        elif old_value == 0.0:
            rel = math.inf if new_value > 0 else -math.inf
        else:
            rel = (new_value - old_value) / abs(old_value)
        if direction is None:
            verdict = "info"
        else:
            worse = rel > limit if direction == "lower" else rel < -limit
            better = rel < -limit if direction == "lower" else rel > limit
            verdict = (
                "regression" if worse else "improvement" if better else "ok"
            )
        result.deltas.append(MetricDelta(
            name, old_value, new_value, direction, limit, rel, verdict))
    return result


def compare_files(
    old_path: str,
    new_path: str,
    threshold: float = DEFAULT_THRESHOLD,
    overrides: Optional[Mapping[str, float]] = None,
    warnings: Optional[List[str]] = None,
) -> ComparisonResult:
    """Load, auto-detect, flatten and compare two metric files."""
    with open(old_path, "r", encoding="utf-8") as handle:
        old_data = json.load(handle)
    with open(new_path, "r", encoding="utf-8") as handle:
        new_data = json.load(handle)
    old_warnings: List[str] = []
    new_warnings: List[str] = []
    result = compare_metrics(
        extract_metrics(old_data, old_warnings),
        extract_metrics(new_data, new_warnings),
        threshold=threshold, overrides=overrides,
    )
    if warnings is not None:
        warnings.extend(f"{old_path}: {w}" for w in old_warnings)
        warnings.extend(f"{new_path}: {w}" for w in new_warnings)
    return result


# ----------------------------------------------------------------------
def _format_value(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.6g}"


def _format_change(rel: Optional[float]) -> str:
    if rel is None:
        return "-"
    if math.isinf(rel):
        return "+inf%" if rel > 0 else "-inf%"
    return f"{rel:+.1%}"


def render_comparison(result: ComparisonResult, verbose: bool = False) -> str:
    """Human-readable diff; quiet metrics are elided unless ``verbose``."""
    interesting = {"regression", "improvement", "missing", "added"}
    lines: List[str] = []
    shown = 0
    for delta in result.deltas:
        if not verbose and delta.verdict not in interesting:
            continue
        shown += 1
        lines.append(
            f"{delta.verdict.upper():<11} {delta.name}: "
            f"{_format_value(delta.old)} -> {_format_value(delta.new)} "
            f"({_format_change(delta.rel_change)}, "
            f"threshold {delta.threshold:.0%}"
            + (f", {delta.direction} is better)" if delta.direction else ")")
        )
    counted = len(result.deltas)
    regressions = len(result.regressions)
    summary = (
        f"{counted} metrics compared, {regressions} regression(s), "
        f"{len(result.missing)} missing"
    )
    if not shown:
        lines.append("(no metric moved beyond its threshold)")
    lines.append(summary)
    return "\n".join(lines)


def _parse_override(spec: str) -> tuple:
    name, _, value = spec.partition("=")
    if not name or not value:
        raise argparse.ArgumentTypeError(
            f"expected NAME=FRACTION, got {spec!r}")
    try:
        fraction = float(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"threshold in {spec!r} is not a number") from exc
    if fraction < 0:
        raise argparse.ArgumentTypeError("threshold must be non-negative")
    return name, fraction


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.compare",
        description="Diff two run manifests or BENCH_*.json files and "
        "gate on perf regressions.",
    )
    parser.add_argument("old", help="baseline manifest or BENCH json")
    parser.add_argument("new", help="candidate manifest or BENCH json")
    parser.add_argument(
        "--threshold", type=float, default=DEFAULT_THRESHOLD,
        help="global relative noise threshold (default %(default)s)",
    )
    parser.add_argument(
        "--metric-threshold", action="append", type=_parse_override,
        default=[], metavar="NAME=FRACTION",
        help="per-metric threshold override (repeatable)",
    )
    parser.add_argument(
        "--warn-only", action="store_true",
        help="report regressions but always exit 0 (noisy CI runners)",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="also fail when a previously tracked metric disappeared",
    )
    parser.add_argument(
        "--verbose", action="store_true",
        help="print every compared metric, not just the movers",
    )
    args = parser.parse_args(argv)

    warnings: List[str] = []
    try:
        result = compare_files(
            args.old, args.new,
            threshold=args.threshold,
            overrides=dict(args.metric_threshold),
            warnings=warnings,
        )
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    print(render_comparison(result, verbose=args.verbose))
    if result.ok(strict=args.strict):
        return 0
    if args.warn_only:
        print("warning: regression detected (exit suppressed by --warn-only)",
              file=sys.stderr)
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
