"""Observability merge: fold worker shards back into one run's record.

A sharded run produces one trace shard and one metrics snapshot per
worker, plus the parent's own lifecycle shard. This module reassembles
them:

* :func:`merge_run_traces` splices worker unit-blocks into the parent's
  skeleton stream, ordered by unit ``seq`` under each
  ``experiment_started`` anchor — reconstructing the *exact* event order
  a serial run would have emitted (workers bracket every unit with
  ``unit_started``/``unit_finished`` markers; the markers are consumed
  by the splice and do not survive into the merged stream). Retried
  units may leave blocks in several shards; the executor's accepted
  ``(shard, attempt)`` pair picks the authoritative one.
* :func:`merge_metric_snapshots` folds worker metrics snapshots into the
  parent registry's via :meth:`repro.obs.MetricsRegistry.merge`
  (counters sum, gauges max, histograms add bucket-wise).
* :func:`discover_trace_shards` / :func:`discover_metric_shards` find
  the shard files a (possibly killed) run left next to its outputs.

Because the merged stream equals the serial stream record-for-record,
``aggregate_trace`` over it reproduces the serial run's windowed
rollups bit for bit — the property the test suite pins down.
"""

from __future__ import annotations

import glob
import json
import os
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from ..obs.trace import read_trace
from .executor import _split_ext, metrics_shard_path

__all__ = [
    "discover_metric_shards",
    "discover_trace_shards",
    "iter_merged_records",
    "merge_metric_snapshots",
    "merge_run_traces",
    "parse_unit_blocks",
]

_MARKERS = ("unit_started", "unit_finished")

#: (experiment, seq) -> {(shard_label, attempt): [records]}
Blocks = Dict[Tuple[str, int], Dict[Tuple[str, int], List[dict]]]


def discover_trace_shards(base: str) -> List[str]:
    """Worker trace shards written next to the final trace path."""
    stem, ext = _split_ext(base)
    return sorted(glob.glob(f"{glob.escape(stem)}.worker-*{ext}"))


def discover_metric_shards(base: str) -> List[str]:
    """Worker metrics snapshots written next to the final metrics path."""
    stem, _ = os.path.splitext(base)
    return sorted(glob.glob(f"{glob.escape(stem)}.worker-*.json"))


def parse_unit_blocks(
    path: str, shard_label: str, blocks: Blocks
) -> List[dict]:
    """Split one shard into unit blocks; returns records outside blocks.

    Worker shards consist (only) of marker-bracketed blocks; the parent
    shard is mostly skeleton records with blocks for serially degraded
    units. A block missing its ``unit_finished`` (killed or timed-out
    worker) is kept as a partial block — better a truncated window than
    a silent hole.
    """
    skeleton: List[dict] = []
    current: Optional[Tuple[Tuple[str, int], Tuple[str, int]]] = None
    for record in read_trace(path, validate=False, tolerate_truncation=True):
        kind = record.get("kind")
        if kind == "unit_started":
            block_key = (record.get("experiment"), record.get("seq"))
            attempt_key = (shard_label, record.get("attempt"))
            blocks.setdefault(block_key, {})[attempt_key] = []
            current = (block_key, attempt_key)
        elif kind == "unit_finished":
            current = None
        elif current is not None:
            blocks[current[0]][current[1]].append(record)
        else:
            skeleton.append(record)
    return skeleton


def _pick_block(
    candidates: Mapping[Tuple[str, int], List[dict]],
    accepted: Optional[Tuple[str, int]],
) -> List[dict]:
    """The authoritative attempt's records (retries leave impostors)."""
    if accepted is not None and accepted in candidates:
        return candidates[accepted]
    # No acceptance info (e.g. merging a killed run's shards offline):
    # deterministically prefer the latest attempt.
    latest = max(candidates, key=lambda key: (key[1] or 0, key[0]))
    return candidates[latest]


def iter_merged_records(
    parent_shard: str,
    worker_shards: Iterable[str],
    accepted: Optional[Mapping[Tuple[str, int], Tuple[str, int]]] = None,
) -> Iterator[dict]:
    """Yield the canonical merged record stream of a sharded run.

    ``accepted`` maps ``(experiment, seq)`` to the executor's accepted
    ``(shard_label, attempt)``. Unit blocks are spliced, in ``seq``
    order, directly after their experiment's ``experiment_started``
    record — the position the serial run emits them from — and leftover
    blocks (experiments whose anchor never made it to disk) are
    appended at the end in unit order. Consumers that only need a
    filtered view (the forensic ledger, ad-hoc analysis of a killed
    run's shards) iterate this directly instead of materialising the
    merged file first.
    """
    blocks: Blocks = {}
    skeleton = parse_unit_blocks(parent_shard, "parent", blocks)
    for shard in worker_shards:
        label = _shard_label(shard)
        stray = parse_unit_blocks(shard, label, blocks)
        # Worker records outside any block would be a bug; keep the
        # stream lossless by treating them as trailing skeleton records.
        skeleton.extend(stray)

    by_experiment: Dict[str, List[Tuple[int, List[dict]]]] = {}
    for (experiment, seq), candidates in blocks.items():
        choice = _pick_block(
            candidates, (accepted or {}).get((experiment, seq))
        )
        by_experiment.setdefault(str(experiment), []).append((seq or 0, choice))
    for entries in by_experiment.values():
        entries.sort(key=lambda item: item[0])

    for record in skeleton:
        yield record
        if record.get("kind") == "experiment_started":
            for _seq, chosen in by_experiment.pop(
                str(record.get("experiment")), []
            ):
                yield from chosen
    # Orphan blocks: their experiment_started never hit the parent
    # shard (killed run). Append deterministically.
    for experiment in sorted(by_experiment):
        for _seq, chosen in by_experiment[experiment]:
            yield from chosen


def merge_run_traces(
    parent_shard: str,
    worker_shards: Iterable[str],
    out_path: str,
    accepted: Optional[Mapping[Tuple[str, int], Tuple[str, int]]] = None,
) -> int:
    """Write the canonical merged trace of a sharded run.

    A thin file-writing wrapper over :func:`iter_merged_records`;
    returns the number of records written.
    """
    written = 0
    parent = os.path.dirname(out_path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as handle:
        for record in iter_merged_records(
            parent_shard, worker_shards, accepted
        ):
            handle.write(json.dumps(record, separators=(",", ":")))
            handle.write("\n")
            written += 1
    return written


def _shard_label(path: str) -> str:
    """``t.worker-g1-123.jsonl`` -> ``worker-g1-123``."""
    name = os.path.basename(path)
    stem, _ = os.path.splitext(name)
    marker = stem.rfind("worker-")
    return stem[marker:] if marker >= 0 else stem


def merge_metric_snapshots(
    base_snapshot: Optional[Dict[str, Any]],
    shard_paths: Iterable[str],
) -> Dict[str, Any]:
    """Fold worker metrics snapshots into one JSON-safe snapshot."""
    from ..obs.registry import MetricsRegistry

    registry = MetricsRegistry(enabled=True)
    if base_snapshot:
        registry.merge(base_snapshot)
    for path in shard_paths:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                snapshot = json.load(handle)
        except (OSError, json.JSONDecodeError):
            continue  # a killed worker may leave a partial snapshot
        registry.merge(snapshot)
    return registry.snapshot()
