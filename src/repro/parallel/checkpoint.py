"""Checkpoint journal: completed units, durable as they finish.

The journal is a JSONL sidecar (``results.checkpoint.jsonl`` by
default) holding one fingerprinted entry per completed work unit::

    {"v": 1, "key": "fig04:bench:mcf", "fp": "1f2e...", "payload": ...,
     "wall_s": 0.031, "worker": 41287}

Entries are flushed line-by-line, so a sweep killed mid-flight leaves a
valid prefix (plus at most one truncated line, which :meth:`load`
drops). ``--resume`` loads the journal and skips every unit whose
``(key, fingerprint)`` matches the current decomposition — a journal
written with a different seed, scale, or unit layout contributes
nothing, rather than contributing silently wrong results.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Optional

__all__ = ["CheckpointJournal", "JOURNAL_VERSION"]

JOURNAL_VERSION = 1


class CheckpointJournal:
    """Append-only journal of completed work units."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._handle = None
        self.appended = 0

    # ------------------------------------------------------------------
    def load(self) -> Dict[str, Dict[str, Any]]:
        """Journalled entries keyed by unit key (last write wins).

        Tolerates a missing file and a truncated final line; any other
        malformed line raises — a corrupt journal should fail loudly,
        not resume with holes.
        """
        entries: Dict[str, Dict[str, Any]] = {}
        if not os.path.exists(self.path):
            return entries
        with open(self.path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        for index, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError as exc:
                if index == len(lines) - 1:
                    break  # truncated tail: the kill signature
                raise ValueError(
                    f"{self.path}:{index + 1}: corrupt journal line"
                ) from exc
            if not isinstance(entry, dict) or entry.get("v") != JOURNAL_VERSION:
                continue  # future journal versions are skipped, not fatal
            key = entry.get("key")
            if isinstance(key, str) and "fp" in entry and "payload" in entry:
                entries[key] = entry
        return entries

    # ------------------------------------------------------------------
    def append(
        self,
        key: str,
        fingerprint: str,
        payload: Any,
        wall_s: float = 0.0,
        worker: Optional[int] = None,
    ) -> None:
        """Durably record one completed unit (flushed immediately)."""
        if self._handle is None:
            parent = os.path.dirname(self.path)
            if parent:
                os.makedirs(parent, exist_ok=True)
            self._handle = open(self.path, "a", encoding="utf-8")
        entry = {
            "v": JOURNAL_VERSION,
            "key": key,
            "fp": fingerprint,
            "payload": payload,
            "wall_s": wall_s,
            "worker": worker,
        }
        self._handle.write(json.dumps(entry, separators=(",", ":")))
        self._handle.write("\n")
        self._handle.flush()
        self.appended += 1

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "CheckpointJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
