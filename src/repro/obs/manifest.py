"""Structured run manifests.

A manifest is the durable record of one experiment invocation: what ran
(experiment ids, quick/full, seed), against which code (git revision,
python version), how long each part took (the span tree), and what the
instruments counted (the final metrics snapshot). The runner writes it
as JSON next to the markdown output so a results file is never again an
orphan with no provenance.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

__all__ = [
    "MANIFEST_SCHEMA_VERSION",
    "RunManifest",
    "git_revision",
    "load_manifest",
]

MANIFEST_SCHEMA_VERSION = 1


def git_revision(cwd: Optional[str] = None) -> Optional[str]:
    """The current git commit hash, or None outside a repo / without git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


@dataclass
class RunManifest:
    """Everything needed to interpret (and re-run) one invocation."""

    experiments: List[str]
    seed: int
    quick: bool
    config: Dict[str, Any] = field(default_factory=dict)
    git_rev: Optional[str] = None
    python: str = ""
    platform_tag: str = ""
    timings: List[Dict[str, Any]] = field(default_factory=list)
    spans: Optional[Dict[str, Any]] = None
    metrics: Optional[Dict[str, Any]] = None
    #: Windowed rollups from the in-process aggregator (analytics.py).
    timeseries: Optional[Dict[str, Any]] = None
    trace_path: Optional[str] = None
    #: Worker topology of a sharded run (parallel/executor.py): jobs,
    #: start method, executor stats, and one row per shard with its unit
    #: count, RSS peak and per-unit timeline.
    workers: Optional[Dict[str, Any]] = None
    #: Forensic ledger census (obs/forensics.py): record counts by kind,
    #: distinct rows, and the ledger file path.
    forensics: Optional[Dict[str, Any]] = None
    wall_s: float = 0.0

    @classmethod
    def start(
        cls,
        experiments: List[str],
        seed: int,
        quick: bool,
        config: Optional[Mapping[str, Any]] = None,
    ) -> "RunManifest":
        """Create a manifest with the environment fields pre-filled."""
        return cls(
            experiments=list(experiments),
            seed=seed,
            quick=quick,
            config=dict(config or {}),
            git_rev=git_revision(),
            python=sys.version.split()[0],
            platform_tag=platform.platform(),
        )

    def add_timing(self, name: str, wall_s: float, **extra: Any) -> None:
        """Record one experiment's wall-clock time (and context)."""
        entry: Dict[str, Any] = {"name": name, "wall_s": wall_s}
        entry.update(extra)
        self.timings.append(entry)

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": MANIFEST_SCHEMA_VERSION,
            "experiments": self.experiments,
            "seed": self.seed,
            "quick": self.quick,
            "config": self.config,
            "git_rev": self.git_rev,
            "python": self.python,
            "platform": self.platform_tag,
            "wall_s": self.wall_s,
            "timings": self.timings,
            "spans": self.spans,
            "metrics": self.metrics,
            "timeseries": self.timeseries,
            "trace_path": self.trace_path,
            "workers": self.workers,
            "forensics": self.forensics,
        }

    def write(self, path: str) -> None:
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=False)
            handle.write("\n")


def load_manifest(path: str) -> Dict[str, Any]:
    """Load and version-check a manifest written by :meth:`RunManifest.write`."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict) or data.get("schema") != MANIFEST_SCHEMA_VERSION:
        raise ValueError(f"{path}: not a schema-{MANIFEST_SCHEMA_VERSION} manifest")
    return data
