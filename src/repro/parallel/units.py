"""Deterministic work units: the contract between experiments and the pool.

An experiment parallelises by decomposing into :class:`WorkUnit`\\ s —
self-describing, independently executable shards of its iteration space
(row ranges for fault-map scans, content profiles for fig04, workload
traces for the interval studies, workload mixes for the simulator
sweeps). The decomposition is a pure function of ``(experiment, quick,
seed)``: the unit list never depends on the number of jobs, so a
checkpoint journal written at ``--jobs 8`` resumes cleanly at
``--jobs 2``, and merging unit payloads in ``seq`` order reproduces the
serial run bit for bit.

Every experiment module exposes three hooks::

    units(quick=True, seed=1)            -> List[WorkUnit]
    run_unit(unit, quick=True, seed=1)   -> JSON-safe payload
    merge_units(payloads, quick=True, seed=1) -> ExperimentResult

The runner's serial path is ``merge_units([run_unit(u) for u in
units()])`` — the serial path *is* the unit path, which is what makes
"bit-identical to serial" a structural property instead of a test hope.
Payloads must be JSON-safe (plain ints/floats/strings/lists/dicts)
because they round-trip through the checkpoint journal; Python's JSON
encoder preserves float64 exactly, so journalled results stay
bit-identical too. :func:`decompose` rejects a module missing any hook.
"""

from __future__ import annotations

import hashlib
import importlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

__all__ = [
    "WorkUnit",
    "decompose",
    "execute_unit",
    "experiment_module",
    "merge_payloads",
    "register_experiment",
    "unit_fingerprint",
]

#: Hooks every experiment module exposes.
_HOOKS = ("units", "run_unit", "merge_units")

#: Experiment name -> import path, for experiments living outside
#: ``repro.experiments`` (benchmarks, tests). Units are stamped with the
#: resolved path so worker processes need no registry of their own.
_MODULE_OVERRIDES: Dict[str, str] = {}


def register_experiment(name: str, module_path: str) -> None:
    """Map an experiment name to an import path for decomposition."""
    _MODULE_OVERRIDES[name] = module_path


@dataclass(frozen=True)
class WorkUnit:
    """One independently executable shard of an experiment.

    ``params`` must be JSON-safe: it crosses process boundaries, lands in
    the checkpoint journal, and feeds the fingerprint. ``seq`` is the
    unit's position in decomposition order — merge order, never
    completion order. ``module`` pins the import path of the owning
    experiment module so any worker (fork or spawn) can resolve it.
    """

    experiment: str
    unit_id: str
    params: Dict[str, Any] = field(default_factory=dict)
    seq: int = 0
    module: Optional[str] = None

    @property
    def key(self) -> str:
        """Stable journal/bookkeeping key."""
        return f"{self.experiment}:{self.unit_id}"

    def as_dict(self) -> Dict[str, Any]:
        return {
            "experiment": self.experiment,
            "unit_id": self.unit_id,
            "params": self.params,
            "seq": self.seq,
            "module": self.module,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "WorkUnit":
        return cls(
            experiment=data["experiment"],
            unit_id=data["unit_id"],
            params=data.get("params") or {},
            seq=int(data.get("seq", 0)),
            module=data.get("module"),
        )


def _module_path(name: str) -> str:
    return _MODULE_OVERRIDES.get(name, f"repro.experiments.{name}")


def experiment_module(name: str, module: Optional[str] = None):
    """Import the module owning an experiment (override-aware)."""
    return importlib.import_module(module or _module_path(name))


def unit_fingerprint(unit: WorkUnit, quick: bool, seed: int) -> str:
    """Digest pinning a unit's identity *and* inputs.

    Two runs agree on a fingerprint iff they would compute the same
    payload, so checkpoint entries from a different seed, scale, or
    decomposition are never silently reused.
    """
    blob = json.dumps(
        {
            "experiment": unit.experiment,
            "unit_id": unit.unit_id,
            "params": unit.params,
            "quick": bool(quick),
            "seed": int(seed),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha1(blob.encode("utf-8")).hexdigest()[:20]


def decompose(name: str, quick: bool = True, seed: int = 1) -> List[WorkUnit]:
    """The deterministic unit list of an experiment.

    Raises ``ValueError`` naming the missing hooks of a module without
    all three, and on malformed decompositions (duplicate ids, ``seq``
    not the contiguous 0..n-1 range) — silent misnumbering would scramble
    the merge order.
    """
    path = _module_path(name)
    module = experiment_module(name, path)
    missing = [hook for hook in _HOOKS if not hasattr(module, hook)]
    if missing:
        raise ValueError(f"{name}: {path} lacks {', '.join(missing)}")
    units = list(module.units(quick=quick, seed=seed))
    seen = set()
    for unit in units:
        if unit.key in seen:
            raise ValueError(f"{name}: duplicate unit id {unit.unit_id!r}")
        seen.add(unit.key)
    if sorted(u.seq for u in units) != list(range(len(units))):
        raise ValueError(f"{name}: unit seq values must be 0..{len(units) - 1}")
    stamped = [
        unit if unit.module else WorkUnit(
            unit.experiment, unit.unit_id, unit.params, unit.seq, path
        )
        for unit in units
    ]
    return sorted(stamped, key=lambda u: u.seq)


def execute_unit(unit: WorkUnit, quick: bool = True, seed: int = 1) -> Any:
    """Run one unit and return its JSON-safe payload."""
    module = experiment_module(unit.experiment, unit.module)
    return module.run_unit(unit, quick=quick, seed=seed)


def merge_payloads(
    name: str,
    payloads: Sequence[Any],
    quick: bool = True,
    seed: int = 1,
    module: Optional[str] = None,
):
    """Fold seq-ordered unit payloads back into an ``ExperimentResult``."""
    mod = experiment_module(name, module)
    return mod.merge_units(list(payloads), quick=quick, seed=seed)
