"""`repro.parallel` — deterministic sharded execution of experiments.

The fault-population RNG is counter-based, so any batch of rows
generates bit-identically no matter how the batch is composed; this
subsystem cashes that property in. Experiments decompose into
deterministic :class:`WorkUnit` shards (:mod:`.units`), a supervised
process pool executes them with chunked dispatch, backpressure,
per-unit timeouts, crash retries and serial degradation
(:mod:`.executor`), and completed units are journalled for ``--resume``
(:mod:`.checkpoint`). Each unit's trace records and metrics snapshot
come back with its payload, and the parent emits the records in unit
order through its own sink, so a sharded run has one event stream.

The headline guarantee: ``python -m repro.experiments all --jobs N``
produces byte-identical result tables to the serial run for every
``N``, and the same event trace once wall-clock fields are set aside.
"""

from .checkpoint import CheckpointJournal, JOURNAL_VERSION
from .executor import ExecutionStats, ParallelExecutor
from .units import (
    WorkUnit,
    decompose,
    execute_unit,
    experiment_module,
    merge_payloads,
    register_experiment,
    unit_fingerprint,
)

__all__ = [
    "CheckpointJournal",
    "JOURNAL_VERSION",
    "ExecutionStats",
    "ParallelExecutor",
    "WorkUnit",
    "decompose",
    "execute_unit",
    "experiment_module",
    "merge_payloads",
    "register_experiment",
    "unit_fingerprint",
]
