"""`repro.obs` — observability for the MEMCON pipeline.

Nine cooperating pieces, all near-zero-overhead until switched on:

* **metrics registry** (:mod:`.registry`) — counters, gauges and
  fixed-bucket histograms, snapshot/reset-able; instruments no-op while
  the owning registry is disabled (the default).
* **span timing** (:mod:`.spans`) — ``with span("fill"):`` builds a
  hierarchical wall-clock profile once a collector is installed. It is
  the run's one profile: pool workers time each unit under their own
  collector and the parent folds the subtrees into its tree.
* **event trace** (:mod:`.trace`) — schema-versioned JSONL records of
  test lifecycles, refresh transitions, PRIL decisions and controller
  activity, written to a pluggable sink. A sharded run has the same
  single stream: pool workers return each unit's records to the parent,
  which emits them through its sink in unit order.
* **run manifest** (:mod:`.manifest`) — per-invocation JSON capturing
  config, seed, git revision, timings and the final metric snapshot.
* **streaming analytics** (:mod:`.analytics`) — ``TeeSink`` fans the
  event stream out to the JSONL file and an ``AggregatingSink`` whose
  windowed rollups (HI/LO-REF population, test outcomes, PRIL hit
  rate, controller latency percentiles, energy) land in the manifest.
* **live status** (:mod:`.live`) — a throttled stderr status line
  (events/s, LO-REF rows, outstanding tests, ETA) over the aggregator,
  plus one row per pool worker (units done, last unit, RSS peak) in a
  sharded run, read from the executor's worker table.
* **dashboard** (:mod:`.dashboard`) — ``python -m repro.obs.dashboard
  MANIFEST [TRACE]`` renders one self-contained static HTML file
  (inline SVG, no JS) with timeseries, a flame view of the span tree,
  worker timeline and BENCH trajectories.
* **regression gate** (:mod:`.compare`) — ``python -m repro.obs.compare
  OLD NEW`` diffs two manifests or ``BENCH_*.json`` files under
  per-metric noise thresholds and exits non-zero on regression.
* **failure forensics** (:mod:`.forensics`, :mod:`.why`) — opt-in
  (``--forensics``) decision-provenance ledger of every causal decision
  touching a row (PRIL grants/revocations, MEMCON tests, refresh
  transitions, predicate evaluations), written by a sink in the run's
  tee as records stream; ``python -m repro.obs.why --row R`` prints a
  row's causal chain.

``python -m repro.obs.report TRACE [--manifest FILE] [--timeseries]``
renders a trace, manifest and rollups into human-readable tables.
"""

from .analytics import (
    AggregatingSink,
    TeeSink,
    aggregate_trace,
)
from .forensics import (
    FORENSIC_KINDS,
    LEDGER_KINDS,
    LedgerSink,
    forensics_active,
    set_forensics,
)
from .live import LiveReporter
from .manifest import (
    MANIFEST_SCHEMA_VERSION,
    RunManifest,
    git_revision,
    load_manifest,
)
from .registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    set_registry,
)
from .spans import (
    SpanCollector,
    SpanNode,
    collect_spans,
    get_collector,
    set_collector,
    span,
    timed,
)
from .trace import (
    EVENT_KINDS,
    SCHEMA_VERSION,
    JsonlTraceSink,
    ListTraceSink,
    TraceSchemaError,
    emit,
    emit_many,
    get_sink,
    read_trace,
    set_sink,
    trace_active,
    validate_record,
)

__all__ = [
    "AggregatingSink",
    "TeeSink",
    "aggregate_trace",
    "FORENSIC_KINDS",
    "LEDGER_KINDS",
    "LedgerSink",
    "forensics_active",
    "set_forensics",
    "LiveReporter",
    "MANIFEST_SCHEMA_VERSION",
    "RunManifest",
    "git_revision",
    "load_manifest",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
    "SpanCollector",
    "SpanNode",
    "collect_spans",
    "get_collector",
    "set_collector",
    "span",
    "timed",
    "EVENT_KINDS",
    "SCHEMA_VERSION",
    "JsonlTraceSink",
    "ListTraceSink",
    "TraceSchemaError",
    "emit",
    "emit_many",
    "get_sink",
    "read_trace",
    "set_sink",
    "trace_active",
    "validate_record",
]
