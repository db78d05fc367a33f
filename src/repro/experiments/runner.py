"""Run any or all paper experiments and print their tables.

Usage::

    python -m repro.experiments all          # every figure/table, quick
    python -m repro.experiments fig14 fig17  # a subset
    python -m repro.experiments all --full   # paper-scale settings
    python -m repro.experiments fig03 --trace t.jsonl --metrics m.json
    python -m repro.experiments all --jobs 4 # sharded across processes
    python -m repro.experiments all --jobs 4 --resume   # pick up a kill

Result tables go to stdout; progress goes through ``logging`` (stderr),
tuned with ``--verbose``/``--quiet``. ``--trace`` records the run's
structured JSONL event stream (see :mod:`repro.obs.trace`), ``--metrics``
dumps the final metrics-registry snapshot as JSON, and every run that
produces a file also writes a run manifest — config, seed, git revision,
per-experiment timings, span tree, metric snapshot — next to it
(``--manifest`` overrides the location). ``python -m repro.obs.report``
renders the trace and manifest back into summary tables.

Whenever events flow (``--trace`` or ``--live``), the stream is teed
through an in-process :class:`repro.obs.AggregatingSink`, whose
windowed rollups (HI/LO-REF population, test outcomes, PRIL hit rate,
controller latency percentiles, energy) are stored in the manifest
under ``"timeseries"``. ``--live`` adds a periodic stderr status line
driven by the same aggregator; ``--window-ms`` sets the rollup window.
``python -m repro.obs.compare OLD NEW`` diffs two manifests.

``--jobs N`` executes each experiment's deterministic work units
(:mod:`repro.parallel`) across N processes. Completed units are
journalled to a checkpoint file as they finish (``--checkpoint``
overrides the location), and ``--resume`` skips any journalled unit
whose fingerprint still matches — a killed sweep restarts without
re-executing finished work. Result tables are byte-identical to the
serial run for every N. Each unit's trace records and metrics snapshot
come back from its worker with the payload: the parent emits the
records in unit order through the same sinks a serial run uses and
folds the snapshots into its registry, so ``--trace``, the rollups and
``--metrics`` come from one stream in both modes. The manifest records
the worker topology under ``"workers"``.

The manifest's span tree (``"spans"``) is the run's profile: each
experiment's span holds the named phases its units timed (MEMCON's
accounting pass, the cycle simulator, SoftMC phases). Under ``--jobs N``
the workers time their units and the parent folds the subtrees in, so
the tree has the serial run's nodes and counts.

``--forensics`` additionally records the decision-provenance ledger
(:mod:`repro.obs.forensics`): PRIL LO-REF grants/revocations with their
write-interval evidence, the MEMCON test lifecycle, refresh-ledger
transitions and fault-predicate evaluations.
A :class:`repro.obs.LedgerSink` in the sink tee writes the ledger to
``<trace stem>.forensics.jsonl`` as the run streams (``--forensics-out``
overrides), its census lands in the manifest under ``"forensics"``, and
``python -m repro.obs.why --row R`` answers per-row causal queries
against it.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from .. import obs
from ..parallel import (
    CheckpointJournal,
    ParallelExecutor,
    decompose,
    experiment_module,
    merge_payloads,
)
from .common import ExperimentResult

logger = logging.getLogger(__name__)

#: Experiment ids, in the order ``all`` runs them; each names a module
#: of this package exposing the work-unit hooks (:mod:`repro.parallel.units`).
EXPERIMENTS: Tuple[str, ...] = (
    "fig03", "fig04", "fig06", "fig07", "fig08", "fig09", "fig11", "fig12",
    "fig14", "fig15", "fig16", "fig17", "fig18", "fig19", "table3",
)


def _resolve_names(names: List[str]) -> List[str]:
    """Expand ``["all"]``; raise ``KeyError`` naming any unknown id."""
    if names == ["all"]:
        return list(EXPERIMENTS)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        raise KeyError(
            f"unknown experiments {unknown}; available: {list(EXPERIMENTS)}"
        )
    return names


def run_experiments(
    names: List[str], quick: bool = True, seed: int = 1
) -> List[ExperimentResult]:
    """Run the named experiments (or all of them) serially.

    Each experiment runs the work units its module lists, in order, and
    merges their payloads: the path a ``--jobs N`` pool takes, minus the
    pool. ``units`` is looked up at call time, so a module whose
    ``units`` was replaced by a filter runs just that subset.
    """
    results = []
    for name in _resolve_names(names):
        module = experiment_module(name)
        payloads = [
            module.run_unit(unit, quick=quick, seed=seed)
            for unit in module.units(quick=quick, seed=seed)
        ]
        results.append(module.merge_units(payloads, quick=quick, seed=seed))
    return results


def _configure_logging(verbose: bool, quiet: bool) -> None:
    """Route progress messages to stderr at the requested level."""
    if verbose:
        level = logging.DEBUG
    elif quiet:
        level = logging.WARNING
    else:
        level = logging.INFO
    root = logging.getLogger("repro")
    if not root.handlers:
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
        root.addHandler(handler)
        root.propagate = False
    root.setLevel(level)


def _ensure_parent(path: str) -> None:
    """Create a file's parent directories so outputs can nest anywhere."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)


def _default_manifest_path(args: argparse.Namespace) -> Optional[str]:
    """Where the manifest lands when ``--manifest`` is not given."""
    if args.manifest:
        return args.manifest
    for anchor in (args.out, args.metrics, args.trace):
        if anchor:
            return os.path.splitext(anchor)[0] + ".manifest.json"
    return None


def _default_checkpoint_path(args: argparse.Namespace) -> str:
    """Where the unit journal lands when ``--checkpoint`` is not given."""
    if args.checkpoint:
        return args.checkpoint
    for anchor in (args.out, args.metrics, args.trace, args.manifest):
        if anchor:
            return os.path.splitext(anchor)[0] + ".checkpoint.jsonl"
    return "results.checkpoint.jsonl"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Reproduce the MEMCON paper's tables and figures.",
    )
    parser.add_argument(
        "experiments", nargs="+",
        help="experiment ids (fig03 ... table3) or 'all'",
    )
    parser.add_argument(
        "--full", action="store_true",
        help="paper-scale settings (slower) instead of quick mode",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--out", metavar="FILE", default=None,
        help="also write each result table to FILE (markdown code blocks); "
        "the file is truncated at the start of the run",
    )
    parser.add_argument(
        "--trace", metavar="FILE", default=None,
        help="write the structured JSONL event trace of the run to FILE",
    )
    parser.add_argument(
        "--metrics", metavar="FILE", default=None,
        help="enable the metrics registry and write its final snapshot "
        "to FILE as JSON",
    )
    parser.add_argument(
        "--manifest", metavar="FILE", default=None,
        help="write the run manifest to FILE (default: next to --out, "
        "--metrics or --trace, whichever is given first)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="execute each experiment's work units across N processes "
        "(default 1: serial); result tables are byte-identical for any N",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="skip work units already in the checkpoint journal (their "
        "fingerprints must match the current seed/scale)",
    )
    parser.add_argument(
        "--checkpoint", metavar="FILE", default=None,
        help="checkpoint journal location (default: next to the first "
        "output file, else results.checkpoint.jsonl)",
    )
    parser.add_argument(
        "--unit-timeout", type=float, default=None, metavar="S",
        help="per-unit wall-clock budget in seconds; overrunning units "
        "are terminated and retried (default: no timeout)",
    )
    parser.add_argument(
        "--retries", type=int, default=2, metavar="N",
        help="crash/timeout retries per unit before degrading it to "
        "serial execution in the parent (default %(default)s)",
    )
    parser.add_argument(
        "--live", action="store_true",
        help="periodic stderr status line (events/s, LO-REF rows, "
        "outstanding tests, ETA) driven by the in-process aggregator; "
        "with --jobs N it adds one row per worker (units done, last "
        "unit, RSS peak), refreshed as units finish",
    )
    parser.add_argument(
        "--window-ms", type=float, default=1024.0,
        help="aggregation window for the manifest's time-series rollups "
        "(default %(default)s, the MEMCON quantum)",
    )
    parser.add_argument(
        "--forensics", action="store_true",
        help="record the decision-provenance ledger (PRIL grants/"
        "revocations, MEMCON test evidence, refresh transitions, "
        "predicate evaluations) next to the trace as the run streams; "
        "implies --trace (a default path is derived when absent)",
    )
    parser.add_argument(
        "--forensics-out", metavar="FILE", default=None,
        help="ledger location (default: <trace stem>.forensics.jsonl)",
    )
    verbosity = parser.add_mutually_exclusive_group()
    verbosity.add_argument(
        "-v", "--verbose", action="store_true",
        help="debug-level progress output",
    )
    verbosity.add_argument(
        "-q", "--quiet", action="store_true",
        help="warnings only (result tables still print)",
    )
    args = parser.parse_args(argv)
    _configure_logging(args.verbose, args.quiet)
    # Bad numbers fail here, before any output file is touched.
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if not (math.isfinite(args.window_ms) and args.window_ms > 0):
        parser.error("--window-ms must be positive and finite")
    if args.retries < 0:
        parser.error("--retries must be >= 0")
    if args.unit_timeout is not None and not (
        math.isfinite(args.unit_timeout) and args.unit_timeout > 0
    ):
        parser.error("--unit-timeout must be positive and finite")

    names = _resolve_names(args.experiments)

    if args.forensics and not args.trace:
        # The ledger rides the event trace, so forensics implies one.
        for anchor in (args.out, args.metrics, args.manifest):
            if anchor:
                args.trace = os.path.splitext(anchor)[0] + ".trace.jsonl"
                break
        else:
            args.trace = "results.trace.jsonl"
        logger.info("--forensics: tracing to %s", args.trace)

    parallel = args.jobs > 1
    journaling = parallel or args.resume or bool(args.checkpoint)

    if args.out:
        _ensure_parent(args.out)
        # Truncate once so each invocation produces a fresh report, then
        # append per experiment so partial output survives a crash.
        with open(args.out, "w"):
            pass

    manifest = obs.RunManifest.start(
        names, seed=args.seed, quick=not args.full,
        config={"out": args.out, "trace": args.trace, "metrics": args.metrics,
                "live": args.live, "window_ms": args.window_ms,
                "jobs": args.jobs, "resume": args.resume,
                "forensics": args.forensics},
    )
    manifest.trace_path = args.trace

    previous_registry = None
    if args.metrics:
        previous_registry = obs.set_registry(obs.MetricsRegistry(enabled=True))
    # Sink stack: JSONL file, in-process aggregator, live reporter and
    # forensic ledger — all fed from the same emit() calls through one
    # tee. In a sharded run the executor emits each unit's records here,
    # in unit order, so serial and --jobs N ledgers are byte-identical.
    jsonl_sink = obs.JsonlTraceSink(args.trace) if args.trace else None
    aggregator = (
        obs.AggregatingSink(window_ms=args.window_ms)
        if (args.trace or args.live) else None
    )
    live = obs.LiveReporter(aggregator) if args.live else None
    ledger = (
        obs.LedgerSink(
            args.forensics_out
            or os.path.splitext(args.trace)[0] + ".forensics.jsonl"
        )
        if args.forensics else None
    )
    sinks = [
        s for s in (jsonl_sink, aggregator, live, ledger) if s is not None
    ]
    if len(sinks) > 1:
        sink = obs.TeeSink(*sinks)
    elif sinks:
        sink = sinks[0]
    else:
        sink = None
    previous_sink = obs.set_sink(sink) if sink is not None else None
    previous_forensics = (
        obs.set_forensics(True) if args.forensics else None
    )

    executor: Optional[ParallelExecutor] = None
    journal: Optional[CheckpointJournal] = None
    done: Dict[str, Dict[str, Any]] = {}
    if journaling:
        checkpoint_path = _default_checkpoint_path(args)
        _ensure_parent(checkpoint_path)
        journal = CheckpointJournal(checkpoint_path)
        if args.resume:
            done = journal.load()
            logger.info(
                "resume: %d journalled units in %s", len(done), checkpoint_path
            )
        executor = ParallelExecutor(
            args.jobs,
            quick=not args.full,
            seed=args.seed,
            unit_timeout_s=args.unit_timeout,
            max_retries=args.retries,
        )
    # Under --jobs N --live, every resolved unit repaints the worker rows.
    on_unit = None
    if parallel and live is not None:
        def on_unit(unit, skipped):
            live.show_workers(executor.topology()["workers"])

    totals: Dict[str, int] = {}
    run_started = time.perf_counter()
    try:
        obs.emit("run_started", experiments=names, seed=args.seed,
                 quick=not args.full)
        with obs.collect_spans("run") as collector:
            for name in names:
                started = time.perf_counter()
                logger.info("running %s (quick=%s, seed=%d, jobs=%d)",
                            name, not args.full, args.seed, args.jobs)
                obs.emit("experiment_started", experiment=name)
                with obs.span(name):
                    if executor is None:
                        result = run_experiments(
                            [name], quick=not args.full, seed=args.seed
                        )[0]
                    else:
                        units = decompose(
                            name, quick=not args.full, seed=args.seed
                        )
                        payloads, stats = executor.run_units(
                            units, journal=journal, done=done,
                            on_unit=on_unit,
                        )
                        result = merge_payloads(
                            name, payloads,
                            quick=not args.full, seed=args.seed,
                        )
                        for key, value in stats.as_dict().items():
                            totals[key] = totals.get(key, 0) + value
                        if stats.skipped:
                            logger.info(
                                "%s: %d/%d units from checkpoint",
                                name, stats.skipped, len(units),
                            )
                wall_s = time.perf_counter() - started
                obs.emit("experiment_finished", experiment=name,
                         wall_s=wall_s)
                if aggregator is not None:
                    # Fold the buffered stream between experiments so the
                    # record buffer never spans more than one experiment.
                    aggregator.drain()
                manifest.add_timing(name, wall_s, jobs=args.jobs)
                logger.info("%s finished in %.1fs", name, wall_s)
                text = result.to_text()
                print(text)
                print()
                if args.out:
                    with open(args.out, "a") as handle:
                        handle.write(f"```\n{text}\n```\n\n")
        manifest.wall_s = time.perf_counter() - run_started
        obs.emit("run_finished", wall_s=manifest.wall_s)
        manifest.spans = collector.to_dict()
        if args.metrics:
            manifest.metrics = obs.get_registry().snapshot()
        if aggregator is not None:
            manifest.timeseries = aggregator.to_dict()
    finally:
        if previous_forensics is not None:
            obs.set_forensics(previous_forensics)
        if sink is not None:
            obs.set_sink(previous_sink)
            sink.close()
        if previous_registry is not None:
            obs.set_registry(previous_registry)
        if journal is not None:
            journal.close()
        if executor is not None:
            executor.shutdown()

    if executor is not None:
        manifest.workers = executor.topology()
        manifest.workers["stats"] = totals

    if ledger is not None:
        manifest.forensics = ledger.census()
        logger.info(
            "forensic ledger: %d records (%d rows) written to %s",
            manifest.forensics["records"], manifest.forensics["rows"],
            ledger.path,
        )

    if args.metrics:
        _ensure_parent(args.metrics)
        with open(args.metrics, "w", encoding="utf-8") as handle:
            json.dump(manifest.metrics, handle, indent=2)
            handle.write("\n")
        logger.info("metrics snapshot written to %s", args.metrics)
    manifest_path = _default_manifest_path(args)
    if manifest_path:
        manifest.write(manifest_path)
        logger.info("run manifest written to %s", manifest_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
