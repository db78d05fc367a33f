#!/usr/bin/env python3
"""End-to-end benchmark of the experiment runner, with a per-layer trace.

Usage (from the repository root)::

    python benchmarks/e2e/run.py                      # every workload, both modes
    python benchmarks/e2e/run.py --workload fig15-sim --seed 2 --trace 1
    python benchmarks/e2e/run.py --workload table3-sim --seconds 24 --trace 0

Each repetition runs ``repro.experiments.runner.main(argv)`` — the entry
point behind ``python -m repro.experiments`` — in a fresh child process
(``child.py``), one child at a time, serial, with its stdout captured.
``--trace 0`` repeats untraced children while the next one still ends
within ``--seconds`` (at least one) and reports the end-to-end metrics
as medians over the repetitions; its times are CPU seconds normalised
to a reference host speed sampled on the child's CPU (``hostspeed.py``).
``--trace 1`` repeats rounds of one untraced and one probed child (frame
sampler plus layer wrappers, see ``layers.py``) the same way and reports
the per-layer metrics.

Every repetition's tables are checked: seeds with digests pinned in
``digests.json`` must reproduce them exactly; for any other seed every
repetition, probed or not, must reproduce the first one. The last line
printed is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

where an attempted operation is one table of the ``--out`` file (plus the
event trace on ``memcon-traced``) and a failed one raised or mismatched.
The command exits 1 when any operation failed and 2 when the repository
to run is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
RUNNER = SRC / "repro" / "experiments" / "runner.py"
DIGESTS = HERE / "digests.json"

from hostspeed import SpeedProbe
from layers import LAYERS, percentile, tail_percentile
from tables import sha256, split_tables, table_id, trace_digest

#: Default measuring time of one invocation, in seconds.
DEFAULT_SECONDS = 30
#: Children that only import the runner, made before the repetitions of
#: a ``--trace 0`` run, so that ``setup_s`` is a median of at least three
#: set-ups even when one repetition fills the run.
SETUP_PROBES = 2
#: Hard cap on one invocation, below the 180 s a run may take.
HARD_CAP_S = 170.0


@dataclasses.dataclass(frozen=True)
class Workload:
    """One runner invocation, and how it is scaled to fit a run.

    One quick ``fig15`` takes ~45 s and one quick ``table3`` ~40 s on a
    2-CPU host, longer than a whole run may measure, so the simulator
    workloads run 4-core work units of their experiment (for ``table3``,
    at one test concurrency). A work unit is the same shard ``--jobs N``
    distributes, so the subset runs exactly the code the full experiment
    runs, for fewer configurations. The 1-core units are left out
    because their work depends on the seed: each draws six single
    benchmarks, and over seeds 1-10 their event-loop iterations spread
    by 22% (interquartile range over the median), against 1.1% for
    ``fig15:c4-d32``, 1.6% for ``table3:c4-ch1`` and 6.7% for
    ``table3:c4-ch2``, which ``table3-sim`` therefore pairs with
    ``table3:c4-ch1``.
    """

    experiments: Tuple[str, ...]
    why: str
    flags: Tuple[str, ...] = ()
    units: Dict[str, List[str]] = dataclasses.field(default_factory=dict)
    constants: Dict[str, Dict[str, object]] = dataclasses.field(
        default_factory=dict
    )
    trace_stream: bool = False

    def argv(self, seed: int, out: Path, trace: Path,
             metrics: Optional[Path]) -> List[str]:
        argv = [*self.experiments, *self.flags, "--jobs", "1",
                "--seed", str(seed), "--out", str(out)]
        if self.trace_stream:
            argv += ["--trace", str(trace)]
        if metrics is not None:
            argv += ["--metrics", str(metrics)]
        return argv

    @property
    def ops(self) -> int:
        return len(self.experiments) + int(self.trace_stream)


WORKLOADS: Dict[str, Workload] = {
    "fig15-sim": Workload(
        experiments=("fig15",),
        units={"fig15": ["fig15:c4-d32"]},
        why=(
            "4-core 32 Gb fig15 unit: single-channel simulator sweep in "
            "which 6 of 24 SystemSimulator.run calls repeat a baseline; "
            "dedupe and sim-layer speedups act here"
        ),
    ),
    "table3-sim": Workload(
        experiments=("table3",),
        units={"table3": ["table3:c4-ch1", "table3:c4-ch2"]},
        constants={"table3": {"CONCURRENT_TESTS": [1024]}},
        why=(
            "4-core 1- and 2-channel table3 units at 1024 concurrent tests: "
            "the multi-channel path, no repeated simulator call; sim "
            "speedups act, dedupe must not"
        ),
    ),
    "analytic-full": Workload(
        experiments=("fig03", "fig04", "fig07", "fig08", "fig09", "fig11",
                     "fig12", "fig14", "fig17", "fig18", "fig19"),
        flags=("--full",),
        why=(
            "paper-scale analytic path without the simulator: fault "
            "engine, scrambler, data patterns, trace generation and "
            "vectorised MEMCON accounting"
        ),
    ),
    "memcon-traced": Workload(
        experiments=("fig14", "fig17", "fig18", "fig19"),
        trace_stream=True,
        why=(
            "MEMCON accounting with a JSONL trace sink, which switches to "
            "the per-page loop; analytic-full is its untraced control"
        ),
    ),
}

#: End-to-end metrics (untraced repetitions): name -> unit.
END_TO_END = {
    "norm_cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

#: Per-layer metrics (probed repetitions): name -> (unit, better).
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "samples": ("count", "higher"),
    **{f"share.{layer}": ("%", "lower") for layer in LAYERS},
    "sim.run_calls": ("count", "lower"),
    "sim.run_pct": ("%", "lower"),
    "sim.run_p50_ms": ("ms/call", "lower"),
    "sim.run_tail_ms": ("ms/call", "lower"),
    "sim.repeat_calls": ("count", "lower"),
    "sim.us_per_s": ("us/s", "higher"),
    "sim.loop_iterations": ("count", "lower"),
    "sim.ns_per_iteration": ("ns/iter", "lower"),
    "traces.calls": ("count", "lower"),
    "traces.cache_misses": ("count", "lower"),
    "traces.gen_pct": ("%", "lower"),
    "traces.writes": ("count", "lower"),
    "traces.writes_per_s": ("1/s", "higher"),
    "core.memcon_calls": ("count", "lower"),
    "core.memcon_pct": ("%", "lower"),
    "core.memcon_p50_ms": ("ms/call", "lower"),
    "core.memcon_tail_ms": ("ms/call", "lower"),
    "dram.fault_calls": ("count", "lower"),
    "dram.fault_pct": ("%", "lower"),
    "dram.rows_evaluated": ("count", "lower"),
    "dram.rows_per_s": ("1/s", "higher"),
    "dram.scramble_pct": ("%", "lower"),
    "testinfra.pattern_calls": ("count", "lower"),
    "testinfra.pattern_pct": ("%", "lower"),
    "obs.records": ("count", "lower"),
    "obs.trace_mib": ("MiB", "lower"),
    "obs.sink_pct": ("%", "lower"),
    "experiments.render_pct": ("%", "lower"),
    "traced_wall_s": ("s", "lower"),
    "tracing_overhead_pct": ("%", "lower"),
}


@dataclasses.dataclass
class Rep:
    """One child process: what it measured and what it produced."""

    probed: bool
    digests: List[str]
    wall_s: float = 0.0
    #: CPU seconds in ``main(argv)`` and from exec to the runner's
    #: import, at the reference host speed (only with a speed probe).
    norm_cpu_s: float = 0.0
    setup_s: float = 0.0
    peak_rss_mib: float = 0.0
    error: Optional[str] = None
    child: Dict = dataclasses.field(default_factory=dict)
    trace_bytes: int = 0
    counters: Dict[str, float] = dataclasses.field(default_factory=dict)


class ChildError(Exception):
    """A child process timed out or exited with an error."""


def spawn_child(spec: Dict, work: Path, timeout_s: float,
                speed: Optional[SpeedProbe] = None) -> Tuple[Dict, float]:
    """Run ``child.py`` on ``spec`` in the new directory ``work``.

    Returns the child's result object and the ``time.monotonic()``
    instant it was spawned at; raises :class:`ChildError`. ``speed``
    samples the host's speed while the child runs.
    """
    work.mkdir()
    spec = dict(spec, result=str(work / "result.json"))
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    # One thread per process: BLAS pools would otherwise add idle
    # threads beside the sampler on a 2-CPU host.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # A fixed string-hash seed gives every child the same dict and set
    # layouts, so their times differ by the host and the inputs only.
    # The tables do not depend on it: the pinned digests hold under any.
    env["PYTHONHASHSEED"] = "0"
    spawned = time.monotonic()
    try:
        with speed.sampling() if speed else contextlib.nullcontext():
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(spec_path)],
                cwd=ROOT, env=env, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, timeout=timeout_s,
            )
    except subprocess.TimeoutExpired:
        raise ChildError(f"child exceeded {timeout_s:.0f}s") from None
    if proc.returncode != 0:
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-5:]
        raise ChildError(f"child exited {proc.returncode}: " + " | ".join(tail))
    result = json.loads((work / "result.json").read_text(encoding="utf-8"))
    return result, spawned


def normalised_setup_s(child: Dict, spawned: float, speed: SpeedProbe) -> float:
    """CPU seconds from exec to the runner's import, at reference speed."""
    return child["import_cpu_s"] * speed.scale(spawned, child["imported_at"])


def measure_setup(work: Path, timeout_s: float, speed: SpeedProbe) -> float:
    """Set-up seconds of a child that imports the runner and exits."""
    child, spawned = spawn_child({"argv": None}, work, timeout_s, speed)
    try:
        return normalised_setup_s(child, spawned, speed)
    except ValueError as exc:
        raise ChildError(f"speed probe: {exc}") from None


def run_rep(workload: Workload, seed: int, work: Path, probed: bool,
            timeout_s: float, speed: Optional[SpeedProbe] = None) -> Rep:
    """Run one child and digest its outputs; errors land in ``Rep.error``.

    With ``speed``, the repetition's normalised times are filled in.
    """
    out, trace = work / "out.md", work / "trace.jsonl"
    metrics = work / "metrics.json" if probed else None
    spec = {
        "argv": workload.argv(seed, out, trace, metrics),
        "units": workload.units,
        "constants": workload.constants,
        "probed": probed,
    }
    rep = Rep(probed=probed, digests=[])
    try:
        child, spawned = spawn_child(spec, work, timeout_s, speed)
    except ChildError as exc:
        rep.error = str(exc)
        return rep
    rep.child = child
    rep.wall_s = child["wall_s"]
    rep.peak_rss_mib = child["peak_rss_mib"]
    if speed is not None:
        try:
            rep.norm_cpu_s = child["cpu_s"] * speed.scale(
                child["started_at"], child["ended_at"]
            )
            rep.setup_s = normalised_setup_s(child, spawned, speed)
        except ValueError as exc:
            rep.error = f"speed probe: {exc}"
            return rep
    try:
        tables = split_tables(out.read_text(encoding="utf-8"))
        ids = [table_id(t) for t in tables]
    except (OSError, ValueError) as exc:
        rep.error = f"unreadable --out file: {exc}"
        return rep
    if ids != list(workload.experiments):
        rep.error = f"tables {ids} != experiments {list(workload.experiments)}"
        return rep
    rep.digests = [sha256(t.encode("utf-8")) for t in tables]
    if workload.trace_stream:
        digest, rep.trace_bytes = trace_digest(trace)
        rep.digests.append(digest)
    if metrics is not None:
        snapshot = json.loads(metrics.read_text(encoding="utf-8"))
        rep.counters = snapshot.get("counters", {})
    return rep


def count_failures(reps: List[Rep], ops: int,
                   pinned: Optional[List[str]]) -> Tuple[int, int]:
    """(attempted, failed) operations across repetitions.

    The reference is the pinned digest list when there is one, else the
    first repetition that ran to completion.
    """
    reference = pinned
    if reference is None:
        reference = next((r.digests for r in reps if r.error is None), None)
    failed = 0
    for rep in reps:
        if rep.error is not None or reference is None:
            failed += ops
            continue
        failed += sum(a != b for a, b in zip(rep.digests, reference))
        failed += abs(len(rep.digests) - len(reference))
    return ops * len(reps), min(failed, ops * len(reps))


def layer_metrics(rep: Rep) -> Dict[str, float]:
    """Per-layer metrics of one probed repetition."""
    child = rep.child
    wall = child["wall_s"]
    probes = child["probes"]
    sampled = child["sampled_s"]
    total_sampled = sum(sampled.values())

    def durations(name: str) -> List[float]:
        return probes[name]["durations"]

    def busy_pct(name: str) -> float:
        return 100.0 * sum(durations(name)) / wall

    def rate(units: float, seconds: float) -> float:
        return units / seconds if seconds else 0.0

    m: Dict[str, float] = {"samples": child["samples"]}
    for layer in LAYERS:
        m[f"share.{layer}"] = (
            100.0 * sampled[layer] / total_sampled if total_sampled else 0.0
        )
    for name in ("sim.run", "core.memcon"):
        calls = durations(name)
        m[f"{name}_calls"] = len(calls)
        m[f"{name}_pct"] = busy_pct(name)
        m[f"{name}_p50_ms"] = 1e3 * percentile(calls, 50.0)
        m[f"{name}_tail_ms"] = 1e3 * percentile(
            calls, tail_percentile(len(calls))
        )
    run_s = sum(durations("sim.run"))
    iterations = rep.counters.get("sim.loop_iterations", 0)
    m["sim.repeat_calls"] = child["sim_repeat_calls"]
    m["sim.us_per_s"] = rate(child["sim_window_ns"] / 1e3, run_s)
    m["sim.loop_iterations"] = iterations
    m["sim.ns_per_iteration"] = 1e9 * run_s / iterations if iterations else 0.0
    m["traces.calls"] = len(durations("traces"))
    m["traces.cache_misses"] = child["trace_misses"]
    m["traces.gen_pct"] = busy_pct("traces")
    m["traces.writes"] = probes["traces"]["units"]
    m["traces.writes_per_s"] = rate(
        probes["traces"]["units"], sum(durations("traces"))
    )
    m["dram.fault_calls"] = len(durations("dram.fault"))
    m["dram.fault_pct"] = busy_pct("dram.fault")
    m["dram.rows_evaluated"] = probes["dram.fault"]["units"]
    m["dram.rows_per_s"] = rate(
        probes["dram.fault"]["units"], sum(durations("dram.fault"))
    )
    m["dram.scramble_pct"] = busy_pct("dram.scramble")
    m["testinfra.pattern_calls"] = len(durations("testinfra.pattern"))
    m["testinfra.pattern_pct"] = busy_pct("testinfra.pattern")
    m["obs.records"] = len(durations("obs.sink"))
    m["obs.trace_mib"] = rep.trace_bytes / 2**20
    m["obs.sink_pct"] = busy_pct("obs.sink")
    m["experiments.render_pct"] = busy_pct("experiments.render")
    m["traced_wall_s"] = wall
    return m


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def run_workload(name: str, seed: int, seconds: float,
                 probed: bool) -> Tuple[Dict, List[str]]:
    """Measure one workload; returns (result object, report lines)."""
    workload = WORKLOADS[name]
    pinned_all = json.loads(DIGESTS.read_text(encoding="utf-8"))
    pinned = pinned_all.get(name, {}).get(str(seed))
    started = time.monotonic()
    deadline = started + seconds
    reps: List[Rep] = []
    setups: List[float] = []
    # One round is a plain child, then (--trace 1) a probed one.
    kinds = [False, True] if probed else [False]
    longest = 0.0
    tmp = Path(tempfile.mkdtemp(prefix=".e2e-", dir=ROOT))
    # End-to-end times are normalised by the host speed on the children's
    # CPU; the probed mode's sampler thread needs the second CPU instead.
    with contextlib.nullcontext() if probed else SpeedProbe() as speed:
        try:
            for i in range(0 if probed else SETUP_PROBES):
                try:
                    setups.append(
                        measure_setup(tmp / f"setup{i}", HARD_CAP_S, speed)
                    )
                except ChildError as exc:
                    reps.append(Rep(probed=False, digests=[],
                                    error=f"set-up probe: {exc}"))
                    break
            while not any(r.error for r in reps):
                begun = time.monotonic()
                for kind in kinds:
                    rep = run_rep(workload, seed, tmp / f"rep{len(reps)}",
                                  kind, timeout_s=max(
                                      1.0,
                                      started + HARD_CAP_S - time.monotonic(),
                                  ), speed=speed)
                    reps.append(rep)
                    if rep.error is not None:
                        break
                longest = max(longest, time.monotonic() - begun)
                if time.monotonic() + longest > deadline:
                    break
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    attempted, failed = count_failures(reps, workload.ops, pinned)
    plain = [r for r in reps if not r.probed and r.error is None]
    lines = [f"workload {name}: seed {seed}, {len(reps)} repetitions "
             f"({len(plain)} untraced, {len(setups)} set-up probes), "
             f"{attempted} ops, {failed} failed"
             + (" (digests pinned)" if pinned else "")]
    lines += [f"  error: {r.error}" for r in reps if r.error]
    values: Dict[str, float] = {}
    if not probed:
        lines.append("  (not normalised: wall_s = "
                     f"{_median([r.wall_s for r in plain]):.6g} s)")
        values = {
            "norm_cpu_s": _median([r.norm_cpu_s for r in plain]),
            "setup_s": _median(setups + [r.setup_s for r in plain]),
            "peak_rss_mib": _median([r.peak_rss_mib for r in plain]),
        }
        units = END_TO_END
    else:
        traced = [layer_metrics(r) for r in reps
                  if r.probed and r.error is None]
        for metric in PER_LAYER:
            if metric != "tracing_overhead_pct":
                values[metric] = _median([t[metric] for t in traced])
        untraced_wall = _median([r.wall_s for r in plain])
        values["tracing_overhead_pct"] = (
            100.0 * (values["traced_wall_s"] / untraced_wall - 1.0)
            if untraced_wall and traced else 0.0
        )
        units = {metric: unit for metric, (unit, _) in PER_LAYER.items()}
    for metric, value in values.items():
        lines.append(f"  {metric} = {value:.6g} {units[metric]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": value, "unit": units[metric]}
            for metric, value in values.items()
        },
    }
    return result, lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"],
                        default="all")
    parser.add_argument("--seed", type=int, default=1,
                        help="runner seed (1 is the tuning seed, 2 held out)")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measuring time per workload and mode")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics "
                        "(default: both)")
    args = parser.parse_args(argv)
    # Exit through the exception path on SIGTERM, so subprocess.run kills
    # and reaps the running child and the run directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    if not RUNNER.is_file():
        print(f"run.py: {RUNNER.relative_to(ROOT)} not found; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = [False, True] if args.trace is None else [bool(args.trace)]
    ok = True
    for name in names:
        for probed in modes:
            result, lines = run_workload(name, args.seed, args.seconds,
                                         probed)
            print("\n".join(lines))
            print(json.dumps(result), flush=True)
            ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
