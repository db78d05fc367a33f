#!/usr/bin/env python3
"""Re-pin the table digests, re-measure the spread, derive the bounds.

Usage (from the repository root)::

    python benchmarks/e2e/calibrate.py pin              # seeds 1 and 2
    python benchmarks/e2e/calibrate.py spread --seeds 1-10
    python benchmarks/e2e/calibrate.py bounds
    python benchmarks/e2e/calibrate.py shares

``pin`` runs one untraced repetition of every workload per seed and
writes the digests of its tables (and of the ``memcon-traced`` event
stream without ``wall_s``) to ``digests.json``. Pin only from a commit
whose tables are known good: the pins are the correctness gate.

``spread`` runs ``run.py``'s ``--trace 0`` measurement once per workload
and seed, and appends a record to the ``runs`` list of ``baseline.json``:
for each end-to-end metric its values, median, quartiles and spread
(interquartile distance over the median, as
``statistics.quantiles(values, n=4)`` gives the quartiles), next to the
host's CPU count, the python and numpy versions and the git revision.

``bounds`` writes each end-to-end metric's bound into ``BENCHMARK.json``:
``max(5%, 3 x spread)``, where the spread is the widest one recorded for
the metric in ``baseline.json`` over workloads and runs, rounded up to a
whole percent, so that every recorded spread is at most a third of its
bound. No bound exceeds the 25% a bound may be, and ``setup_s``, whose
median moves most between sets, gets those 25%. It warns when the
``norm_cpu_s`` bound is above 10% (the runs should then be steadier).

``shares`` runs one probed child of each scaled workload and one of the
full experiments it was scaled from, and records both sample-share
vectors in ``baseline.json`` (``shares``), so the subset can be checked
to spend its time where the full experiment does.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List

import run
from layers import LAYERS

BASELINE = run.HERE / "baseline.json"
BENCHMARK = run.ROOT / "BENCHMARK.json"
#: A bound is at least 5%, at least three times the spread and at most
#: the 25% a bound may be.
FLOOR, SPREAD_FACTOR, CEILING = 0.05, 3.0, 0.25
#: Above this, run times should be made steadier, not their bound wider.
TIME_LIMIT = 0.10


def _seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def _load_baseline() -> Dict:
    if BASELINE.exists():
        return json.loads(BASELINE.read_text(encoding="utf-8"))
    return {"runs": [], "shares": {}}


def _save_baseline(baseline: Dict) -> None:
    BASELINE.write_text(json.dumps(baseline, indent=2) + "\n",
                        encoding="utf-8")


def pin(seeds: List[int]) -> None:
    pinned: Dict[str, Dict[str, List[str]]] = {}
    tmp = Path(tempfile.mkdtemp(prefix=".e2e-", dir=run.ROOT))
    try:
        for name, workload in run.WORKLOADS.items():
            for seed in seeds:
                rep = run.run_rep(workload, seed, tmp / f"{name}-{seed}",
                                  probed=False, timeout_s=run.HARD_CAP_S)
                if rep.error is not None:
                    raise SystemExit(f"{name} seed {seed}: {rep.error}")
                pinned.setdefault(name, {})[str(seed)] = rep.digests
                print(f"{name} seed {seed}: {len(rep.digests)} digests",
                      flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    run.DIGESTS.write_text(json.dumps(pinned, indent=2) + "\n",
                           encoding="utf-8")


def _git_rev() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def spread(seeds: List[int], seconds: float) -> None:
    import numpy

    workloads: Dict[str, Dict[str, Dict]] = {}
    for name in run.WORKLOADS:
        values: Dict[str, List[float]] = {m: [] for m in run.END_TO_END}
        for seed in seeds:
            result, lines = run.run_workload(name, seed, seconds, False)
            print("\n".join(lines), flush=True)
            if not result["correct"]:
                raise SystemExit(f"{name} seed {seed}: outputs incorrect")
            for metric in values:
                values[metric].append(result["metrics"][metric]["value"])
        stats = {}
        for metric, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            stats[metric] = {
                "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median, "values": vals,
            }
        workloads[name] = stats
        print(name, {m: f"{s['median']:.4g} ±{100 * s['spread']:.1f}%"
                     for m, s in stats.items()}, flush=True)
    baseline = _load_baseline()
    baseline["runs"].append({
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": _git_rev(),
        "seconds": seconds,
        "seeds": seeds,
        "workloads": workloads,
    })
    _save_baseline(baseline)


def derive_bounds(runs: List[Dict]) -> Dict[str, float]:
    """Each end-to-end metric's bound from the spreads in ``runs``."""
    def widest(metric: str) -> float:
        return max(w[metric]["spread"] for r in runs
                   for w in r["workloads"].values())

    bounds = {
        metric: min(CEILING, math.ceil(100 * max(
            FLOOR, SPREAD_FACTOR * widest(metric)
        ) - 1e-9) / 100)
        for metric in run.END_TO_END
    }
    bounds["setup_s"] = CEILING
    return bounds


def bounds() -> None:
    runs = _load_baseline()["runs"]
    if not runs:
        raise SystemExit("no spread recorded; run `calibrate.py spread`")
    derived = derive_bounds(runs)
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    for metric in spec["end_to_end"]:
        metric["bound"] = derived[metric["name"]]
    BENCHMARK.write_text(json.dumps(spec, indent=2) + "\n", encoding="utf-8")
    for metric, bound in derived.items():
        widest = max(w[metric]["spread"] for r in runs
                     for w in r["workloads"].values())
        print(f"{metric}: widest spread {100 * widest:.1f}% -> bound "
              f"{100 * bound:.0f}%")
        if metric == "norm_cpu_s" and bound > TIME_LIMIT:
            print(f"  warning: above {100 * TIME_LIMIT:.0f}%; the runs "
                  "should be steadier")
        if metric != "setup_s" and widest > bound / SPREAD_FACTOR:
            print("  warning: the spread is above a third of the bound")


def shares() -> None:
    """Probe each scaled workload and its full experiments once."""
    baseline = _load_baseline()
    tmp = Path(tempfile.mkdtemp(prefix=".e2e-", dir=run.ROOT))
    try:
        for name, workload in run.WORKLOADS.items():
            if not (workload.units or workload.constants):
                continue
            full = dataclasses.replace(workload, units={}, constants={})
            record = {}
            for label, variant in (("scaled", workload), ("full", full)):
                rep = run.run_rep(variant, 1, tmp / f"{name}-{label}",
                                  probed=True, timeout_s=run.HARD_CAP_S)
                if rep.error is not None:
                    raise SystemExit(f"{name} {label}: {rep.error}")
                m = run.layer_metrics(rep)
                record[label] = {
                    "wall_s": rep.wall_s,
                    "sim.run_calls": m["sim.run_calls"],
                    "sim.repeat_calls": m["sim.repeat_calls"],
                    "shares": {layer: round(m[f"share.{layer}"], 2)
                               for layer in LAYERS},
                }
                print(name, label, json.dumps(record[label]), flush=True)
            baseline.setdefault("shares", {})[name] = record
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    _save_baseline(baseline)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_pin = sub.add_parser("pin")
    p_pin.add_argument("--seeds", type=_seeds, default=[1, 2])
    p_spread = sub.add_parser("spread")
    p_spread.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    p_spread.add_argument("--seconds", type=float, default=run.DEFAULT_SECONDS)
    sub.add_parser("bounds")
    sub.add_parser("shares")
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    if args.command == "pin":
        pin(args.seeds)
    elif args.command == "spread":
        spread(args.seeds, args.seconds)
    elif args.command == "bounds":
        bounds()
    else:
        shares()


if __name__ == "__main__":
    main()
