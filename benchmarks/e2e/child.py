"""One fresh-process invocation of ``repro.experiments.runner.main``.

``run.py`` starts this script once per repetition, so trace and
``lru_cache`` caches start empty, as they do for a user's invocation.
Usage: ``python child.py SPEC.json``, where the spec holds:

* ``argv`` — the runner's argument list, or ``null`` for a set-up probe
  that only imports the runner;
* ``units`` — ``{experiment: [unit keys]}``: run only these work units
  of the experiment (see ``run.py`` for why a workload is scaled);
* ``constants`` — ``{experiment: {NAME: value}}``: module constants of
  the experiment to override before it runs;
* ``probed`` — install the frame sampler and the layer wrappers;
* ``result`` — where to write this process's measurements as JSON.

The result records ``imported_at``, the ``time.monotonic()`` instant the
runner module finished importing (the clock is shared by every process
on the host, so the parent subtracts its own spawn instant), and
``import_cpu_s``, the process's CPU seconds by then. For a run it adds
``wall_s`` and ``cpu_s`` spent in ``main(argv)``, the monotonic
``started_at`` and ``ended_at`` of that call, the exit status and
``peak_rss_mib``.
"""

from __future__ import annotations

import importlib
import json
import os
import resource
import sys
import time


def scale(units: dict, constants: dict) -> None:
    """Narrow experiments to a subset of their work units and constants."""
    for experiment, keys in units.items():
        module = importlib.import_module(f"repro.experiments.{experiment}")
        every_unit = module.units

        def subset(*args, _every=every_unit, _keys=tuple(keys), **kwargs):
            chosen = [u for u in _every(*args, **kwargs) if u.key in _keys]
            if [u.key for u in chosen] != list(_keys):
                raise RuntimeError(
                    f"work units {list(_keys)} not all found, in order, "
                    f"among {[u.key for u in _every(*args, **kwargs)]}"
                )
            return chosen

        module.units = subset
    for experiment, values in constants.items():
        module = importlib.import_module(f"repro.experiments.{experiment}")
        for name, value in values.items():
            if not hasattr(module, name):
                raise AttributeError(f"{module.__name__} has no {name}")
            # Experiment constants are tuples; JSON hands back a list.
            setattr(module, name, tuple(value))


def peak_rss_mib() -> float:
    """This process's peak resident set, in MiB.

    ``VmHWM`` counts only the memory mapped since ``exec``. On Linux,
    ``ru_maxrss`` also keeps the high-water mark of the process that
    spawned this one, so a large parent would show through it.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as handle:
        spec = json.load(handle)
    from repro.experiments import runner

    imported = {"imported_at": time.monotonic(),
                "import_cpu_s": time.process_time()}
    if spec["argv"] is None:
        # A set-up probe: importing the runner is all it measures.
        _write(spec["result"], imported)
        return 0
    scale(spec["units"], spec["constants"])

    probed = spec["probed"]
    if probed:
        import layers
        import repro

        # Importing the runner imported every experiment module, so the
        # wrappers reach each module-level binding of a wrapped function.
        patches = layers.Patches()
        probes, sims, misses = layers.install_probes(patches)
        sampler = layers.FrameSampler(
            os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        )
        sampler.start()

    started_at, started, cpu_started = (
        time.monotonic(), time.perf_counter(), time.process_time()
    )
    try:
        status = runner.main(spec["argv"])
    finally:
        wall_s = time.perf_counter() - started
        cpu_s = time.process_time() - cpu_started
        ended_at = time.monotonic()
        if probed:
            sampler.stop()
            patches.restore()

    result = {
        **imported,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "started_at": started_at,
        "ended_at": ended_at,
        "status": status,
        "peak_rss_mib": peak_rss_mib(),
    }
    if probed:
        result["samples"] = sampler.samples
        result["sampled_s"] = sampler.seconds
        result["probes"] = {name: p.to_dict() for name, p in probes.items()}
        result["sim_repeat_calls"] = sims.repeat_calls
        result["sim_window_ns"] = sims.window_ns
        result["trace_misses"] = misses.misses
    _write(spec["result"], result)
    return status


def _write(path: str, result: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    sys.exit(main())
