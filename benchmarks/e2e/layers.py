"""Per-layer measurement taken from outside the program.

Two instruments run inside the traced child process (``child.py``);
neither needs a change under ``src/``:

* :class:`FrameSampler` — a daemon thread that, about every millisecond,
  reads the main thread's stack through ``sys._current_frames()`` and
  charges the time since its previous sample to the innermost frame that
  lives in ``src/repro/`` (its dotted module, folded into :data:`LAYERS`).
  That is a self-time share per layer, including layers the wrappers
  cannot see, such as the simulator's event loop.
* :class:`Patches` plus :func:`install_probes` — timing wrappers around
  the public entry points of each layer. A wrapper replaces the defining
  attribute and every ``repro.*`` module global bound to the same object
  (experiments import functions by name), records one span per outermost
  call in memory, and everything is put back by :meth:`Patches.restore`.

The percentile helpers live here too, because the parent turns the
recorded spans into per-call latency metrics.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import os
import sys
import threading
import time
import weakref
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Every layer a sample can be charged to, in report order. Modules of
#: ``repro`` not named here fold into their package when the package is
#: listed (``analysis``, ``experiments``, ``parallel``) and into
#: ``other`` when it is not; so do samples with no ``repro`` frame.
LAYERS: Tuple[str, ...] = (
    "sim.system", "sim.core", "sim.events",
    "mc.scheduler", "mc.controller", "mc.bank", "mc.schedule", "mc.request",
    "dram.faults", "dram.scramble", "dram.disturb",
    "testinfra.patterns",
    "traces.generator", "traces.events",
    "core.memcon", "core.pril",
    "obs.trace", "obs.analytics",
    "analysis", "experiments", "parallel",
    "other",
)

_PACKAGE_LAYERS = frozenset({"analysis", "experiments", "parallel"})
_PACKAGE = "repro"


def layer_of(filename: str, src_root: str) -> Optional[str]:
    """The layer a frame's source file belongs to.

    ``src_root`` is the directory holding the ``repro`` package. Returns
    ``None`` for files outside ``src_root/repro`` (the standard library,
    numpy, this benchmark's own wrappers), so the caller keeps walking
    outwards to the next frame.
    """
    package_dir = os.path.join(src_root, "repro") + os.sep
    if not filename.startswith(package_dir) or not filename.endswith(".py"):
        return None
    dotted = filename[len(package_dir):-3].replace(os.sep, ".")
    if dotted == "__init__" or dotted.endswith(".__init__"):
        dotted = dotted[: -len("__init__")].rstrip(".")
    if dotted in LAYERS:
        return dotted
    package = dotted.split(".", 1)[0]
    return package if package in _PACKAGE_LAYERS else "other"


class FrameSampler:
    """Charge periodic samples of the main thread's stack to layers.

    The sampler needs the GIL to take a sample. Code that releases it
    (numpy, file writes) is sampled every ``interval_s``; pure-python
    code only when the interpreter switches threads, about every 5 ms.
    So each sample adds the time since the previous one to its layer's
    ``seconds``; counting samples instead would overweight the first.
    """

    def __init__(self, src_root: str, interval_s: float = 0.001) -> None:
        self.src_root = src_root
        self.interval_s = interval_s
        self.samples = 0
        self.seconds: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._loop, args=(threading.main_thread().ident,),
            name="e2e-frame-sampler", daemon=True,
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            if self._thread.is_alive():
                raise RuntimeError("frame sampler did not stop")

    def _loop(self, main_ident: int) -> None:
        by_file: Dict[str, Optional[str]] = {}
        last = time.perf_counter()
        while not self._stop.wait(self.interval_s):
            now = time.perf_counter()
            weight, last = now - last, now
            frame = sys._current_frames().get(main_ident)
            layer = "other"
            while frame is not None:
                filename = frame.f_code.co_filename
                if filename not in by_file:
                    by_file[filename] = layer_of(filename, self.src_root)
                found = by_file[filename]
                if found is not None:
                    layer = found
                    break
                frame = frame.f_back
            del frame
            self.samples += 1
            self.seconds[layer] += weight


class Patches:
    """Replace callables everywhere ``repro`` binds them; undo on restore."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def replace(self, owner: Any, attr: str,
                make: Callable[[Callable], Callable]) -> Callable:
        """Bind ``make(original)`` wherever ``owner.attr`` is bound.

        ``owner`` is a class or a module. For a class the original is
        taken from its ``__dict__`` so inherited attributes are refused;
        static and class methods are refused too, since wrapping their
        descriptor would change how they bind.
        """
        original = vars(owner)[attr]
        if isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"{attr} is a {type(original).__name__}")
        replacement = make(original)
        bindings = [(owner, attr)]
        for name, module in list(sys.modules.items()):
            if module is None or not (
                name == _PACKAGE or name.startswith(_PACKAGE + ".")
            ):
                continue
            for key, value in list(vars(module).items()):
                if value is original and (module, key) != (owner, attr):
                    bindings.append((module, key))
        for target, key in bindings:
            setattr(target, key, replacement)
            self._saved.append((target, key, original))
        return original

    def restore(self) -> None:
        for target, key, original in reversed(self._saved):
            setattr(target, key, original)
        self._saved.clear()


class Probe:
    """Spans of the outermost calls through one layer boundary.

    ``spans`` holds ``(start, end)`` perf-counter pairs; calls made while
    another call of the same probe is running (a wrapped method calling
    a wrapped sibling) are not timed again. ``units`` counts the work the
    calls did (rows evaluated, writes generated), as the probe defines.
    """

    def __init__(self) -> None:
        self.spans: List[Tuple[float, float]] = []
        self.units = 0
        self._depth = 0

    def wrap(self, fn: Callable,
             count: Optional[Callable[..., int]] = None) -> Callable:
        probe = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if probe._depth:
                return fn(*args, **kwargs)
            probe._depth += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                probe._depth -= 1
                probe.spans.append((start, time.perf_counter()))
            if count is not None:
                probe.units += count(args, kwargs, result)
            return result

        return timed

    def durations(self) -> List[float]:
        return [end - start for start, end in self.spans]

    def to_dict(self) -> Dict[str, Any]:
        return {"durations": self.durations(), "units": self.units}


class SimKeys:
    """Which ``SystemSimulator.run`` calls repeat an earlier configuration.

    The key is (benchmark names, ``asdict(config)``, seed, window): every
    input ``simulate_workload`` passes to the simulator.
    """

    def __init__(self) -> None:
        self._by_sim: Dict[int, Tuple] = {}
        self._seen: set = set()
        self.repeat_calls = 0
        self.window_ns = 0.0

    def on_init(self, args: Sequence, kwargs: Dict, result: Any) -> int:
        sim = args[0]
        benchmarks = args[1] if len(args) > 1 else kwargs["benchmarks"]
        seed = args[3] if len(args) > 3 else kwargs.get("seed", 0)
        self._by_sim[id(sim)] = (
            tuple(bench.name for bench in benchmarks),
            repr(dataclasses.asdict(sim.config)),
            seed,
        )
        return 0

    def on_run(self, args: Sequence, kwargs: Dict, result: Any) -> int:
        window = args[1] if len(args) > 1 else kwargs["window_ns"]
        key = (self._by_sim[id(args[0])], float(window))
        if key in self._seen:
            self.repeat_calls += 1
        self._seen.add(key)
        self.window_ns += float(window)
        return 1


class TraceMisses:
    """Count ``generate_trace`` results that were freshly generated.

    A cache hit hands back an object returned before; identity (through
    a weak reference, so no trace is kept alive) tells the two apart.
    Only fresh traces add their writes.
    """

    def __init__(self) -> None:
        self._returned: Dict[int, weakref.ref] = {}
        self.misses = 0

    def on_call(self, args: Sequence, kwargs: Dict, trace: Any) -> int:
        ref = self._returned.get(id(trace))
        if ref is not None and ref() is trace:
            return 0
        self._returned[id(trace)] = weakref.ref(trace)
        self.misses += 1
        return sum(len(times) for times in trace.writes.values())


def _rows_arg(args: Sequence, kwargs: Dict, result: Any) -> int:
    rows = args[1] if len(args) > 1 else kwargs["rows"]
    return len(rows)


def _one_row(args: Sequence, kwargs: Dict, result: Any) -> int:
    return 1


def install_probes(patches: Patches) -> Tuple[Dict[str, Probe], SimKeys,
                                              TraceMisses]:
    """Wrap each layer's public entry points; return the probes."""
    from repro.core import memcon
    from repro.dram.faults import FaultMap
    from repro.dram.scramble import VendorMapping
    from repro.experiments.common import ExperimentResult
    from repro.obs.trace import JsonlTraceSink
    from repro.sim.system import SystemSimulator
    from repro.testinfra.patterns import DataPattern
    from repro.traces import generator

    probes = {name: Probe() for name in (
        "sim.init", "sim.run", "core.memcon", "traces", "dram.fault",
        "dram.scramble", "testinfra.pattern", "obs.sink",
        "experiments.render",
    )}
    sims = SimKeys()
    misses = TraceMisses()
    plan = [
        ("sim.init", SystemSimulator, "__init__", sims.on_init),
        ("sim.run", SystemSimulator, "run", sims.on_run),
        ("core.memcon", memcon, "simulate_refresh_reduction", None),
        ("traces", generator, "generate_trace", misses.on_call),
        ("dram.fault", FaultMap, "rows_fail", _rows_arg),
        ("dram.fault", FaultMap, "rows_can_ever_fail", _rows_arg),
        ("dram.fault", FaultMap, "failing_cells_batch", _rows_arg),
        ("dram.fault", FaultMap, "failing_mask", _one_row),
        ("dram.scramble", VendorMapping, "to_silicon", None),
        ("dram.scramble", VendorMapping, "to_silicon_batch", None),
        ("testinfra.pattern", DataPattern, "row_bits", None),
        ("obs.sink", JsonlTraceSink, "emit", None),
        ("experiments.render", ExperimentResult, "to_text", None),
    ]
    for name, owner, attr, count in plan:
        probe = probes[name]
        patches.replace(owner, attr,
                        lambda fn, probe=probe, count=count:
                        probe.wrap(fn, count))
    return probes, sims, misses


# ----------------------------------------------------------------------
# Percentiles of recorded spans
# ----------------------------------------------------------------------
#: Percentiles the tail is chosen from, highest last.
TAIL_CANDIDATES = (50.0, 75.0, 85.0, 90.0, 95.0, 99.0, 99.9)


def tail_percentile(n: int, beyond: int = 10) -> float:
    """Highest candidate percentile that leaves ``beyond`` samples above it.

    With 72 samples that is p85 (10.8 samples above; p90 leaves 7.2).
    Below 20 samples no candidate qualifies and the median stands in.
    """
    best = TAIL_CANDIDATES[0]
    for q in TAIL_CANDIDATES:
        # Rounded so that 100 samples do leave 10 beyond p90 in floats.
        if round(n * (100.0 - q), 6) >= beyond * 100:
            best = q
    return best


def percentile(values: Sequence[float], q: float) -> float:
    """Linearly interpolated percentile (numpy's default); 0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)
