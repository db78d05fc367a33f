"""Tests for the per-layer instruments in ``layers.py``.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

import importlib.util
import os
import sys
import time

import pytest

from layers import (
    LAYERS, FrameSampler, Patches, Probe, install_probes, layer_of,
    percentile, tail_percentile,
)

SRC = os.path.join(os.sep, "checkout", "src")


@pytest.mark.parametrize("relative, layer", [
    ("repro/sim/system.py", "sim.system"),
    ("repro/mc/scheduler.py", "mc.scheduler"),
    ("repro/dram/scramble.py", "dram.scramble"),
    ("repro/testinfra/patterns.py", "testinfra.patterns"),
    ("repro/obs/trace.py", "obs.trace"),
    ("repro/analysis/coverage.py", "analysis"),
    ("repro/experiments/fig15.py", "experiments"),
    ("repro/parallel/__init__.py", "parallel"),
    ("repro/sim/metrics.py", "other"),
    ("repro/traces/spec.py", "other"),
    ("repro/__init__.py", "other"),
])
def test_layer_of_maps_repro_modules(relative, layer):
    filename = os.path.join(SRC, *relative.split("/"))
    assert layer_of(filename, SRC) == layer
    assert layer in LAYERS


@pytest.mark.parametrize("filename", [
    "/usr/lib/python3/site-packages/numpy/core/numeric.py",
    os.path.join(os.sep, "checkout", "benchmarks", "e2e", "layers.py"),
    os.path.join(SRC, "reproduce.py"),
    os.path.join(SRC, "repro", "sim", "_native.so"),
    "<frozen importlib._bootstrap>",
])
def test_layer_of_skips_files_outside_the_package(filename):
    assert layer_of(filename, SRC) is None


def test_frame_sampler_charges_the_innermost_repro_frame(tmp_path):
    package = tmp_path / "repro" / "sim"
    package.mkdir(parents=True)
    source = package / "core.py"
    source.write_text(
        "import time\n"
        "def busy(seconds):\n"
        "    end = time.perf_counter() + seconds\n"
        "    while time.perf_counter() < end:\n"
        "        pass\n"
    )
    spec = importlib.util.spec_from_file_location("e2e_fake_core", source)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    sampler = FrameSampler(str(tmp_path), interval_s=0.001)
    sampler.start()
    try:
        module.busy(0.3)
    finally:
        sampler.stop()
    assert sampler.samples > 10
    assert sampler.seconds["sim.core"] >= 0.8 * sum(sampler.seconds.values())


def test_frame_sampler_weighs_samples_by_time_not_count(tmp_path):
    # Sleeping releases the GIL, so the sampler takes a sample about every
    # millisecond; a pure-python loop lets it in only at thread switches.
    package = tmp_path / "repro"
    (package / "sim").mkdir(parents=True)
    (package / "mc").mkdir()
    (package / "sim" / "core.py").write_text(
        "import time\n"
        "def busy(seconds):\n"
        "    end = time.perf_counter() + seconds\n"
        "    while time.perf_counter() < end:\n"
        "        pass\n"
    )
    (package / "mc" / "bank.py").write_text(
        "import time\n"
        "def wait(seconds):\n"
        "    time.sleep(seconds)\n"
    )
    modules = {}
    for name in ("sim/core.py", "mc/bank.py"):
        spec = importlib.util.spec_from_file_location(
            "e2e_fake_" + name.replace("/", "_")[:-3], package / name
        )
        modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(modules[name])

    switch = sys.getswitchinterval()
    sys.setswitchinterval(0.01)
    sampler = FrameSampler(str(tmp_path), interval_s=0.001)
    sampler.start()
    try:
        modules["sim/core.py"].busy(0.3)
        modules["mc/bank.py"].wait(0.3)
    finally:
        sampler.stop()
        sys.setswitchinterval(switch)
    total = sum(sampler.seconds.values())
    assert 0.3 <= sampler.seconds["sim.core"] / total <= 0.7
    assert 0.3 <= sampler.seconds["mc.bank"] / total <= 0.7


@pytest.mark.parametrize("n, q", [
    (0, 50.0), (19, 50.0), (20, 50.0), (40, 75.0), (72, 85.0),
    (99, 85.0), (100, 90.0), (1000, 99.0), (10000, 99.9),
])
def test_tail_percentile_leaves_ten_samples_beyond(n, q):
    assert tail_percentile(n) == q


def test_percentile_interpolates_linearly():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 50) == 2.5
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    assert percentile([], 85) == 0.0


def test_probe_times_only_the_outermost_call():
    probe = Probe()

    def inner():
        return 1

    wrapped_inner = probe.wrap(inner, count=lambda a, k, r: 1)

    def outer():
        return wrapped_inner() + wrapped_inner()

    assert probe.wrap(outer, count=lambda a, k, r: 10)() == 2
    assert len(probe.spans) == 1
    assert probe.units == 10


def _bindings():
    """Every repro module global and class attribute, by identity."""
    seen = {}
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for key, value in vars(module).items():
            seen[(name, key)] = value
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    seen[(name, key, attr)] = member
    return seen


def test_patches_rebind_module_aliases_and_restore_them():
    from repro.core import memcon
    from repro.experiments import fig14

    original = memcon.simulate_refresh_reduction
    assert fig14.simulate_refresh_reduction is original
    patches = Patches()
    patches.replace(memcon, "simulate_refresh_reduction",
                    lambda fn: Probe().wrap(fn))
    try:
        assert memcon.simulate_refresh_reduction is not original
        assert fig14.simulate_refresh_reduction is (
            memcon.simulate_refresh_reduction
        )
    finally:
        patches.restore()
    assert memcon.simulate_refresh_reduction is original
    assert fig14.simulate_refresh_reduction is original


def test_install_probes_restores_every_binding():
    from repro.experiments import runner  # noqa: F401  (imports everything)

    before = _bindings()
    patches = Patches()
    install_probes(patches)
    changed = [k for k, v in _bindings().items() if before.get(k) is not v]
    assert changed  # the wrappers really were bound
    patches.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_patches_refuse_static_methods():
    class Owner:
        @staticmethod
        def f():
            return 1

    with pytest.raises(TypeError):
        Patches().replace(Owner, "f", lambda fn: fn)


def test_probes_count_repeated_simulations_and_fresh_traces():
    from repro.sim.system import simulate_workload
    from repro.traces import generator
    from repro.traces.spec import benchmark_names
    from repro.traces.workloads import WORKLOADS

    bench = benchmark_names()[0]
    profile = next(iter(WORKLOADS.values()))
    generator.clear_trace_cache()
    patches = Patches()
    probes, sims, misses = install_probes(patches)
    try:
        for seed in (1, 1, 2):
            simulate_workload([bench], window_ns=2_000.0, seed=seed)
        first = generator.generate_trace(profile, seed=3, duration_ms=2_000.0)
        again = generator.generate_trace(profile, seed=3, duration_ms=2_000.0)
    finally:
        patches.restore()
        generator.clear_trace_cache()
    assert again is first
    assert len(probes["sim.run"].spans) == 3
    assert sims.repeat_calls == 1
    assert sims.window_ns == 6_000.0
    assert misses.misses == 1
    assert probes["traces"].units == sum(
        len(times) for times in first.writes.values()
    )
    assert len(probes["traces"].spans) == 2


def test_frame_sampler_stop_joins_its_thread():
    sampler = FrameSampler("/nonexistent", interval_s=0.001)
    sampler.start()
    time.sleep(0.01)
    sampler.stop()
    assert not sampler._thread.is_alive()
