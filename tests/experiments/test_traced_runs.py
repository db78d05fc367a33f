"""Runner-level gate: traced runs equal untraced ones, serial equals sharded.

A traced MEMCON experiment runs the same accounting code as an untraced
one and only adds the verdict stream, which pool workers capture in
batches and hand to the parent with each unit. fig14 is narrowed to two
workloads and one quantum (the pool forks, so its workers see the
narrowed experiment too) and run three ways: untraced, traced with
forensics, and the same traced run on two workers.

Every other experiment gets the unit-level form of the same gate: one
cheap unit runs traced with forensics and untraced, and the payloads
must be equal. The simulator-bound experiments (fig15, fig16, table3),
whose cheapest units take seconds, are covered by one short
``simulate_workload`` window instead.
"""

import dataclasses
import json

import pytest

from repro import obs
from repro.experiments import fig14
from repro.experiments.runner import EXPERIMENTS, main
from repro.parallel.units import decompose, execute_unit
from repro.sim.system import simulate_workload

#: The two cheapest fig14 workloads to generate.
WORKLOADS = ("BlurMotion", "Netflix")


#: A cheap unit of every experiment that does not run the simulator over
#: a long window (unit ids at quick scale, seed 1).
CHEAP_UNITS = {
    "fig03": "pat004",
    "fig04": "bench-lbm",
    "fig06": "lo64-read_and_compare",
    "fig07": "Netflix",
    "fig08": "Netflix",
    "fig09": "Netflix",
    "fig11": "Netflix",
    "fig12": "Netflix",
    "fig14": "Netflix",
    "fig17": "Netflix",
    "fig18": "Netflix",
    "fig19": "cil1024",
}

SIMULATOR_BOUND = ("fig15", "fig16", "table3")


def _stream(path):
    """The trace as compact JSON lines, wall-clock fields removed."""
    return [
        json.dumps({k: v for k, v in record.items() if k != "wall_s"},
                   separators=(",", ":"))
        for record in obs.read_trace(str(path), validate=False)
    ]


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("traced")
    every_unit = fig14.units

    def narrowed(quick=True, seed=1):
        chosen = [u for u in every_unit(quick, seed) if u.unit_id in WORKLOADS]
        return [dataclasses.replace(u, seq=i) for i, u in enumerate(chosen)]

    def run(label, traced, *extra):
        out, manifest, trace = (
            root / label / name for name in ("t.md", "m.json", "t.jsonl")
        )
        if traced:
            extra += ("--trace", str(trace), "--forensics")
        assert main(["fig14", "--out", str(out), "--manifest", str(manifest),
                     *extra]) == 0
        return {"out": out, "manifest": obs.load_manifest(str(manifest)),
                "trace": trace}

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fig14, "units", narrowed)
        patch.setattr(fig14, "QUANTA_MS", (1024.0,))
        assert [u.unit_id for u in fig14.units()] == list(WORKLOADS)
        return {
            "untraced": run("untraced", False),
            "serial": run("serial", True),
            "jobs": run("jobs", True, "--jobs", "2"),
        }


class TestTracedRunsGate:
    def test_tables_byte_identical(self, runs):
        untraced = runs["untraced"]["out"].read_bytes()
        assert WORKLOADS[1].encode() in untraced
        assert b"ACBrotherHood" not in untraced  # the narrowing took
        assert runs["serial"]["out"].read_bytes() == untraced
        assert runs["jobs"]["out"].read_bytes() == untraced

    @pytest.mark.parametrize("label", ["serial", "jobs"])
    def test_trace_valid_and_rollups_match(self, runs, label):
        run = runs[label]
        records = list(obs.read_trace(str(run["trace"]), validate=True))
        kinds = {record["kind"] for record in records}
        assert {"pril_quantum", "pril_grant", "test_passed"} <= kinds
        assert run["manifest"]["timeseries"] == obs.aggregate_trace(
            obs.read_trace(str(run["trace"]))
        )

    def test_sharded_trace_equals_serial(self, runs):
        serial = _stream(runs["serial"]["trace"])
        assert len(serial) > 1000
        assert _stream(runs["jobs"]["trace"]) == serial
        ledger = "t.forensics.jsonl"
        assert (runs["jobs"]["trace"].parent / ledger).read_bytes() == (
            runs["serial"]["trace"].parent / ledger).read_bytes()


class TestEveryExperimentTraced:
    @pytest.mark.parametrize(
        "name", [n for n in EXPERIMENTS if n not in SIMULATOR_BOUND]
    )
    def test_traced_unit_payload_equals_untraced(self, name):
        (unit,) = [
            u for u in decompose(name) if u.unit_id == CHEAP_UNITS[name]
        ]
        previous_sink = obs.set_sink(obs.ListTraceSink())
        previous_forensics = obs.set_forensics(True)
        try:
            traced = execute_unit(unit)
        finally:
            obs.set_forensics(previous_forensics)
            obs.set_sink(previous_sink)
        assert execute_unit(unit) == traced

    def test_simulate_workload_traced_equals_untraced(self):
        names = ("mcf", "libquantum", "gcc", "tonto")
        kwargs = dict(
            refresh_reduction=0.6, concurrent_tests=256,
            window_ns=20_000.0, channels=2, seed=3,
        )
        sink = obs.ListTraceSink()
        previous_sink = obs.set_sink(sink)
        try:
            traced = simulate_workload(names, **kwargs)
        finally:
            obs.set_sink(previous_sink)
        assert sink.records
        assert simulate_workload(names, **kwargs) == traced
