"""The why-CLI's causal chains over the MEMCON ledger: a PRIL-granted
page that later fails, and a row named only by a predicate evaluation's
failing-row sample."""

import json

import numpy as np
import pytest

from repro.dram.faults import FaultMap, FaultModelConfig
from repro.obs import why
from repro.obs.forensics import set_forensics


@pytest.fixture
def forensics_env(obs_env):
    previous = set_forensics(True)
    try:
        yield obs_env
    finally:
        set_forensics(previous)


def _write_trace(records, path):
    with open(path, "w") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")
    return str(path)


class TestWhyCliPrilChain:
    """Acceptance scenario (a): a PRIL-granted page that later fails."""

    @pytest.fixture
    def failing_run(self, forensics_env, trace_factory, tmp_path):
        from repro.core.memcon import MemconConfig, simulate_refresh_reduction

        _registry, sink = forensics_env
        # Many single-write pages, half of them failing: some page gets
        # PRIL-granted, tested, and fails its retention test.
        trace = trace_factory(
            {p: [100.0 + p] for p in range(24)},
            duration_ms=10_000.0, total_pages=24,
        )
        simulate_refresh_reduction(
            trace, MemconConfig(quantum_ms=1000.0, test_duration_ms=64.0),
            failing_page_fraction=0.5, seed=7,
        )
        path = _write_trace(sink.records, tmp_path / "ledger.jsonl")
        granted = {r["page"] for r in sink.records
                   if r["kind"] == "pril_grant"}
        failed = {r["page"] for r in sink.records
                  if r["kind"] == "test_failed"}
        target = sorted(granted & failed)
        assert target, "fixture must produce a granted-then-failed page"
        return path, target[0]

    def test_chain_shows_grant_then_failure(self, failing_run, capsys):
        path, page = failing_run
        assert why.main(["--row", str(page), "--trace", path]) == 0
        out = capsys.readouterr().out
        assert f"causal chain for row {page}" in out
        grant_pos = out.index("PRIL granted LO-REF")
        fail_pos = out.index("MEMCON test failed")
        assert grant_pos < fail_pos

    def test_unknown_row_exits_nonzero(self, failing_run, capsys):
        path, _page = failing_run
        assert why.main(["--row", "999999", "--trace", path]) == 1
        assert "no ledger records" in capsys.readouterr().err


class TestWhyCliSampledRow:
    """A fault-map row reaches the chain only through a predicate
    evaluation's ``rows_failed_sample``."""

    @pytest.fixture
    def predicate_ledger(self, forensics_env, tmp_path):
        _registry, sink = forensics_env
        fault_map = FaultMap(
            16, 256, FaultModelConfig(vulnerable_cell_rate=1e-2), seed=3
        )
        # Column stripes: every cell has two aggressor neighbours.
        stripes = (np.arange(256) % 2).astype(np.uint8)
        failing = fault_map.rows_fail(np.arange(16), stripes, 328.0)
        assert failing.any() and not failing.all()
        (record,) = sink.records
        assert record["kind"] == "predicate_eval"
        path = _write_trace(sink.records, tmp_path / "ledger.jsonl")
        return path, np.flatnonzero(failing), np.flatnonzero(~failing)

    def test_sampled_row_shows_predicate_eval(self, predicate_ledger, capsys):
        path, failing, _passing = predicate_ledger
        row = int(failing[0])
        assert why.main(["--row", str(row), "--trace", path]) == 0
        out = capsys.readouterr().out
        assert f"causal chain for row {row} (1 records)" in out
        assert "fault predicate over 16 rows" in out

    def test_row_outside_sample_exits_nonzero(self, predicate_ledger, capsys):
        path, _failing, passing = predicate_ledger
        row = int(passing[0])
        assert why.main(["--row", str(row), "--trace", path]) == 1
        assert "no ledger records" in capsys.readouterr().err


class TestReplayDegradation:
    """Where the CLI finds its ledger when no trace file is named."""

    def test_resolve_sources_requires_input(self):
        with pytest.raises(SystemExit):
            why._resolve_source(None, None)

    def test_resolve_sources_prefers_manifest_ledger(self, tmp_path):
        from repro.obs.manifest import MANIFEST_SCHEMA_VERSION

        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({
            "schema": MANIFEST_SCHEMA_VERSION,
            "experiments": ["fig14"],
            "forensics": {"ledger_path": "l.jsonl"},
        }))
        assert why._resolve_source(str(manifest), None) == "l.jsonl"
