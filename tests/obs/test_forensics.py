"""Forensic ledger: gate semantics, kind registry, extraction census."""

import json

import pytest

from repro import obs
from repro.obs import (
    EVENT_KINDS, SCHEMA_VERSION, TraceSchemaError, validate_record,
)
from repro.obs.forensics import (
    FORENSIC_KINDS,
    LEDGER_KINDS,
    extract_ledger,
    forensics_active,
    iter_ledger,
    ledger_census,
    set_forensics,
)


class TestGate:
    def test_off_by_default(self):
        assert forensics_active() is False

    def test_set_returns_previous(self):
        assert set_forensics(True) is False
        try:
            assert forensics_active() is True
            assert set_forensics(False) is True
        finally:
            set_forensics(False)

    def test_obs_reexports(self):
        assert obs.forensics_active is forensics_active
        assert obs.set_forensics is set_forensics


class TestKinds:
    def test_forensic_kinds_registered(self):
        # Every forensic kind must be a declared trace kind, so the
        # ledger validates as an ordinary trace.
        assert FORENSIC_KINDS <= set(EVENT_KINDS)

    def test_ledger_kinds_superset(self):
        assert FORENSIC_KINDS < LEDGER_KINDS
        assert "test_started" in LEDGER_KINDS
        assert "ref_transition" in LEDGER_KINDS

    def test_minimal_records_validate(self):
        for kind in FORENSIC_KINDS:
            record = {"v": SCHEMA_VERSION, "kind": kind}
            record.update({name: 0 for name in EVENT_KINDS[kind]})
            validate_record(record)

    @pytest.mark.parametrize("kind", [
        "forensic_row", "dose_crossing", "trr_refresh", "mitigation_cell",
        "disturb_rollup", "pril_revoke",
    ])
    def test_retired_kinds_rejected(self, kind):
        # Read-disturbance kinds and PRIL's revocations are not part of
        # the schema, so a trace recorded with them fails validation
        # instead of passing silently.
        with pytest.raises(TraceSchemaError, match="unknown event kind"):
            validate_record({"v": SCHEMA_VERSION, "kind": kind, "row": 3})


def _ledger_stream():
    return [
        {"v": SCHEMA_VERSION, "kind": "run_started"},
        {"v": SCHEMA_VERSION, "kind": "pril_grant", "page": 3, "quantum": 1},
        {"v": SCHEMA_VERSION, "kind": "test_started", "t_ms": 1.0, "page": 3},
        {"v": SCHEMA_VERSION, "kind": "mc_request", "t_ns": 5.0},
        {"v": SCHEMA_VERSION, "kind": "predicate_eval", "interval_ms": 64.0,
         "rows": 16, "failed": 1, "rows_failed_sample": [9]},
        {"v": SCHEMA_VERSION, "kind": "test_failed", "t_ms": 2.0, "page": 9},
    ]


class TestLedgerExtraction:
    def test_iter_ledger_filters_non_causal_kinds(self):
        kinds = [r["kind"] for r in iter_ledger(_ledger_stream())]
        assert kinds == [
            "pril_grant", "test_started", "predicate_eval", "test_failed",
        ]

    def test_census(self):
        census = ledger_census(iter_ledger(_ledger_stream()))
        assert census["records"] == 4
        assert census["kinds"] == {
            "pril_grant": 1, "predicate_eval": 1, "test_failed": 1,
            "test_started": 1,
        }
        # distinct pages named by the ledger: 3 and 9
        assert census["rows"] == 2

    def test_extract_from_file(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        with open(trace, "w") as handle:
            for record in _ledger_stream():
                handle.write(json.dumps(record) + "\n")
        ledger = tmp_path / "t.forensics.jsonl"
        census = extract_ledger(str(trace), str(ledger))
        assert census["records"] == 4
        assert census["ledger_path"] == str(ledger)
        written = [json.loads(line) for line in open(ledger)]
        assert [r["kind"] for r in written] == [
            "pril_grant", "test_started", "predicate_eval", "test_failed",
        ]
        # The ledger is itself a readable trace.
        assert len(list(obs.read_trace(str(ledger)))) == 4

    def test_extract_tolerates_truncation(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        with open(trace, "w") as handle:
            for record in _ledger_stream():
                handle.write(json.dumps(record) + "\n")
            handle.write('{"v": 1, "kind": "predicate_e')  # killed mid-write
        census = extract_ledger(str(trace))
        assert census["records"] == 4


class TestGatedEmission:
    """Instrumented hot paths stay silent unless BOTH gates are open."""

    def test_predicate_eval_needs_both_gates(self, obs_env):
        import numpy as np

        from repro.dram.faults import FaultMap, FaultModelConfig

        _registry, sink = obs_env
        fault_map = FaultMap(
            16, 256, FaultModelConfig(vulnerable_cell_rate=5e-2), seed=3
        )
        rows = np.arange(16)
        bits = np.ones(256, dtype=np.uint8)
        fault_map.rows_fail(rows, bits, 328.0)
        assert sink.kinds().get("predicate_eval") is None

        previous = set_forensics(True)
        try:
            with_gate = fault_map.rows_fail(rows, bits, 328.0)
        finally:
            set_forensics(previous)
        assert sink.kinds()["predicate_eval"] == 1
        record = [r for r in sink.records if r["kind"] == "predicate_eval"][0]
        assert record["rows"] == 16
        assert record["failed"] == int(with_gate.sum())
        assert record["rows_failed_sample"] == [
            int(r) for r in rows[with_gate]
        ][:64]

    def test_forensics_alone_without_sink_is_silent(self):
        import numpy as np

        from repro.dram.faults import FaultMap, FaultModelConfig

        fault_map = FaultMap(
            8, 128, FaultModelConfig(vulnerable_cell_rate=5e-2), seed=3
        )
        previous = set_forensics(True)
        try:
            # No sink installed: must not raise, must not emit anywhere.
            fault_map.rows_fail(
                np.arange(8), np.ones(128, dtype=np.uint8), 328.0
            )
        finally:
            set_forensics(previous)
