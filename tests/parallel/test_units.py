"""Work-unit decomposition: validity, determinism, JSON-safety."""

import json

import pytest

from repro.experiments.runner import EXPERIMENTS, run_experiments
from repro.parallel.units import (
    WorkUnit,
    decompose,
    execute_unit,
    merge_payloads,
    register_experiment,
    unit_fingerprint,
)

#: Cheap experiments whose full unit path is worth executing in tests.
FAST_EXPERIMENTS = ("fig06", "fig08", "fig19")


class TestDecomposition:
    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_every_experiment_decomposes_validly(self, name):
        units = decompose(name, quick=True, seed=1)
        assert units, f"{name} produced no units"
        assert [u.seq for u in units] == list(range(len(units)))
        assert len({u.key for u in units}) == len(units)
        for unit in units:
            assert unit.experiment == name
            assert unit.module == f"repro.experiments.{name}"
            # Params must survive the journal's JSON round trip exactly.
            assert json.loads(json.dumps(unit.params)) == unit.params

    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_decomposition_is_deterministic(self, name):
        assert decompose(name, quick=True, seed=3) == decompose(
            name, quick=True, seed=3
        )

    def test_multi_unit_experiments_really_shard(self):
        # The headline decompositions: fig04 row-range scans + benchmarks,
        # fig14 one unit per workload trace.
        assert len(decompose("fig04", quick=True, seed=1)) > 20
        assert len(decompose("fig14", quick=True, seed=1)) == 12

    def test_fig04_scan_units_carry_rng_coordinates(self):
        scans = [
            u for u in decompose("fig04", quick=True, seed=1)
            if "rows" in u.params
        ]
        assert scans
        for unit in scans:
            rng = unit.params["rng"]
            assert rng["rows"] == unit.params["rows"]
            int(rng["seed_base"], 16)  # seed coordinates, not a row count

    @pytest.mark.parametrize("name", FAST_EXPERIMENTS)
    def test_unit_path_payloads_are_json_safe(self, name):
        units = decompose(name, quick=True, seed=1)
        payloads = [execute_unit(u, quick=True, seed=1) for u in units]
        round_tripped = json.loads(json.dumps(payloads))
        assert round_tripped == payloads
        merged = merge_payloads(name, round_tripped, quick=True, seed=1)
        serial = run_experiments([name], quick=True, seed=1)[0]
        assert merged.to_text() == serial.to_text()


class TestFingerprint:
    def test_sensitive_to_inputs(self):
        unit = WorkUnit("fig06", "u0", {"lo_ms": 64.0})
        base = unit_fingerprint(unit, True, 1)
        assert unit_fingerprint(unit, True, 2) != base
        assert unit_fingerprint(unit, False, 1) != base
        other = WorkUnit("fig06", "u0", {"lo_ms": 128.0})
        assert unit_fingerprint(other, True, 1) != base

    def test_stable_across_param_ordering(self):
        a = WorkUnit("x", "u", {"a": 1, "b": 2})
        b = WorkUnit("x", "u", {"b": 2, "a": 1})
        assert unit_fingerprint(a, True, 1) == unit_fingerprint(b, True, 1)


class TestValidationAndFallback:
    def test_duplicate_unit_ids_rejected(self, monkeypatch):
        import tests.parallel.fakes as fakes

        register_experiment("fake", "tests.parallel.fakes")
        monkeypatch.setattr(
            fakes, "units",
            lambda quick=True, seed=1: [
                WorkUnit("fake", "dup", {}, seq=0),
                WorkUnit("fake", "dup", {}, seq=1),
            ],
        )
        with pytest.raises(ValueError, match="duplicate"):
            decompose("fake")

    def test_non_contiguous_seq_rejected(self, monkeypatch):
        import tests.parallel.fakes as fakes

        register_experiment("fake", "tests.parallel.fakes")
        monkeypatch.setattr(
            fakes, "units",
            lambda quick=True, seed=1: [
                WorkUnit("fake", "a", {}, seq=0),
                WorkUnit("fake", "b", {}, seq=2),
            ],
        )
        with pytest.raises(ValueError, match="seq"):
            decompose("fake")

    def test_hookless_module_rejected(self):
        register_experiment("opaque", "tests.parallel.fakes_opaque")
        with pytest.raises(
            ValueError, match="lacks units, run_unit, merge_units"
        ):
            decompose("opaque", quick=True, seed=5)

    def test_registered_module_is_stamped_on_units(self):
        register_experiment("fake", "tests.parallel.fakes")
        units = decompose("fake", quick=True, seed=1)
        assert all(u.module == "tests.parallel.fakes" for u in units)
