"""The fleet experiment: per-host units, fault screen, rollups, table."""

import hashlib
import json

import pytest

from repro.experiments import fleet
from repro.parallel.units import WorkUnit

#: SHA-256 of each quick host's payload as canonical JSON. They were
#: captured from the standalone host runner of the retired HTTP fleet
#: service, fed the params its registry sealed for the same tenant
#: profiles and host ids; the fold into one experiment keeps them.
QUICK_DIGESTS = {
    "web-000": "cba17b8b01892cb85c88f0e5de4548a41ceeefdfdd835e44e86124c93738ce69",
    "web-001": "c395c073a95e8c955bb0646a991c05667b142c6655b0d35b794e140d08e234a5",
    "web-002": "e6ce5978a553439379edc18f90aedc254a61feec9bf57cec256c6209c9e635e1",
    "web-003": "2f010b879065d7fcf8fd8891a0ee01967ccd448fcb5954aa25dc49debda664c5",
    "batch-000": "d0a61fca07b53572de49bcacd262b4bce3db970a798711c0693b39f5489ceba7",
    "batch-001": "61d34dc6a56c4d6b8a68d3112dce44f272ebcf5005844325a7ec53b64589df56",
    "batch-002": "a3e73a64a7c2ab6c0ca170e0b18f28c8ef603d1b8350ab06bc38269770686b23",
    "batch-003": "023e2920b8b25cc30b9e017ce54c3fdf430fbc39524c5d1db65f5fd597e5a02d",
}

#: A short, unscreened host; tests add a fault screen or a rollup.
HOST = {
    "host": "h0", "tenant": "t", "seed": 7,
    "duration_ms": 2048.0, "workload": "BlurMotion",
}

SCREEN = {"vulnerable_cell_rate": 5.0e-3, "bits_per_row": 256}


def _digest(payload):
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _run(**overrides):
    params = dict(HOST, **overrides)
    return fleet.run_unit(WorkUnit("fleet", params["host"], params))


@pytest.fixture(scope="module")
def quick_payloads():
    return {
        unit.unit_id: fleet.run_unit(unit) for unit in fleet.units()
    }


class TestUnits:
    def test_quick_fleet_is_four_hosts_per_tenant(self):
        assert [u.unit_id for u in fleet.units()] == list(QUICK_DIGESTS)
        assert len(fleet.units(quick=False)) == 64

    def test_host_seed_derives_from_tenant_and_name(self):
        params = {u.unit_id: u.params for u in fleet.units()}
        assert params["web-000"]["seed"] == 2160336696
        assert params["batch-000"]["seed"] == 947141842
        # Host identity, not the run seed, fixes the chip.
        assert fleet.units(seed=9) == fleet.units(seed=1)

    def test_workload_host_inherits_tenant(self):
        params = {u.unit_id: u.params for u in fleet.units()}
        assert params["web-001"] == {
            "host": "web-001", "tenant": "web", "seed": 4156764078,
            "duration_ms": 8192.0, "workload": "Netflix", "rollup": True,
        }

    def test_tenant_fault_screen_copied(self):
        params = {u.unit_id: u.params for u in fleet.units()}
        assert params["batch-001"]["fault_screen"] == fleet.BATCH_SCREEN
        assert "rollup" not in params["batch-001"]


class TestPinnedPayloads:
    def test_quick_hosts_match_pinned_digests(self, quick_payloads):
        assert {
            host: _digest(payload)
            for host, payload in quick_payloads.items()
        } == QUICK_DIGESTS

    def test_headline_reductions(self, quick_payloads):
        web = quick_payloads["web-000"]["report"]["refresh_reduction"]
        batch = quick_payloads["batch-000"]["report"]["refresh_reduction"]
        assert round(100 * web, 1) == 61.9
        assert round(100 * batch, 1) == 50.8


class TestDeterminism:
    def test_host_repeats_bitwise(self):
        assert _run(rollup=True) == _run(rollup=True)


class TestFaultScreen:
    def test_screen_sets_failing_fraction(self):
        payload = _run(fault_screen=dict(SCREEN, chunk_rows=16))
        assert payload["failing_page_fraction"] == (
            payload["screen"]["failing_pages"]
            / payload["report"]["total_pages"])

    def test_budget_bounds_resident_peak(self):
        payload = _run(
            fault_screen=dict(SCREEN, chunk_rows=8, max_resident_rows=16))
        assert payload["screen"]["resident_rows_peak"] <= 16
        assert payload["failing_page_fraction"] == (
            payload["screen"]["failing_pages"]
            / payload["report"]["total_pages"])

    def test_screen_is_deterministic(self):
        unbudgeted = _run(fault_screen=dict(SCREEN))
        budgeted = _run(
            fault_screen=dict(SCREEN, chunk_rows=8, max_resident_rows=8))
        # Eviction and regeneration never change the screen's verdicts.
        assert (budgeted["screen"]["failing_pages"]
                == unbudgeted["screen"]["failing_pages"] > 0)
        assert budgeted["report"] == unbudgeted["report"]


class TestRollup:
    def test_rollup_attaches_windows(self):
        rollup = _run(rollup=True)["rollup"]
        assert rollup["events_total"] > 0
        assert rollup["windows"]
        assert set(rollup["pril"]) == {
            "quanta", "started", "resolved", "hit_rate"}
        assert any("lo_fraction" in w for w in rollup["windows"])

    def test_rollup_does_not_change_report(self):
        assert _run()["report"] == _run(rollup=True)["report"]
        assert "rollup" not in _run()


class TestPercentile:
    def test_p95_of_eleven_is_the_maximum(self):
        assert fleet._percentile(list(range(11)), 0.95) == 10

    def test_median_of_three(self):
        assert fleet._percentile([3.0, 1.0, 2.0], 0.5) == 2.0


class TestTable:
    def test_hosts_then_tenant_summaries(self, quick_payloads):
        payloads = [quick_payloads[host] for host in QUICK_DIGESTS]
        result = fleet.merge_units(payloads)
        hosts = [row["host"] for row in result.rows]
        assert hosts == list(QUICK_DIGESTS) + ["4 hosts", "4 hosts"]
        web = result.rows[-2]
        assert web["tenant"] == "web"
        assert web["tests"] == sum(
            quick_payloads[h]["report"]["tests_total"]
            for h in QUICK_DIGESTS if h.startswith("web"))
        assert result.rows[-1]["failed"] > 0  # the screen's failing pages
        assert "8 hosts" in result.notes
