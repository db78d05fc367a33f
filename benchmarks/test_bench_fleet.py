"""Fleet experiment at scale: 1000 hosts through the runner, bounded memory.

Runs ``python -m repro.experiments fleet --checkpoint FILE`` in process
with :data:`repro.experiments.fleet.TENANTS` swapped for one
``batch``-style tenant of 1000 SystemMgt hosts at 2048 ms, each screened
under a 64-row residency budget. Every host's fault screen must stay
within the budget (read back from the checkpoint journal), the budget
must actually evict rows, and the process RSS must stay bounded: the
runner keeps O(hosts) small payloads, never O(hosts) fault maps. The
headline numbers land in ``BENCH_fleet.json``.
"""

import json
import os
import time

from repro import obs
from repro.dram.faults import ROWS_EVICTED_COUNTER
from repro.experiments import fleet
from repro.experiments.runner import main
from repro.obs.bus import rss_bytes
from repro.parallel import CheckpointJournal

BENCH_FLEET_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir,
    "BENCH_fleet.json",
)

HOSTS = 1000
RESIDENT_BUDGET = 64
#: RSS growth ceiling for the whole run: host payloads are kept until
#: the table is merged, so the bound covers O(hosts) small dicts, not
#: the fault maps, whose row populations must be evicted under budget.
RSS_DELTA_LIMIT = 400 * 1024 * 1024

TENANT = {
    "tenant": "batch",
    "workload": "SystemMgt",
    "seed_base": 23,
    "duration_ms": 2048.0,
    "hosts": (HOSTS, HOSTS),
    "fault_screen": dict(
        fleet.BATCH_SCREEN, max_resident_rows=RESIDENT_BUDGET),
}


def test_thousand_host_fleet_bounded_rss(
    run_once, record_bench, monkeypatch, tmp_path, capsys
):
    monkeypatch.setattr(fleet, "TENANTS", (TENANT,))
    checkpoint = str(tmp_path / "fleet.checkpoint.jsonl")
    registry = obs.MetricsRegistry(enabled=True)
    previous = obs.set_registry(registry)
    rss_before = rss_bytes() or 0
    try:
        started = time.perf_counter()
        assert run_once(main, ["fleet", "--checkpoint", checkpoint, "-q"]) == 0
        wall_s = time.perf_counter() - started
    finally:
        obs.set_registry(previous)
    rss_delta = (rss_bytes() or 0) - rss_before
    capsys.readouterr()  # the 1000-row table

    payloads = [
        entry["payload"]
        for entry in CheckpointJournal(checkpoint).load().values()
    ]
    assert len(payloads) == HOSTS

    # Resident-rows budget enforced on every single host's screen.
    peaks = [payload["screen"]["resident_rows_peak"] for payload in payloads]
    assert max(peaks) <= RESIDENT_BUDGET
    rows_evicted = registry.counter(ROWS_EVICTED_COUNTER).value
    assert rows_evicted > 0

    assert rss_delta < RSS_DELTA_LIMIT, f"RSS grew {rss_delta / 2**20:.0f} MiB"

    reports = [payload["report"] for payload in payloads]
    record_bench(
        "fleet_runner_thousand_hosts",
        path=BENCH_FLEET_PATH,
        hosts=HOSTS,
        wall_s=wall_s,
        hosts_per_s=HOSTS / wall_s,
        resident_budget=RESIDENT_BUDGET,
        resident_rows_peak=max(peaks),
        rows_evicted=rows_evicted,
        rss_delta_bytes=rss_delta,
        coverage_mean=sum(r["lo_ref_time_fraction"] for r in reports) / HOSTS,
        reduction_mean=sum(r["refresh_reduction"] for r in reports) / HOSTS,
    )
    with open(os.path.abspath(BENCH_FLEET_PATH), encoding="utf-8") as handle:
        assert "fleet_runner_thousand_hosts" in json.load(handle)
