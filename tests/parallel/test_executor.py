"""Supervision loop: inline mode, crashes, retries, timeouts, skip-done,
and the unit records and metrics that pool workers hand the parent."""

import os

import pytest

from repro.parallel.checkpoint import CheckpointJournal
from repro.parallel.executor import ParallelExecutor
from repro.parallel.units import WorkUnit, register_experiment, unit_fingerprint
from tests.parallel.fakes import RECORDS_PER_UNIT

register_experiment("fake", "tests.parallel.fakes")


def _fake_units(n=4, **extra_params):
    return [
        WorkUnit(
            "fake", f"u{i}", {"value": i * 10 + 1, **extra_params},
            seq=i, module="tests.parallel.fakes",
        )
        for i in range(n)
    ]


def _expected_payloads(units):
    return [
        {"value": u.params["value"], "squared": u.params["value"] ** 2}
        for u in units
    ]


def _shards(executor):
    return {row["shard"] for row in executor.topology()["workers"]}


def _unit_records(sink):
    """``(seq, pid)`` of every fake-unit record the parent's sink got."""
    return [
        (r["page"], r["pid"]) for r in sink.records
        if r["kind"] == "test_started"
    ]


class TestInline:
    def test_jobs_1_runs_in_parent(self):
        units = _fake_units()
        with ParallelExecutor(1) as ex:
            payloads, stats = ex.run_units(units)
        assert payloads == _expected_payloads(units)
        assert stats.executed == 4
        assert _shards(ex) == {"parent"}
        assert ex._pool is None  # never built one

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ParallelExecutor(0)
        with pytest.raises(ValueError):
            ParallelExecutor(1, unit_timeout_s=0)
        with pytest.raises(ValueError):
            ParallelExecutor(1, max_retries=-1)


class TestPooled:
    def test_payloads_arrive_in_seq_order(self):
        units = _fake_units(8)
        with ParallelExecutor(2, chunk_size=1) as ex:
            payloads, stats = ex.run_units(units)
        assert payloads == _expected_payloads(units)
        assert stats.executed == 8
        assert stats.degraded == 0
        topo = ex.topology()
        assert topo["jobs"] == 2
        assert sum(w["units"] for w in topo["workers"]) == 8

    def test_raising_unit_retries_then_degrades_serially(self):
        # The unit raises in any process but this one; after max_retries
        # worker attempts the parent runs it inline, where it succeeds.
        units = _fake_units(2, raise_away=True, home_pid=os.getpid())
        with ParallelExecutor(2, max_retries=1, chunk_size=1) as ex:
            payloads, stats = ex.run_units(units)
        assert payloads == _expected_payloads(units)
        assert stats.retried == 2   # one retry per unit
        assert stats.degraded == 2  # then the serial fallback
        assert _shards(ex) == {"parent"}

    def test_worker_crash_rebuilds_pool_and_degrades(self):
        units = _fake_units(2, crash_away=True, home_pid=os.getpid())
        with ParallelExecutor(2, max_retries=0, chunk_size=1) as ex:
            payloads, stats = ex.run_units(units)
        assert payloads == _expected_payloads(units)
        assert stats.degraded == 2
        assert stats.pool_rebuilds >= 1

    def test_unit_timeout_terminates_and_degrades(self):
        units = _fake_units(1, sleep_away=30.0, home_pid=os.getpid())
        with ParallelExecutor(
            2, max_retries=0, chunk_size=1, unit_timeout_s=0.5
        ) as ex:
            payloads, stats = ex.run_units(units)
        assert payloads == _expected_payloads(units)
        assert stats.timeouts == 1
        assert stats.degraded == 1

    @pytest.mark.parametrize("max_retries", [0, 1])
    @pytest.mark.parametrize("repeat", range(3))
    def test_broken_pool_counts_one_lost_worker(self, max_retries, repeat):
        # Only u0 crashes its worker; the broken pool also fails the
        # healthy units in flight beside it, which must not count as
        # further lost workers.
        units = _fake_units(4)
        crasher = units[0]
        units[0] = WorkUnit(
            crasher.experiment, crasher.unit_id,
            {**crasher.params, "crash_away": True, "home_pid": os.getpid()},
            seq=crasher.seq, module=crasher.module,
        )
        with ParallelExecutor(
            2, max_retries=max_retries, chunk_size=1
        ) as ex:
            payloads, stats = ex.run_units(units)
        assert payloads == _expected_payloads(units)
        assert stats.workers_lost == max_retries + 1
        assert stats.pool_rebuilds == max_retries + 1

    def test_worker_crash_emits_worker_lost(self):
        from repro import obs

        units = _fake_units(1, crash_away=True, home_pid=os.getpid())
        sink = obs.ListTraceSink()
        previous = obs.set_sink(sink)
        try:
            with ParallelExecutor(2, max_retries=0, chunk_size=1) as ex:
                payloads, stats = ex.run_units(units)
        finally:
            obs.set_sink(previous)
        assert payloads == _expected_payloads(units)  # degraded serially
        assert stats.workers_lost == 1
        (lost,) = [r for r in sink.records if r["kind"] == "worker_lost"]
        # The record names the failed chunk's first unit and its
        # fingerprint.
        assert lost["unit"] == "u0"
        assert lost["experiment"] == "fake"
        assert lost["fingerprint"] == unit_fingerprint(units[0], True, 1)

    def test_deterministic_failure_surfaces_in_parent(self):
        # home_pid=0 matches nothing: the unit fails everywhere, so the
        # degrade path re-raises the real exception in the parent.
        units = _fake_units(1, raise_away=True, home_pid=0)
        with ParallelExecutor(2, max_retries=0, chunk_size=1) as ex:
            with pytest.raises(RuntimeError, match="synthetic failure"):
                ex.run_units(units)


class TestSkipAndJournal:
    def test_done_entries_skip_matching_fingerprints(self):
        units = _fake_units()
        done = {
            units[0].key: {
                "fp": unit_fingerprint(units[0], True, 1),
                "payload": {"value": -1, "squared": 1},
            },
            # Stale fingerprint: must be re-executed, not trusted.
            units[1].key: {"fp": "stale", "payload": {"value": -2}},
        }
        with ParallelExecutor(1) as ex:
            payloads, stats = ex.run_units(units, done=done)
        assert stats.skipped == 1
        assert stats.executed == 3
        assert payloads[0] == {"value": -1, "squared": 1}  # journalled value
        assert payloads[1] == _expected_payloads(units)[1]

    def test_accepted_units_are_journalled_immediately(self, tmp_path):
        journal = CheckpointJournal(str(tmp_path / "j.jsonl"))
        units = _fake_units()
        with ParallelExecutor(1) as ex:
            ex.run_units(units, journal=journal)
        journal.close()
        entries = CheckpointJournal(str(tmp_path / "j.jsonl")).load()
        assert set(entries) == {u.key for u in units}
        for unit, payload in zip(units, _expected_payloads(units)):
            assert entries[unit.key]["payload"] == payload
            assert entries[unit.key]["fp"] == unit_fingerprint(unit, True, 1)

    def test_on_unit_progress_callback(self):
        units = _fake_units(2)
        seen = []
        done = {
            units[0].key: {
                "fp": unit_fingerprint(units[0], True, 1), "payload": {},
            }
        }
        with ParallelExecutor(1) as ex:
            ex.run_units(
                units, done=done,
                on_unit=lambda u, skipped: seen.append((u.unit_id, skipped)),
            )
        assert sorted(seen) == [("u0", True), ("u1", False)]


class TestWorkerObs:
    def test_pooled_run_hands_parent_records_and_metrics(self, obs_env):
        registry, sink = obs_env
        units = _fake_units(4)
        with ParallelExecutor(1) as ex:
            ex.run_units(units)
        serial_records = _unit_records(sink)
        serial_metrics = registry.snapshot()
        sink.records.clear()
        registry.reset()

        with ParallelExecutor(2, chunk_size=1) as ex:
            payloads, _ = ex.run_units(units)
        assert payloads == _expected_payloads(units)
        records = _unit_records(sink)
        # Every unit's records, in unit order, each from a worker.
        assert [seq for seq, _ in records] == [
            seq for seq, _ in serial_records
        ] == [u.seq for u in units for _ in range(RECORDS_PER_UNIT)]
        assert os.getpid() not in {pid for _, pid in records}
        assert registry.snapshot() == serial_metrics
        assert registry.counter("fake.units").value == 4

    def test_timed_out_pool_keeps_what_it_accepted(self, obs_env):
        # u0-u2 are accepted; u3 then overruns its budget, which
        # terminates the pool. It degrades to the parent, where it does
        # not sleep.
        registry, sink = obs_env
        units = _fake_units(3) + [
            WorkUnit(
                "fake", "u3",
                {"value": 31, "sleep_away": 30.0, "home_pid": os.getpid()},
                seq=3, module="tests.parallel.fakes",
            )
        ]
        with ParallelExecutor(
            2, chunk_size=1, max_retries=0, unit_timeout_s=2.0
        ) as ex:
            payloads, stats = ex.run_units(units)
        assert payloads == _expected_payloads(units)
        assert stats.timeouts == 1 and stats.degraded == 1
        records = _unit_records(sink)
        assert [seq for seq, _ in records] == [
            seq for seq in range(4) for _ in range(RECORDS_PER_UNIT)
        ]
        assert {pid for seq, pid in records if seq == 3} == {os.getpid()}
        assert registry.counter("fake.units").value == 4

    def test_failed_attempts_contribute_nothing(self, obs_env):
        # u0 raises in every worker after emitting its records; only its
        # serial rerun in the parent may reach the stream, once.
        registry, sink = obs_env
        units = _fake_units(2)
        units[0] = WorkUnit(
            "fake", "u0",
            {**units[0].params, "raise_away": True, "home_pid": os.getpid()},
            seq=0, module="tests.parallel.fakes",
        )
        with ParallelExecutor(2, chunk_size=1, max_retries=1) as ex:
            payloads, stats = ex.run_units(units)
        assert payloads == _expected_payloads(units)
        assert stats.retried == 1 and stats.degraded == 1
        records = _unit_records(sink)
        assert [seq for seq, _ in records] == [0] * RECORDS_PER_UNIT + [
            1
        ] * RECORDS_PER_UNIT
        assert {pid for seq, pid in records if seq == 0} == {os.getpid()}
        # Two raising worker attempts bumped the counter too; only the
        # accepted runs count.
        assert registry.counter("fake.units").value == 2


class TestWorkerTable:
    def test_rows_come_from_unit_results(self):
        units = _fake_units(4)
        with ParallelExecutor(2, chunk_size=1) as ex:
            payloads, stats = ex.run_units(units)
            rows = ex.topology()["workers"]
        assert payloads == _expected_payloads(units)
        assert sum(row["units"] for row in rows) == 4
        assert all(row["shard"].startswith("worker-g1-") for row in rows)
        assert all(row["rss_peak_bytes"] > 0 for row in rows)
        # One closed interval per unit, with its wall time.
        intervals = [iv for row in rows for iv in row["timeline"]]
        assert sorted(iv["unit"] for iv in intervals) == [
            "u0", "u1", "u2", "u3",
        ]
        for row in rows:
            assert len(row["timeline"]) == row["units"]
        for iv in intervals:
            assert iv["experiment"] == "fake"
            assert iv["t_start"] <= iv["t_end"]
            assert iv["wall_s"] >= 0
        assert stats.workers_lost == 0

    def test_inline_units_land_on_the_parent_row(self):
        units = _fake_units(2)
        with ParallelExecutor(1) as ex:
            ex.run_units(units)
            (row,) = ex.topology()["workers"]
        assert row["shard"] == "parent"
        assert [iv["unit"] for iv in row["timeline"]] == ["u0", "u1"]
