"""Observability merge: registry fold, k-way trace merge, block splicing."""

import json

import pytest

from repro.obs import (
    SCHEMA_VERSION,
    MetricsRegistry,
    aggregate_trace,
    read_trace,
)
from repro.parallel.merge import (
    discover_metric_shards,
    discover_trace_shards,
    merge_metric_snapshots,
    merge_run_traces,
)


class TestRegistryMerge:
    def _registry(self, counter=0, gauge=0.0, hist=()):
        registry = MetricsRegistry(enabled=True)
        registry.counter("n").inc(counter)
        registry.gauge("g").set(gauge)
        h = registry.histogram("h", (1.0, 10.0))
        for value in hist:
            h.observe(value)
        return registry

    def test_counters_sum(self):
        a, b = self._registry(counter=3), self._registry(counter=4)
        a.merge(b)
        assert a.counter("n").value == 7

    def test_gauges_keep_high_water_mark(self):
        a, b = self._registry(gauge=5.0), self._registry(gauge=3.0)
        a.merge(b)
        assert a.gauge("g").value == 5.0
        b.merge(self._registry(gauge=9.0))
        assert b.gauge("g").value == 9.0

    def test_histograms_add_bucketwise(self):
        a = self._registry(hist=(0.5, 5.0))
        b = self._registry(hist=(5.0, 50.0))
        a.merge(b)
        snap = a.snapshot()["histograms"]["h"]
        assert snap["counts"] == [1, 2, 1]
        assert snap["total"] == 4

    def test_merge_accepts_snapshot_dicts(self):
        a = self._registry(counter=1)
        a.merge(self._registry(counter=2).snapshot())
        assert a.counter("n").value == 3

    def test_bounds_mismatch_raises(self):
        a = self._registry(hist=(0.5,))
        b = MetricsRegistry(enabled=True)
        b.histogram("h", (2.0, 20.0)).observe(1.0)
        with pytest.raises(ValueError, match="buckets|bounds"):
            a.merge(b)

    def test_non_mapping_rejected(self):
        with pytest.raises(TypeError):
            MetricsRegistry(enabled=True).merge([1, 2])

    def test_merge_metric_snapshots_folds_shard_files(self, tmp_path):
        base = self._registry(counter=1, gauge=2.0).snapshot()
        for i, count in enumerate((10, 100)):
            shard = tmp_path / f"m.worker-g1-{i}.json"
            shard.write_text(json.dumps(
                self._registry(counter=count, gauge=float(i)).snapshot()
            ))
        (tmp_path / "m.worker-g1-bad.json").write_text("{trunca")
        shards = discover_metric_shards(str(tmp_path / "m.json"))
        assert len(shards) == 3  # the corrupt one is found but skipped
        merged = merge_metric_snapshots(base, shards)
        assert merged["counters"]["n"] == 111
        assert merged["gauges"]["g"] == 2.0


def _rec(kind, **fields):
    return {"v": SCHEMA_VERSION, "kind": kind, **fields}


def _write(path, records):
    with open(path, "w") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")
    return str(path)


class TestReadTraceMerge:
    def test_merges_shards_in_time_order(self, tmp_path):
        a = _write(tmp_path / "a.jsonl", [
            _rec("test_started", t_ms=1.0, page=1),
            _rec("test_started", t_ms=5.0, page=2),
        ])
        b = _write(tmp_path / "b.jsonl", [
            _rec("test_started", t_ms=2.0, page=3),
            _rec("test_started", t_ms=9.0, page=4),
        ])
        pages = [r["page"] for r in read_trace(merge=[a, b])]
        assert pages == [1, 3, 2, 4]

    def test_untimed_records_ride_their_shard_clock(self, tmp_path):
        a = _write(tmp_path / "a.jsonl", [
            _rec("test_started", t_ms=1.0, page=1),
            _rec("pril_quantum", quantum=1, predicted=0, buffer=0),
            _rec("test_started", t_ms=8.0, page=2),
        ])
        b = _write(tmp_path / "b.jsonl", [
            _rec("test_started", t_ms=4.0, page=3),
        ])
        kinds = [(r["kind"], r.get("page")) for r in read_trace(merge=[a, b])]
        # The untimed record stays glued after its t=1 predecessor.
        assert kinds == [
            ("test_started", 1), ("pril_quantum", None),
            ("test_started", 3), ("test_started", 2),
        ]

    def test_tolerates_truncated_shard_tails(self, tmp_path):
        a = tmp_path / "a.jsonl"
        _write(a, [_rec("test_started", t_ms=1.0, page=1)])
        with open(a, "a") as handle:
            handle.write('{"v": 1, "kind": "test_st')  # killed mid-write
        b = _write(tmp_path / "b.jsonl", [
            _rec("test_started", t_ms=2.0, page=2),
        ])
        pages = [r["page"] for r in read_trace(merge=[str(a), b])]
        assert pages == [1, 2]

    def test_merged_rollups_match_the_unsharded_stream(self, tmp_path):
        records = [
            _rec("test_started", t_ms=float(i), page=i % 7) for i in range(60)
        ]
        shards = [
            _write(tmp_path / f"s{k}.jsonl", records[k::3]) for k in range(3)
        ]
        whole = _write(tmp_path / "whole.jsonl", records)
        assert aggregate_trace(read_trace(merge=shards), window_ms=16.0) == \
            aggregate_trace(read_trace(whole), window_ms=16.0)

    def test_path_and_merge_are_mutually_exclusive(self, tmp_path):
        with pytest.raises(ValueError):
            list(read_trace("x.jsonl", merge=["y.jsonl"]))
        with pytest.raises(ValueError):
            list(read_trace())


class TestMergeRunTraces:
    def _unit_block(self, experiment, seq, attempt, pages):
        records = [_rec("unit_started", experiment=experiment,
                        unit=f"u{seq}", seq=seq, attempt=attempt)]
        records += [_rec("test_started", t_ms=0.0, page=p) for p in pages]
        records.append(_rec("unit_finished", experiment=experiment,
                            unit=f"u{seq}", seq=seq, attempt=attempt,
                            wall_s=0.0))
        return records

    def test_blocks_splice_in_seq_order_after_anchor(self, tmp_path):
        parent = _write(tmp_path / "t.parent.jsonl", [
            _rec("run_started", experiments=["e"], seed=1, quick=True),
            _rec("experiment_started", experiment="e"),
            _rec("experiment_finished", experiment="e", wall_s=0.0),
            _rec("run_finished", wall_s=0.0),
        ])
        _write(tmp_path / "t.worker-g1-1.jsonl",
               self._unit_block("e", 1, 2, [10, 11]))
        _write(tmp_path / "t.worker-g1-2.jsonl",
               self._unit_block("e", 0, 1, [20]))
        out = str(tmp_path / "t.jsonl")
        shards = discover_trace_shards(out)
        assert len(shards) == 2
        count = merge_run_traces(parent, shards, out)
        merged = list(read_trace(out, validate=False))
        assert count == len(merged) == 7
        kinds = [r["kind"] for r in merged]
        assert "unit_started" not in kinds and "unit_finished" not in kinds
        pages = [r.get("page") for r in merged]
        # seq 0's block (page 20) splices before seq 1's (pages 10, 11).
        assert pages == [None, None, 20, 10, 11, None, None]

    def test_accepted_attempt_beats_impostor_blocks(self, tmp_path):
        parent = _write(tmp_path / "t.parent.jsonl", [
            _rec("experiment_started", experiment="e"),
        ])
        _write(tmp_path / "t.worker-g1-1.jsonl",
               self._unit_block("e", 0, 1, [111]))  # failed first attempt
        _write(tmp_path / "t.worker-g1-2.jsonl",
               self._unit_block("e", 0, 2, [222]))  # accepted retry
        out = str(tmp_path / "t.jsonl")
        merge_run_traces(
            parent, discover_trace_shards(out), out,
            accepted={("e", 0): ("worker-g1-2", 2)},
        )
        pages = [r.get("page") for r in read_trace(out, validate=False)]
        assert pages == [None, 222]

    def test_orphan_blocks_append_after_skeleton(self, tmp_path):
        # A killed run: the worker finished a unit whose experiment
        # anchor never reached the parent shard.
        parent = _write(tmp_path / "t.parent.jsonl", [
            _rec("run_started", experiments=["e"], seed=1, quick=True),
        ])
        _write(tmp_path / "t.worker-g1-1.jsonl",
               self._unit_block("orphan", 0, 1, [5]))
        out = str(tmp_path / "t.jsonl")
        merge_run_traces(parent, discover_trace_shards(out), out)
        merged = list(read_trace(out, validate=False))
        assert [r["kind"] for r in merged] == ["run_started", "test_started"]

    def test_partial_block_from_killed_worker_is_kept(self, tmp_path):
        parent = _write(tmp_path / "t.parent.jsonl", [
            _rec("experiment_started", experiment="e"),
        ])
        records = self._unit_block("e", 0, 1, [7, 8])[:-1]  # no finish
        _write(tmp_path / "t.worker-g1-1.jsonl", records)
        out = str(tmp_path / "t.jsonl")
        merge_run_traces(parent, discover_trace_shards(out), out)
        pages = [r.get("page") for r in read_trace(out, validate=False)]
        assert pages == [None, 7, 8]


class TestIterMergedRecords:
    """The streaming form: identical order to the written merge, and the
    ledger extractor can consume shards without a merged file."""

    def _shard_set(self, tmp_path):
        parent = _write(tmp_path / "t.parent.jsonl", [
            _rec("run_started", experiments=["e"], seed=1, quick=True),
            _rec("experiment_started", experiment="e"),
            _rec("experiment_finished", experiment="e", wall_s=0.0),
            _rec("run_finished", wall_s=0.0),
        ])
        block = [
            _rec("unit_started", experiment="e", unit="u0", seq=0,
                 attempt=1),
            _rec("pril_grant", page=4, quantum=0),
            _rec("test_started", t_ms=0.0, page=4),
            _rec("predicate_eval", interval_ms=64.0, rows=8, failed=1,
                 rows_failed_sample=[4]),
            _rec("unit_finished", experiment="e", unit="u0", seq=0,
                 attempt=1, wall_s=0.0),
        ]
        _write(tmp_path / "t.worker-g1-1.jsonl", block)
        return parent, str(tmp_path / "t.jsonl")

    def test_stream_matches_written_merge(self, tmp_path):
        from repro.parallel.merge import iter_merged_records

        parent, out = self._shard_set(tmp_path)
        shards = discover_trace_shards(out)
        streamed = list(iter_merged_records(parent, shards))
        merge_run_traces(parent, shards, out)
        assert streamed == list(read_trace(out, validate=False))

    def test_ledger_file_is_not_mistaken_for_a_shard(self, tmp_path):
        # The ledger lives next to the trace; the worker-shard glob must
        # never pick it up on a later re-merge.
        _parent, out = self._shard_set(tmp_path)
        (tmp_path / "t.forensics.jsonl").write_text("")
        shards = discover_trace_shards(out)
        assert all("forensics" not in shard for shard in shards)
