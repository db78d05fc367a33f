"""Tests for table splitting, trace digests, the correctness count and
the bounds derived from a measured spread.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

import json

import pytest

import calibrate
import run
from tables import sha256, split_tables, strip_wall_s, table_id, trace_digest

TABLE_A = "== fig03: Cells failing ==\npaper: x\npattern  cells\n-----\nsolid0   0"
TABLE_B = "== fig04: Program content ==\npaper: y\nnote: z"


def _out_file(*tables):
    return "".join(f"```\n{t}\n```\n\n" for t in tables)


def test_split_tables_returns_each_fenced_table_in_order():
    tables = split_tables(_out_file(TABLE_A, TABLE_B))
    assert tables == [TABLE_A, TABLE_B]
    assert [table_id(t) for t in tables] == ["fig03", "fig04"]
    assert split_tables("") == []


@pytest.mark.parametrize("text", [
    _out_file(TABLE_A)[:-1],                     # truncated
    _out_file(TABLE_A) + "stray line\n",         # trailing text
    "preamble\n" + _out_file(TABLE_A),           # leading text
])
def test_split_tables_rejects_anything_but_fenced_tables(text):
    with pytest.raises(ValueError):
        split_tables(text)


def test_table_id_needs_a_header():
    with pytest.raises(ValueError):
        table_id("no header here")


def _jsonl(*records):
    return "".join(
        json.dumps(r, separators=(",", ":")) + "\n" for r in records
    ).encode()


def test_strip_wall_s_drops_only_wall_s_fields():
    stream = _jsonl(
        {"v": 1, "kind": "run_started", "experiments": ["fig14"], "seed": 1},
        {"v": 1, "kind": "experiment_finished", "experiment": "fig14",
         "wall_s": 1.25e-05},
        {"v": 1, "kind": "run_finished", "wall_s": 3.5},
    )
    expected = _jsonl(
        {"v": 1, "kind": "run_started", "experiments": ["fig14"], "seed": 1},
        {"v": 1, "kind": "experiment_finished", "experiment": "fig14"},
        {"v": 1, "kind": "run_finished"},
    )
    assert strip_wall_s(stream) == expected


def test_trace_digest_ignores_timings_but_not_content():
    def stream(wall, page):
        return _jsonl(
            {"v": 1, "kind": "test_started", "t_ms": 2048.0, "page": page},
            {"v": 1, "kind": "run_finished", "wall_s": wall},
        )

    assert sha256(strip_wall_s(stream(1.0, 17))) == sha256(
        strip_wall_s(stream(2.7182818, 17))
    )
    assert sha256(strip_wall_s(stream(1.0, 17))) != sha256(
        strip_wall_s(stream(1.0, 18))
    )


def test_trace_digest_streams_the_same_digest_as_the_whole_file(tmp_path):
    stream = _jsonl(
        {"v": 1, "kind": "test_started", "t_ms": 2048.0, "page": 3},
        {"v": 1, "kind": "experiment_finished", "wall_s": 0.5},
        {"v": 1, "kind": "run_finished", "wall_s": 3.5},
    )
    path = tmp_path / "trace.jsonl"
    path.write_bytes(stream)
    assert trace_digest(path) == (sha256(strip_wall_s(stream)), len(stream))


def _rep(digests, error=None):
    return run.Rep(probed=False, digests=list(digests), error=error)


def test_count_failures_against_pinned_digests():
    reps = [_rep("ab"), _rep("ax")]
    assert run.count_failures(reps, ops=2, pinned=list("ab")) == (4, 1)
    assert run.count_failures(reps, ops=2, pinned=list("ay")) == (4, 2)


def test_count_failures_without_pins_compares_to_the_first_good_rep():
    reps = [_rep("", error="child exited 1"), _rep("ab"), _rep("ab"),
            _rep("a")]
    assert run.count_failures(reps, ops=2, pinned=None) == (8, 3)


def test_benchmark_json_matches_the_metrics_run_py_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [
        w.why for w in run.WORKLOADS.values()
    ]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == run.PER_LAYER
    assert spec["paths"] == ["benchmarks/e2e"]


def _spreads(**by_metric):
    return {"workloads": {
        "a": {m: {"spread": s[0]} for m, s in by_metric.items()},
        "b": {m: {"spread": s[1]} for m, s in by_metric.items()},
    }}


def test_bounds_follow_the_widest_spread_with_a_five_percent_floor():
    runs = [
        _spreads(norm_cpu_s=(0.031, 0.012), setup_s=(0.02, 0.04),
                 peak_rss_mib=(0.004, 0.01)),
        _spreads(norm_cpu_s=(0.02, 0.044), setup_s=(0.03, 0.02),
                 peak_rss_mib=(0.01, 0.015)),
    ]
    assert calibrate.derive_bounds(runs) == {
        "norm_cpu_s": 0.14,    # 3 x 4.4%, rounded up
        "peak_rss_mib": 0.05,  # 3 x 1.5% is below the floor
        "setup_s": 0.25,       # the widest bound a metric may have
    }


def test_bounds_stop_at_the_ceiling():
    runs = [_spreads(norm_cpu_s=(0.2, 0.1), setup_s=(0.3, 0.1),
                     peak_rss_mib=(0.01, 0.01))]
    assert calibrate.derive_bounds(runs) == {
        "norm_cpu_s": 0.25, "peak_rss_mib": 0.05, "setup_s": 0.25,
    }
