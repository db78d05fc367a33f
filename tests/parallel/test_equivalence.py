"""The headline property: sharded execution is bit-identical to serial.

``run()`` is structurally ``merge_units([run_unit(u) for u in units()])``,
so these tests pin the whole pipeline — decomposition, process-pool
dispatch, JSON journal round-trip, seq-ordered merge — against the
serial renderings, byte for byte, for several worker counts. The event
stream gets the same treatment: the windowed rollups a sharded run
aggregates from the records its workers return must equal the serial
run's.
"""

import pytest

from repro.experiments.runner import main
from repro.obs import load_manifest


def _run(tmp_path, name, tag, *extra):
    out = tmp_path / f"{name}-{tag}.md"
    args = [name, "--out", str(out),
            "--checkpoint", str(tmp_path / f"{tag}.ckpt.jsonl")]
    args.extend(extra)
    assert main(args) == 0
    return out.read_text()


class TestShardedEqualsSerial:
    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_fig04_bit_identical(self, tmp_path, capsys, jobs):
        serial = _run(tmp_path, "fig04", "serial")
        sharded = _run(tmp_path, "fig04", f"j{jobs}", "--jobs", str(jobs))
        assert sharded == serial

    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_fig14_bit_identical(self, tmp_path, capsys, jobs):
        serial = _run(tmp_path, "fig14", "serial")
        sharded = _run(tmp_path, "fig14", f"j{jobs}", "--jobs", str(jobs))
        assert sharded == serial

    def test_multi_experiment_run_bit_identical(self, tmp_path, capsys):
        serial = _run(tmp_path, "fig06", "s2")
        serial += _run(tmp_path, "fig08", "s3")
        combined_out = tmp_path / "combined.md"
        assert main(["fig06", "fig08", "--jobs", "2",
                     "--out", str(combined_out),
                     "--checkpoint", str(tmp_path / "c.ckpt.jsonl")]) == 0
        assert combined_out.read_text() == serial

    def test_seed_flows_through_the_unit_path(self, tmp_path, capsys):
        serial = _run(tmp_path, "fig06", "seed9", "--seed", "9")
        sharded = _run(tmp_path, "fig06", "seed9-j2", "--seed", "9",
                       "--jobs", "2")
        assert sharded == serial


class TestMergedObservability:
    def test_fig04_trace_rollups_match_serial(self, tmp_path, capsys):
        serial_manifest = tmp_path / "serial.manifest.json"
        assert main(["fig04", "--trace", str(tmp_path / "serial.jsonl"),
                     "--manifest", str(serial_manifest)]) == 0
        sharded_manifest = tmp_path / "sharded.manifest.json"
        assert main(["fig04", "--jobs", "2",
                     "--trace", str(tmp_path / "sharded.jsonl"),
                     "--manifest", str(sharded_manifest),
                     "--checkpoint", str(tmp_path / "c.ckpt.jsonl")]) == 0
        serial = load_manifest(str(serial_manifest))
        sharded = load_manifest(str(sharded_manifest))
        assert sharded["timeseries"] == serial["timeseries"]
        assert sharded["workers"]["jobs"] == 2
        assert sharded["workers"]["stats"]["degraded"] == 0

    def test_sharded_run_writes_only_requested_outputs(self, tmp_path,
                                                       capsys):
        assert main(["fig06", "--jobs", "2",
                     "--trace", str(tmp_path / "t.jsonl"),
                     "--metrics", str(tmp_path / "m.json"),
                     "--checkpoint", str(tmp_path / "c.ckpt.jsonl")]) == 0
        # The manifest lands next to --metrics by default.
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "c.ckpt.jsonl", "m.json", "m.manifest.json", "t.jsonl",
        ]
