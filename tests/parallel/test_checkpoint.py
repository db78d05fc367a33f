"""Checkpoint journal semantics and end-to-end kill-and-resume."""

import json

import pytest

from repro.experiments.runner import main
from repro.obs import load_manifest
from repro.parallel.checkpoint import JOURNAL_VERSION, CheckpointJournal


class TestJournal:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with CheckpointJournal(path) as journal:
            journal.append("fig06:u0", "fp0", {"x": 1.5}, wall_s=0.1, worker=9)
            journal.append("fig06:u1", "fp1", [1, 2, 3])
        entries = CheckpointJournal(path).load()
        assert entries["fig06:u0"]["payload"] == {"x": 1.5}
        assert entries["fig06:u0"]["fp"] == "fp0"
        assert entries["fig06:u0"]["worker"] == 9
        assert entries["fig06:u1"]["payload"] == [1, 2, 3]

    def test_missing_file_loads_empty(self, tmp_path):
        assert CheckpointJournal(str(tmp_path / "nope.jsonl")).load() == {}

    def test_truncated_tail_dropped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with CheckpointJournal(str(path)) as journal:
            journal.append("a", "fp", 1)
            journal.append("b", "fp", 2)
        content = path.read_text()
        path.write_text(content[: len(content) - 5])  # kill mid-line
        entries = CheckpointJournal(str(path)).load()
        assert set(entries) == {"a"}

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        good = json.dumps({"v": JOURNAL_VERSION, "key": "a", "fp": "f",
                           "payload": 1})
        path.write_text(f"not json\n{good}\n")
        with pytest.raises(ValueError, match="corrupt"):
            CheckpointJournal(str(path)).load()

    def test_unknown_version_skipped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        lines = [
            json.dumps({"v": 99, "key": "future", "fp": "f", "payload": 0}),
            json.dumps({"v": JOURNAL_VERSION, "key": "a", "fp": "f",
                        "payload": 1}),
        ]
        path.write_text("\n".join(lines) + "\n")
        assert set(CheckpointJournal(str(path)).load()) == {"a"}

    def test_last_write_wins(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with CheckpointJournal(path) as journal:
            journal.append("a", "fp", "old")
            journal.append("a", "fp", "new")
        assert CheckpointJournal(path).load()["a"]["payload"] == "new"

    def test_parent_directories_created(self, tmp_path):
        path = str(tmp_path / "deep" / "nest" / "j.jsonl")
        with CheckpointJournal(path) as journal:
            journal.append("a", "fp", 1)
        assert CheckpointJournal(path).load()["a"]["payload"] == 1


class TestKillAndResume:
    def _workers_stats(self, manifest_path):
        return load_manifest(str(manifest_path))["workers"]["stats"]

    def test_killed_run_resumes_without_reexecuting(self, tmp_path, capsys):
        out = tmp_path / "r.md"
        manifest = tmp_path / "run.json"
        checkpoint = tmp_path / "r.checkpoint.jsonl"
        assert main(["fig06", "--jobs", "2", "--out", str(out),
                     "--manifest", str(manifest)]) == 0
        reference = out.read_text()
        journal_lines = checkpoint.read_text().splitlines()
        assert len(journal_lines) == 4  # fig06 decomposes into 4 units
        assert self._workers_stats(manifest)["executed"] == 4

        # Simulate a kill after two units: truncate the journal, resume.
        checkpoint.write_text("\n".join(journal_lines[:2]) + "\n")
        assert main(["fig06", "--jobs", "2", "--out", str(out),
                     "--manifest", str(manifest), "--resume"]) == 0
        stats = self._workers_stats(manifest)
        assert stats["skipped"] == 2
        assert stats["executed"] == 2  # only the missing units ran
        assert out.read_text() == reference

        # Journal keys stay unique per unit: no duplicate entries appended.
        keys = [json.loads(line)["key"]
                for line in checkpoint.read_text().splitlines()]
        assert len(keys) == len(set(keys)) == 4

        # A second resume finds everything journalled: zero re-executed.
        assert main(["fig06", "--jobs", "2", "--out", str(out),
                     "--manifest", str(manifest), "--resume"]) == 0
        stats = self._workers_stats(manifest)
        assert stats["executed"] == 0
        assert stats["skipped"] == 4
        assert out.read_text() == reference

    def test_resume_ignores_other_seed_journal(self, tmp_path, capsys):
        out = tmp_path / "r.md"
        manifest = tmp_path / "run.json"
        assert main(["fig06", "--jobs", "2", "--out", str(out),
                     "--manifest", str(manifest)]) == 0
        # Same journal, different seed: fingerprints mismatch everywhere.
        assert main(["fig06", "--jobs", "2", "--out", str(out),
                     "--manifest", str(manifest), "--resume",
                     "--seed", "2"]) == 0
        stats = self._workers_stats(manifest)
        assert stats["skipped"] == 0
        assert stats["executed"] == 4

    def test_explicit_checkpoint_path(self, tmp_path, capsys):
        checkpoint = tmp_path / "elsewhere" / "ckpt.jsonl"
        assert main(["fig06", "--jobs", "2",
                     "--checkpoint", str(checkpoint)]) == 0
        assert checkpoint.exists()
        assert len(checkpoint.read_text().splitlines()) == 4

    def test_serial_resume_shares_the_journal(self, tmp_path, capsys):
        # A journal written at --jobs 2 resumes cleanly at --jobs 1.
        out = tmp_path / "r.md"
        manifest = tmp_path / "run.json"
        assert main(["fig06", "--jobs", "2", "--out", str(out),
                     "--manifest", str(manifest)]) == 0
        reference = out.read_text()
        assert main(["fig06", "--jobs", "1", "--out", str(out),
                     "--manifest", str(manifest), "--resume"]) == 0
        stats = self._workers_stats(manifest)
        assert stats["executed"] == 0
        assert stats["skipped"] == 4
        assert out.read_text() == reference
