"""Tests for the program memory-content generators."""

import numpy as np
import pytest

from repro.traces.content import ContentProfile, ROW_GENERATORS


def _bit_density(image):
    """Mean fraction of set bits across an image."""
    bits = np.unpackbits(np.frombuffer(b"".join(image.values()), np.uint8))
    return float(bits.mean())


class TestRowGenerators:
    @pytest.mark.parametrize("name", list(ROW_GENERATORS))
    def test_correct_size(self, name):
        rng = np.random.default_rng(0)
        row = ROW_GENERATORS[name](rng, 8192)
        assert row.dtype == np.uint8
        assert len(row) == 8192

    def test_zero_rows_nearly_empty(self):
        rng = np.random.default_rng(1)
        row = ROW_GENERATORS["zero"](rng, 8192)
        assert np.unpackbits(row).mean() < 0.01

    def test_random_rows_half_density(self):
        rng = np.random.default_rng(2)
        row = ROW_GENERATORS["random"](rng, 8192)
        assert 0.47 < np.unpackbits(row).mean() < 0.53

    def test_text_rows_printable_ascii(self):
        rng = np.random.default_rng(3)
        row = ROW_GENERATORS["text"](rng, 4096)
        assert row.min() >= 32 and row.max() <= 126

    def test_int_rows_low_density(self):
        rng = np.random.default_rng(4)
        row = ROW_GENERATORS["intdata"](rng, 8192)
        assert np.unpackbits(row).mean() < 0.3

    def test_pointer_rows_share_high_bytes(self):
        rng = np.random.default_rng(5)
        row = ROW_GENERATORS["pointer"](rng, 8192)
        pointers = row.view(np.uint64)
        # High 16 bits identical across all pointers (same heap region).
        assert len(np.unique(pointers >> np.uint64(48))) == 1


class TestContentProfile:
    def test_generates_requested_rows(self):
        profile = ContentProfile("p", {"zero": 0.5, "random": 0.5})
        image = profile.generate_image(16, 512, seed=1)
        assert sorted(image) == list(range(16))
        assert all(len(data) == 512 for data in image.values())

    def test_deterministic_by_seed(self):
        profile = ContentProfile("p", {"zero": 0.5, "random": 0.5})
        assert profile.generate_image(8, 256, seed=3) == profile.generate_image(
            8, 256, seed=3
        )

    def test_mixture_controls_density(self):
        dense = ContentProfile("d", {"random": 1.0})
        sparse = ContentProfile("s", {"zero": 1.0})
        assert _bit_density(dense.generate_image(8, 1024, seed=1)) > 5 * (
            _bit_density(sparse.generate_image(8, 1024, seed=1)) + 0.01
        )

    def test_weights_are_normalised(self):
        # Identical mixtures up to scale produce identical images (the
        # generator seed depends on the profile name, so reuse it).
        a = ContentProfile("same", {"zero": 1.0, "random": 1.0})
        b = ContentProfile("same", {"zero": 50.0, "random": 50.0})
        assert a.generate_image(8, 256, seed=2) == b.generate_image(
            8, 256, seed=2
        )

    @pytest.mark.parametrize("mixture", [
        {},
        {"nosuch": 1.0},
        {"zero": -1.0},
        {"zero": 0.0},
    ])
    def test_invalid_mixture_raises(self, mixture):
        with pytest.raises(ValueError):
            ContentProfile("bad", mixture)

    def test_invalid_size_raises(self):
        profile = ContentProfile("p", {"zero": 1.0})
        with pytest.raises(ValueError):
            profile.generate_image(0, 512)


class TestNameSeed:
    def test_stable_across_processes(self):
        # Regression: seeding from hash(name) varied with PYTHONHASHSEED,
        # so "deterministic" images differed between interpreter runs.
        import subprocess
        import sys

        script = (
            "import hashlib\n"
            "from repro.traces.spec import BENCHMARKS\n"
            "img = BENCHMARKS['mcf'].content.generate_image(4, 256, seed=1)\n"
            "digest = hashlib.sha256(b''.join(img[i] for i in sorted(img)))\n"
            "print(digest.hexdigest())\n"
        )
        digests = set()
        for hash_seed in ("0", "1", "random"):
            env = {"PYTHONPATH": "src", "PYTHONHASHSEED": hash_seed}
            out = subprocess.run(
                [sys.executable, "-c", script], capture_output=True,
                text=True, env=env, cwd=".",
            )
            assert out.returncode == 0, out.stderr
            digests.add(out.stdout.strip())
        assert len(digests) == 1

    def test_known_value(self):
        import zlib

        from repro.traces.content import name_seed

        assert name_seed("mcf") == zlib.crc32(b"mcf")
        assert 0 <= name_seed("mcf") < 1 << 32
