"""Tests for the canonical test data patterns."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.testinfra.patterns import (
    CANONICAL_PATTERNS,
    CHECKER_0,
    COLSTRIPE_0,
    ROWSTRIPE_0,
    SOLID_0,
    SOLID_1,
    WALKING_1,
    pattern_battery,
    random_pattern,
)


class TestCanonicalPatterns:
    def test_all_produce_correct_length(self):
        for pattern in CANONICAL_PATTERNS:
            assert len(pattern.row_bits(0, 128)) == 128

    def test_all_binary_valued(self):
        for pattern in CANONICAL_PATTERNS:
            bits = pattern.row_bits(3, 256)
            assert set(np.unique(bits)) <= {0, 1}

    def test_solid_values(self):
        assert SOLID_0.row_bits(0, 64).sum() == 0
        assert SOLID_1.row_bits(0, 64).sum() == 64

    def test_column_stripe_alternates(self):
        bits = COLSTRIPE_0.row_bits(0, 8)
        assert list(bits) == [0, 1, 0, 1, 0, 1, 0, 1]

    def test_row_stripe_alternates_by_row(self):
        assert ROWSTRIPE_0.row_bits(0, 4).sum() == 0
        assert ROWSTRIPE_0.row_bits(1, 4).sum() == 4

    def test_checkerboard_flips_between_rows(self):
        row0 = CHECKER_0.row_bits(0, 16)
        row1 = CHECKER_0.row_bits(1, 16)
        assert np.array_equal(row0, 1 - row1)

    def test_walking_one_density(self):
        bits = WALKING_1.row_bits(0, 90)
        assert bits.sum() == 10  # one hot bit per stride of 9

    def test_names_unique(self):
        names = [p.name for p in CANONICAL_PATTERNS]
        assert len(names) == len(set(names))


class TestRandomPatterns:
    def test_deterministic_per_seed_and_row(self):
        a = random_pattern(5).row_bits(2, 512)
        b = random_pattern(5).row_bits(2, 512)
        assert np.array_equal(a, b)

    def test_rows_differ(self):
        pattern = random_pattern(5)
        assert not np.array_equal(
            pattern.row_bits(0, 512), pattern.row_bits(1, 512)
        )

    def test_roughly_half_density(self):
        bits = random_pattern(1).row_bits(0, 4096)
        assert 0.45 < bits.mean() < 0.55

    @given(
        seed=st.integers(0, 2**20),
        row=st.integers(0, 2**20 - 1),
        n=st.integers(1, 20_000),
    )
    @settings(max_examples=200, deadline=None)
    def test_rows_are_numpys_uint8_draws(self, seed, row, n):
        # The retired formula: one generator per row, numpy's bounded
        # uint8 draw. Rows now come from the generator's raw words.
        want = np.random.default_rng((seed << 20) ^ row).integers(
            0, 2, size=n, dtype=np.uint8
        )
        got = random_pattern(seed).row_bits(row, n)
        assert got.dtype == np.uint8
        np.testing.assert_array_equal(got, want)


class TestBattery:
    def test_default_battery_is_100_patterns(self):
        assert len(pattern_battery()) == 100

    def test_battery_starts_with_canonical(self):
        battery = pattern_battery(n_random=5)
        assert battery[: len(CANONICAL_PATTERNS)] == CANONICAL_PATTERNS

    def test_negative_random_count_raises(self):
        with pytest.raises(ValueError):
            pattern_battery(n_random=-1)
