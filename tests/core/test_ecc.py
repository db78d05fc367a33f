"""Tests for the SECDED correctability test behind ECC mitigation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ecc import EccConfig, failures_per_word, row_is_correctable


class TestCorrectability:
    def test_no_failures_correctable(self):
        assert row_is_correctable([])

    def test_single_bit_per_word_correctable(self):
        # Bits 3 and 70 land in words 0 and 1.
        assert row_is_correctable([3, 70])

    def test_two_bits_same_word_uncorrectable(self):
        assert not row_is_correctable([3, 5])

    def test_word_boundary(self):
        # Bits 63 and 64 are in different SECDED words.
        assert row_is_correctable([63, 64])

    def test_failures_per_word_histogram(self):
        counts = failures_per_word([0, 1, 64, 129])
        assert counts == {0: 2, 1: 1, 2: 1}

    def test_negative_bit_raises(self):
        with pytest.raises(ValueError):
            failures_per_word([-1])

    @given(st.lists(st.integers(0, 1023), max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_correctable_iff_max_one_per_word(self, bits):
        per_word = failures_per_word(bits)
        expected = not per_word or max(per_word.values()) <= 1
        assert row_is_correctable(bits) == expected


class TestConfig:
    def test_storage_overhead(self):
        assert EccConfig().storage_overhead == pytest.approx(0.125)

    def test_invalid_config_raises(self):
        with pytest.raises(ValueError):
            EccConfig(word_bits=0)
        with pytest.raises(ValueError):
            EccConfig(correctable_per_word=-1)
