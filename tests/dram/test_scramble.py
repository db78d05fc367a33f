"""Tests for vendor address scrambling and column remapping.

The layout cases run on the retired scramble-then-place composition in
``tests/oracles/scramble.py``, which the ``to_silicon`` gather must equal.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dram.scramble import (
    AddressScrambler,
    ColumnRemapper,
    VendorMapping,
    make_vendor_mapping,
)
from tests.oracles import scramble as oracle


class TestAddressScrambler:
    def test_is_bijective(self):
        scrambler = AddressScrambler(columns=256, seed=3)
        mapped = {oracle.to_physical(scrambler, c) for c in range(256)}
        assert mapped == set(range(256))

    def test_inverse_roundtrip(self):
        scrambler = AddressScrambler(columns=128, seed=5)
        for column in range(128):
            assert oracle.to_system(
                scrambler, oracle.to_physical(scrambler, column)
            ) == column

    def test_different_seeds_differ(self):
        a = AddressScrambler(columns=512, seed=1)
        b = AddressScrambler(columns=512, seed=2)
        assert any(
            oracle.to_physical(a, c) != oracle.to_physical(b, c)
            for c in range(512)
        )

    def test_same_seed_deterministic(self):
        a = AddressScrambler(columns=512, seed=9)
        b = AddressScrambler(columns=512, seed=9)
        assert all(
            oracle.to_physical(a, c) == oracle.to_physical(b, c)
            for c in range(512)
        )

    def test_row_scramble_roundtrip(self):
        scrambler = AddressScrambler(columns=64, seed=4)
        bits = np.random.default_rng(0).integers(0, 2, 64).astype(np.uint8)
        assert np.array_equal(
            oracle.unscramble_row(
                scrambler, oracle.scramble_rows(scrambler, bits)
            ),
            bits,
        )

    def test_scramble_preserves_multiset(self):
        scrambler = AddressScrambler(columns=64, seed=4)
        bits = np.arange(64, dtype=np.int64)
        scrambled = oracle.scramble_rows(scrambler, bits)
        assert sorted(scrambled) == sorted(bits)

    def test_wrong_length_raises(self):
        scrambler = AddressScrambler(columns=64, seed=4)
        with pytest.raises(ValueError, match="length"):
            oracle.scramble_rows(scrambler, np.zeros(65, dtype=np.uint8))

    @given(st.integers(min_value=0, max_value=2 ** 31), st.integers(2, 200))
    @settings(max_examples=25, deadline=None)
    def test_bijection_property(self, seed, columns):
        scrambler = AddressScrambler(columns=columns, seed=seed)
        mapped = {oracle.to_physical(scrambler, c) for c in range(columns)}
        assert mapped == set(range(columns))


class TestColumnRemapper:
    def test_no_faults_is_identity(self):
        remapper = ColumnRemapper(array_columns=32, spare_columns=4)
        assert all(
            oracle.physical_location(remapper, c) == c for c in range(32)
        )

    def test_faulty_column_moves_to_spare(self):
        remapper = ColumnRemapper(
            array_columns=32, spare_columns=4, faulty_columns=(5, 17)
        )
        assert oracle.physical_location(remapper, 5) == 32
        assert oracle.physical_location(remapper, 17) == 33
        assert oracle.physical_location(remapper, 6) == 6

    def test_place_extract_roundtrip(self):
        remapper = ColumnRemapper(
            array_columns=16, spare_columns=3, faulty_columns=(1, 8)
        )
        bits = np.random.default_rng(1).integers(0, 2, 16).astype(np.uint8)
        assert np.array_equal(
            oracle.extract_row(remapper, oracle.place_rows(remapper, bits)),
            bits,
        )

    def test_faulty_positions_cleared_in_silicon(self):
        remapper = ColumnRemapper(
            array_columns=8, spare_columns=1, faulty_columns=(3,)
        )
        bits = np.ones(8, dtype=np.uint8)
        physical = oracle.place_rows(remapper, bits)
        assert physical[3] == 0      # faulty main-array cell unused
        assert physical[8] == 1      # data lives in the spare

    def test_more_faults_than_spares_raises(self):
        with pytest.raises(ValueError, match="spares"):
            ColumnRemapper(array_columns=8, spare_columns=1,
                           faulty_columns=(1, 2))

    def test_duplicate_fault_raises(self):
        with pytest.raises(ValueError, match="duplicate"):
            ColumnRemapper(array_columns=8, spare_columns=2,
                           faulty_columns=(1, 1))

    def test_out_of_range_fault_raises(self):
        with pytest.raises(ValueError, match="out of range"):
            ColumnRemapper(array_columns=8, spare_columns=2,
                           faulty_columns=(9,))


class TestVendorMapping:
    def test_roundtrip_through_silicon(self):
        mapping = make_vendor_mapping(
            columns=128, seed=11, spare_columns=8, faulty_fraction=0.05
        )
        bits = np.random.default_rng(2).integers(0, 2, 128).astype(np.uint8)
        assert np.array_equal(
            oracle.from_silicon(mapping, mapping.to_silicon(bits)), bits
        )

    def test_silicon_width_includes_spares(self):
        mapping = make_vendor_mapping(columns=128, seed=1, spare_columns=8)
        assert mapping.physical_columns == 136

    def test_silicon_index_consistent_with_layout(self):
        mapping = make_vendor_mapping(
            columns=64, seed=3, spare_columns=4, faulty_fraction=0.05
        )
        bits = np.zeros(64, dtype=np.uint8)
        for column in range(64):
            bits[:] = 0
            bits[column] = 1
            physical = mapping.to_silicon(bits)
            assert physical[oracle.silicon_index(mapping, column)] == 1
            assert physical.sum() == 1

    @settings(max_examples=60, deadline=None)
    @given(
        columns=st.integers(1, 96),
        mapping_seed=st.integers(0, 2**16),
        spare_columns=st.integers(0, 8),
        faulty_fraction=st.sampled_from([0.0, 0.05, 0.3]),
        rows=st.one_of(st.none(), st.integers(1, 4)),
        dtype=st.sampled_from([np.uint8, np.bool_]),
        content_seed=st.integers(0, 2**32 - 1),
    )
    def test_gather_matches_oracle_layout(
        self, columns, mapping_seed, spare_columns, faulty_fraction, rows,
        dtype, content_seed,
    ):
        mapping = make_vendor_mapping(
            columns, mapping_seed, spare_columns, faulty_fraction
        )
        shape = (columns,) if rows is None else (rows, columns)
        bits = np.random.default_rng(content_seed).integers(
            0, 2, size=shape
        ).astype(dtype)
        want = oracle.to_silicon(mapping, bits)
        for gather in (mapping.to_silicon, mapping.to_silicon_batch):
            got = gather(bits)
            assert got.dtype == bits.dtype
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("shape", [(63,), (2, 65)])
    def test_gather_wrong_width_raises(self, shape):
        mapping = make_vendor_mapping(columns=64, seed=3, spare_columns=4)
        with pytest.raises(ValueError, match="length"):
            mapping.to_silicon(np.zeros(shape, dtype=np.uint8))
        with pytest.raises(ValueError, match="length"):
            mapping.to_silicon_batch(np.zeros(shape, dtype=np.uint8))

    def test_width_mismatch_raises(self):
        with pytest.raises(ValueError, match="widths"):
            VendorMapping(
                scrambler=AddressScrambler(columns=64, seed=0),
                remapper=ColumnRemapper(array_columns=32, spare_columns=0),
            )

    def test_bad_faulty_fraction_raises(self):
        with pytest.raises(ValueError, match="faulty_fraction"):
            make_vendor_mapping(columns=64, faulty_fraction=1.5)
