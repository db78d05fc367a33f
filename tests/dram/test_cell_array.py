"""Tests for the cell-level content model."""

import numpy as np
import pytest

from repro.dram.cell_array import CellArray, bits_to_bytes, bytes_to_bits
from repro.dram.faults import FaultMap, FaultModelConfig
from repro.dram.geometry import TINY_MODULE, DramGeometry
from tests.oracles import scramble


@pytest.fixture
def array() -> CellArray:
    return CellArray(TINY_MODULE, seed=3)


@pytest.fixture
def dense_array() -> CellArray:
    geometry = DramGeometry(
        channels=1, ranks=1, banks=2, rows_per_bank=32,
        row_size_bytes=512, block_size_bytes=64,
    )
    array = CellArray(geometry, seed=5)
    array.fault_map = FaultMap(
        total_rows=geometry.total_rows,
        bits_per_row=array.vendor_mapping.physical_columns,
        config=FaultModelConfig(vulnerable_cell_rate=5e-3),
        seed=5,
    )
    return array


class TestBitCodec:
    def test_roundtrip(self):
        data = bytes(range(256))
        assert bits_to_bytes(bytes_to_bits(data)) == data

    def test_lsb_first(self):
        bits = bytes_to_bits(b"\x01")
        assert list(bits) == [1, 0, 0, 0, 0, 0, 0, 0]

    def test_non_multiple_of_8_raises(self):
        with pytest.raises(ValueError):
            bits_to_bytes(np.zeros(7, dtype=np.uint8))


class TestContent:
    def test_unwritten_row_reads_zero(self, array):
        assert array.read_row_bytes(0) == bytes(TINY_MODULE.row_size_bytes)

    def test_write_read_roundtrip(self, array):
        data = bytes(
            (i * 37) % 256 for i in range(TINY_MODULE.row_size_bytes)
        )
        array.write_row_bytes(5, data)
        assert array.read_row_bytes(5) == data

    def test_block_write_updates_slice(self, array):
        block = bytes([0xAB] * TINY_MODULE.block_size_bytes)
        array.write_block(2, 3, block)
        row = array.read_row_bytes(2)
        start = 3 * TINY_MODULE.block_size_bytes
        assert row[start:start + 64] == block
        assert row[:start] == bytes(start)

    def test_block_write_preserves_rest_of_row(self, array):
        data = bytes([0x11] * TINY_MODULE.row_size_bytes)
        array.write_row_bytes(1, data)
        array.write_block(1, 0, bytes([0x22] * 64))
        row = array.read_row_bytes(1)
        assert row[:64] == bytes([0x22] * 64)
        assert row[64:] == data[64:]

    def test_written_rows_tracked(self, array):
        array.write_block(4, 0, bytes(64))
        array.write_row_bytes(9, bytes(TINY_MODULE.row_size_bytes))
        assert array.written_rows() == [4, 9]

    def test_read_returns_copy(self, array):
        bits = array.read_row_bits(0)
        bits[:] = 1
        assert array.read_row_bits(0).sum() == 0

    def test_wrong_size_raises(self, array):
        with pytest.raises(ValueError):
            array.write_row_bytes(0, b"short")
        with pytest.raises(ValueError):
            array.write_block(0, 0, b"short")

    def test_out_of_range_raises(self, array):
        with pytest.raises(ValueError):
            array.read_row_bits(TINY_MODULE.total_rows)
        with pytest.raises(ValueError, match="block"):
            array.write_block(0, TINY_MODULE.blocks_per_row, bytes(64))


class TestSiliconView:
    def test_silicon_roundtrips_to_system(self, array):
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, TINY_MODULE.bits_per_row).astype(np.uint8)
        array.write_row_bits(7, bits)
        mapping = array.vendor_mapping
        physical = mapping.to_silicon(array.read_row_bits(7))
        assert np.array_equal(scramble.from_silicon(mapping, physical), bits)

    def test_silicon_differs_from_system_order(self, array):
        bits = np.zeros(TINY_MODULE.bits_per_row, dtype=np.uint8)
        bits[:16] = 1  # a contiguous run in system order
        array.write_row_bits(0, bits)
        physical = array.vendor_mapping.to_silicon(array.read_row_bits(0))
        # Scrambling must scatter the run (overwhelmingly likely).
        assert not np.array_equal(physical[: len(bits)], bits)


class TestDecay:
    def test_decay_flips_failing_cells_only(self, dense_array):
        rng = np.random.default_rng(9)
        bits = rng.integers(0, 2, 4096).astype(np.uint8)
        dense_array.write_row_bits(3, bits)
        failing = dense_array.failing_cells(3, 1000.0)
        decayed = dense_array.decay_row(3, 1000.0)
        assert int((decayed != bits).sum()) == len(failing)

    def test_no_failures_no_change(self, dense_array):
        bits = np.zeros(4096, dtype=np.uint8)
        dense_array.write_row_bits(3, bits)
        if not dense_array.failing_cells(3, 64.0):
            decayed = dense_array.decay_row(3, 64.0)
            assert np.array_equal(decayed, bits)

    def test_decay_deterministic(self, dense_array):
        rng = np.random.default_rng(11)
        bits = rng.integers(0, 2, 4096).astype(np.uint8)
        dense_array.write_row_bits(1, bits)
        first = dense_array.decay_row(1, 500.0)
        second = dense_array.decay_row(1, 500.0)
        assert np.array_equal(first, second)

