"""Canonical DRAM test data patterns.

Manufacturers detect data-dependent failures by exhaustively writing
patterns that maximise cell-to-cell interference (paper §2). This module
provides the standard pattern families used for that style of testing, each
expressed as a function from (row index, bits per row) to a bit array, so
patterns that alternate per row (row stripes, checkerboards) are expressible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

import numpy as np
from numpy.random import PCG64

PatternFn = Callable[[int, int], np.ndarray]


@dataclass(frozen=True)
class DataPattern:
    """A named test data pattern."""

    name: str
    fn: PatternFn

    def row_bits(self, row_index: int, bits_per_row: int) -> np.ndarray:
        bits = self.fn(row_index, bits_per_row)
        if len(bits) != bits_per_row:
            raise ValueError(
                f"pattern {self.name!r} produced {len(bits)} bits, "
                f"expected {bits_per_row}"
            )
        return bits.astype(np.uint8, copy=False)


def _solid(value: int) -> PatternFn:
    def fn(row_index: int, n: int) -> np.ndarray:
        return np.full(n, value, dtype=np.uint8)

    return fn


def _column_stripe(phase: int) -> PatternFn:
    def fn(row_index: int, n: int) -> np.ndarray:
        return ((np.arange(n) + phase) & 1).astype(np.uint8)

    return fn


def _row_stripe(phase: int) -> PatternFn:
    def fn(row_index: int, n: int) -> np.ndarray:
        return np.full(n, (row_index + phase) & 1, dtype=np.uint8)

    return fn


def _checkerboard(phase: int) -> PatternFn:
    def fn(row_index: int, n: int) -> np.ndarray:
        return ((np.arange(n) + row_index + phase) & 1).astype(np.uint8)

    return fn


def _walking(value: int, stride: int) -> PatternFn:
    """A walking-1 (or walking-0) with the hot bit shifting per row."""

    def fn(row_index: int, n: int) -> np.ndarray:
        bits = np.full(n, 1 - value, dtype=np.uint8)
        bits[(row_index * stride) % n:: stride] = value
        return bits

    return fn


def random_pattern(seed: int) -> DataPattern:
    """An i.i.d. uniform random pattern (fresh stream per row).

    Row ``r`` holds the bits of ``default_rng((seed << 20) ^ r)
    .integers(0, 2, size=n, dtype=np.uint8)``, read straight from the
    generator's raw 64-bit words: numpy draws a uint8 in [0, 2) as the
    top bit of one byte, takes those bytes low byte first from 32-bit
    draws, and PCG64 yields each 64-bit word as its low then its high
    32-bit half. So byte ``i`` of the little-endian word stream, shifted
    right by 7, is bit ``i`` of the row.
    """

    def fn(row_index: int, n: int) -> np.ndarray:
        words = PCG64((seed << 20) ^ row_index).random_raw((n + 7) // 8)
        return words.astype("<u8", copy=False).view(np.uint8)[:n] >> 7

    return DataPattern(name=f"random{seed}", fn=fn)


SOLID_0 = DataPattern("solid0", _solid(0))
SOLID_1 = DataPattern("solid1", _solid(1))
COLSTRIPE_0 = DataPattern("colstripe0", _column_stripe(0))
COLSTRIPE_1 = DataPattern("colstripe1", _column_stripe(1))
ROWSTRIPE_0 = DataPattern("rowstripe0", _row_stripe(0))
ROWSTRIPE_1 = DataPattern("rowstripe1", _row_stripe(1))
CHECKER_0 = DataPattern("checker0", _checkerboard(0))
CHECKER_1 = DataPattern("checker1", _checkerboard(1))
WALKING_1 = DataPattern("walking1", _walking(1, 9))
WALKING_0 = DataPattern("walking0", _walking(0, 9))

#: The deterministic manufacturer-style pattern battery.
CANONICAL_PATTERNS: List[DataPattern] = [
    SOLID_0, SOLID_1,
    COLSTRIPE_0, COLSTRIPE_1,
    ROWSTRIPE_0, ROWSTRIPE_1,
    CHECKER_0, CHECKER_1,
    WALKING_1, WALKING_0,
]


def pattern_battery(n_random: int = 90, seed: int = 1) -> List[DataPattern]:
    """The canonical patterns plus ``n_random`` random patterns.

    With the default arguments this yields the 100-pattern battery used to
    reproduce the paper's Figure 3.
    """
    if n_random < 0:
        raise ValueError("n_random must be non-negative")
    return CANONICAL_PATTERNS + [random_pattern(seed + i) for i in range(n_random)]


def pattern_by_name(name: str) -> DataPattern:
    """Look up one of the canonical patterns by name."""
    for pattern in CANONICAL_PATTERNS:
        if pattern.name == name:
            return pattern
    raise KeyError(f"unknown pattern {name!r}")
