"""Simulated evaluation infrastructure: the SoftMC tester and data patterns."""

from .patterns import (
    CANONICAL_PATTERNS,
    DataPattern,
    pattern_battery,
    random_pattern,
)
from .softmc import CellFailure, FailureReport, SoftMCTester

__all__ = [
    "CANONICAL_PATTERNS",
    "CellFailure",
    "DataPattern",
    "FailureReport",
    "SoftMCTester",
    "pattern_battery",
    "random_pattern",
]
