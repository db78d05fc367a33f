"""ECC-based mitigation of detected failures.

The paper lists three mitigation options for a row whose current content
fails: a higher refresh rate (what the main evaluation uses), ECC, or
remapping (§1, §2). This module provides the ECC alternative: a
SECDED(72,64) code protects each 64-bit word, so a failing row whose
failures are confined to *at most one bit per word* can stay at LO-REF
with its errors corrected on read — only rows with a multi-bit word need
HI-REF. :func:`repro.core.remap.plan_mitigations` applies this test as
the ECC stage of the LO-REF -> ECC -> remap -> HI-REF cascade.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

#: SECDED(72,64): data bits per protected word.
SECDED_WORD_BITS = 64
#: Check bits per word (storage overhead 8/64 = 12.5%).
SECDED_CHECK_BITS = 8


@dataclass(frozen=True)
class EccConfig:
    """SECDED geometry and its costs."""

    word_bits: int = SECDED_WORD_BITS
    check_bits: int = SECDED_CHECK_BITS
    #: Bits correctable per word (1 for SECDED).
    correctable_per_word: int = 1

    def __post_init__(self) -> None:
        if self.word_bits <= 0 or self.check_bits <= 0:
            raise ValueError("word and check bits must be positive")
        if self.correctable_per_word < 0:
            raise ValueError("correctable_per_word must be non-negative")

    @property
    def storage_overhead(self) -> float:
        """Extra capacity consumed by check bits."""
        return self.check_bits / self.word_bits


def failures_per_word(
    failing_bits: Iterable[int], word_bits: int = SECDED_WORD_BITS
) -> Counter:
    """Histogram of failing-bit counts per ECC word."""
    counts: Counter = Counter()
    for bit in failing_bits:
        if bit < 0:
            raise ValueError("bit positions must be non-negative")
        counts[bit // word_bits] += 1
    return counts


def row_is_correctable(
    failing_bits: Sequence[int], config: EccConfig = EccConfig()
) -> bool:
    """Whether ECC alone can cover a row's current-content failures."""
    if not failing_bits:
        return True
    per_word = failures_per_word(failing_bits, config.word_bits)
    return max(per_word.values()) <= config.correctable_per_word
