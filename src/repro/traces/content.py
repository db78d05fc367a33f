"""Program memory-content generators for retention testing (Figure 4).

The paper dumps the live memory image of each SPEC CPU2006 benchmark into
the test DIMM and measures which rows fail with *that* content. What
matters to the fault model is the bit-level statistics of each row — density
of set bits and their arrangement — because those determine how often a
vulnerable cell is charged with aggressing neighbours.

Real program memory is a mixture of a few characteristic row types; each
generator here produces one type, and a :class:`ContentProfile` mixes them
in per-benchmark proportions:

* ``zero``     — untouched/zeroed pages (near-zero bit density),
* ``text``     — ASCII-like bytes (high bits clear, density ~0.35),
* ``code``     — machine-code-like (structured opcodes, density ~0.4),
* ``intdata``  — small integers in 32/64-bit slots (low bytes dense),
* ``floatdata``— doubles with random mantissas (density ~0.45),
* ``pointer``  — pointer-heavy heap (shared high bytes, random lows),
* ``random``   — high-entropy data (compressed/encrypted; density 0.5).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Dict, Mapping

import numpy as np

RowGenerator = Callable[[np.random.Generator, int], np.ndarray]


def name_seed(name: str) -> int:
    """Deterministic 32-bit seed derived from a profile name.

    ``hash(str)`` is salted per interpreter process (PYTHONHASHSEED), so
    seeding from it made every generated image and trace differ between
    runs of the nominally same seed.
    """
    return zlib.crc32(name.encode("utf-8"))


def _zero_row(rng: np.random.Generator, n_bytes: int) -> np.ndarray:
    row = np.zeros(n_bytes, dtype=np.uint8)
    # A sprinkle of metadata words so the page is not literally blank.
    n_words = max(1, n_bytes // 512)
    idx = rng.integers(0, n_bytes, size=n_words)
    row[idx] = rng.integers(1, 256, size=n_words)
    return row


def _text_row(rng: np.random.Generator, n_bytes: int) -> np.ndarray:
    # Printable ASCII: byte values 32..126, high bit always clear.
    return rng.integers(32, 127, size=n_bytes).astype(np.uint8)


def _code_row(rng: np.random.Generator, n_bytes: int) -> np.ndarray:
    # Opcode-like structure: a small dictionary of frequent byte values
    # plus random immediates.
    opcodes = np.array([0x48, 0x89, 0x8B, 0xE8, 0x0F, 0xC3, 0x55, 0x5D],
                       dtype=np.uint8)
    row = opcodes[rng.integers(0, len(opcodes), size=n_bytes)]
    immediates = rng.random(n_bytes) < 0.3
    row[immediates] = rng.integers(0, 256, size=int(immediates.sum()))
    return row


def _int_row(rng: np.random.Generator, n_bytes: int) -> np.ndarray:
    # Little-endian 32-bit ints, mostly small: low bytes dense, high sparse.
    n_words = n_bytes // 4
    values = rng.geometric(1e-4, size=n_words).astype(np.uint32)
    return values.view(np.uint8)[:n_bytes].copy()


def _float_row(rng: np.random.Generator, n_bytes: int) -> np.ndarray:
    n_doubles = n_bytes // 8
    values = rng.normal(0.0, 1e3, size=n_doubles)
    return values.view(np.uint8)[:n_bytes].copy()


def _pointer_row(rng: np.random.Generator, n_bytes: int) -> np.ndarray:
    # 64-bit pointers into a common heap region: fixed high bytes,
    # random low bytes.
    n_ptrs = n_bytes // 8
    base = np.uint64(0x00007F3A00000000)
    offsets = rng.integers(0, 1 << 30, size=n_ptrs, dtype=np.uint64)
    return (base + offsets).view(np.uint8)[:n_bytes].copy()


def _random_row(rng: np.random.Generator, n_bytes: int) -> np.ndarray:
    return rng.integers(0, 256, size=n_bytes, dtype=np.uint8)


ROW_GENERATORS: Dict[str, RowGenerator] = {
    "zero": _zero_row,
    "text": _text_row,
    "code": _code_row,
    "intdata": _int_row,
    "floatdata": _float_row,
    "pointer": _pointer_row,
    "random": _random_row,
}


@dataclass(frozen=True)
class ContentProfile:
    """A benchmark's memory image as a mixture of row types.

    ``mixture`` maps row-type names to weights; weights are normalised.
    """

    name: str
    mixture: Mapping[str, float]

    def __post_init__(self) -> None:
        if not self.mixture:
            raise ValueError("mixture must not be empty")
        unknown = set(self.mixture) - set(ROW_GENERATORS)
        if unknown:
            raise ValueError(f"unknown row types: {sorted(unknown)}")
        if any(w < 0 for w in self.mixture.values()):
            raise ValueError("mixture weights must be non-negative")
        if sum(self.mixture.values()) <= 0:
            raise ValueError("mixture weights must sum to a positive value")

    def generate_image(
        self,
        n_rows: int,
        row_bytes: int,
        seed: int = 0,
    ) -> Dict[int, bytes]:
        """Generate ``n_rows`` rows of content, keyed by row index."""
        if n_rows <= 0 or row_bytes <= 0:
            raise ValueError("n_rows and row_bytes must be positive")
        rng = np.random.default_rng((seed << 8) ^ name_seed(self.name))
        names = list(self.mixture)
        weights = np.array([self.mixture[n] for n in names], dtype=np.float64)
        weights = weights / weights.sum()
        choices = rng.choice(len(names), size=n_rows, p=weights)
        image: Dict[int, bytes] = {}
        for row in range(n_rows):
            generator = ROW_GENERATORS[names[choices[row]]]
            image[row] = generator(rng, row_bytes).tobytes()
        return image

