"""Phase-resolved program content (the paper's checkpointed images).

The paper's Figure 4 methodology generates a memory-content trace for
each benchmark "at every 100 million instructions" and averages failing
rows over the checkpoints: program content drifts as dirty cache blocks
write back, so failure exposure is a moving target. This module models
that drift: a :class:`ContentTrace` is a sequence of snapshots where each
phase rewrites a fraction of the previous image's rows (fresh draws from
the benchmark's mixture) and leaves the rest untouched.

Downstream consumers — the SoftMC tester, the Figure 4 experiment — can
iterate phases exactly the way the paper iterates checkpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List

import numpy as np

from .content import ContentProfile, name_seed


@dataclass(frozen=True)
class ContentSnapshot:
    """One checkpointed memory image."""

    instructions: int               # cumulative instruction count
    image: Dict[int, bytes]         # row index -> row bytes
    rows_changed: int               # rows rewritten since the last phase


class ContentTrace:
    """A sequence of drifting content snapshots for one benchmark."""

    def __init__(self, snapshots: List[ContentSnapshot]) -> None:
        if not snapshots:
            raise ValueError("need at least one snapshot")
        sizes = {len(s.image) for s in snapshots}
        if len(sizes) != 1:
            raise ValueError("snapshots must cover the same rows")
        self._snapshots = list(snapshots)

    def __len__(self) -> int:
        return len(self._snapshots)

    def __iter__(self) -> Iterator[ContentSnapshot]:
        return iter(self._snapshots)

    def __getitem__(self, index: int) -> ContentSnapshot:
        return self._snapshots[index]

    @property
    def n_rows(self) -> int:
        return len(self._snapshots[0].image)

    def churn_fractions(self) -> List[float]:
        """Per-phase fraction of rows rewritten (first phase is 1.0)."""
        return [s.rows_changed / self.n_rows for s in self._snapshots]


def generate_content_trace(
    profile: ContentProfile,
    n_rows: int,
    row_bytes: int,
    n_phases: int = 5,
    churn_fraction: float = 0.2,
    instructions_per_phase: int = 100_000_000,
    seed: int = 0,
) -> ContentTrace:
    """Generate a drifting content trace.

    The first phase is a full image; each later phase rewrites
    ``churn_fraction`` of the rows with fresh draws from the profile's
    mixture (a writeback-sized slice of the working set), keeping the
    rest byte-identical — so consecutive checkpoints are correlated the
    way real program memory is.
    """
    if n_phases <= 0:
        raise ValueError("n_phases must be positive")
    if not 0.0 <= churn_fraction <= 1.0:
        raise ValueError("churn_fraction must be in [0, 1]")
    if instructions_per_phase <= 0:
        raise ValueError("instructions_per_phase must be positive")
    rng = np.random.default_rng((seed << 12) ^ name_seed(profile.name))

    image = profile.generate_image(n_rows, row_bytes, seed=seed)
    snapshots = [ContentSnapshot(
        instructions=instructions_per_phase,
        image=dict(image),
        rows_changed=n_rows,
    )]
    n_churn = int(round(n_rows * churn_fraction))
    for phase in range(1, n_phases):
        if n_churn:
            rewritten = rng.choice(n_rows, size=n_churn, replace=False)
            fresh = profile.generate_image(
                n_churn, row_bytes, seed=seed + 7919 * phase,
            )
            for slot, row in enumerate(sorted(int(r) for r in rewritten)):
                image[row] = fresh[slot]
        snapshots.append(ContentSnapshot(
            instructions=(phase + 1) * instructions_per_phase,
            image=dict(image),
            rows_changed=n_churn,
        ))
    return ContentTrace(snapshots)
