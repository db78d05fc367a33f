"""Multiprogrammed workload mixes for the performance studies.

The paper combines four randomly selected applications from SPEC CPU2006
and the TPC server suites into 30 multiprogrammed mixes (§5). The same
construction here, seeded so the mixes are stable across runs; single-core
workloads are the individual benchmarks.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..traces.spec import benchmark_names


def multicore_mixes(
    n_mixes: int = 30,
    cores: int = 4,
    seed: int = 2017,
) -> List[List[str]]:
    """The paper's 30 random 4-app mixes (deterministic for a seed)."""
    if n_mixes <= 0 or cores <= 0:
        raise ValueError("n_mixes and cores must be positive")
    pool = benchmark_names()
    rng = np.random.default_rng(seed)
    return [
        [pool[int(i)] for i in rng.choice(len(pool), size=cores, replace=False)]
        for _ in range(n_mixes)
    ]


def singlecore_workloads(n_workloads: int = 30, seed: int = 2017) -> List[List[str]]:
    """Single-benchmark workloads, cycling through the pool."""
    if n_workloads <= 0:
        raise ValueError("n_workloads must be positive")
    pool = benchmark_names()
    rng = np.random.default_rng(seed + 1)
    order = [pool[int(i)] for i in rng.permutation(len(pool))]
    return [[order[i % len(order)]] for i in range(n_workloads)]
