"""Figure 15 bench: performance gain from refresh reduction.

Scaled-down sweep (3 workloads, short windows, 32 Gb + 8 Gb endpoints)
asserting the paper's shape: improvement grows with chip density and with
the reduction amount, and the 32 Gb band lands near the paper's +40-50%.
"""

from repro.experiments.common import mean_speedups

WINDOW_NS = 60_000.0
WORKLOADS = (["mcf"], ["lbm"], ["omnetpp"])
REDUCTIONS = (0.60, 0.75)


def _sweep():
    means = {}
    for density in (8, 32):
        speedups = mean_speedups(
            WORKLOADS, {"density_gbit": density},
            [
                {"density_gbit": density, "refresh_reduction": reduction,
                 "concurrent_tests": 256}
                for reduction in REDUCTIONS
            ],
            WINDOW_NS, 11,
        )
        for reduction, mean in zip(REDUCTIONS, speedups):
            means[(density, reduction)] = mean
    return means


def test_bench_fig15_speedup_sweep(run_once):
    means = run_once(_sweep)
    # Shape: density scaling and reduction scaling, as in the paper.
    assert means[(32, 0.75)] > means[(8, 0.75)]
    assert means[(32, 0.75)] > means[(32, 0.60)]
    # Memory-bound 32 Gb band: paper reports +40-50% mean improvement.
    assert 1.25 < means[(32, 0.75)] < 1.75
    print("fig15 mean speedups:", {
        f"{d}Gb@{int(r * 100)}%": round(v, 3) for (d, r), v in means.items()
    })
