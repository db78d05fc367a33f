"""Table 3 bench: slowdown from injected testing traffic."""

from repro.experiments.common import mean_speedups

WINDOW_NS = 60_000.0
WORKLOADS = (["mcf"], ["lbm"])
TESTS = (256, 512, 1024)


def _losses():
    means = mean_speedups(
        WORKLOADS, {"refresh_reduction": 0.66, "concurrent_tests": 0},
        [
            {"refresh_reduction": 0.66, "concurrent_tests": tests}
            for tests in TESTS
        ],
        WINDOW_NS, 31,
    )
    return {tests: 1.0 - mean for tests, mean in zip(TESTS, means)}


def test_bench_table3_testing_loss(run_once):
    losses = run_once(_losses)
    # Paper: 0.54%/1.03%/1.88% single-core; overhead grows with test count
    # and stays far below the refresh-reduction win.
    assert losses[1024] >= losses[256] - 0.005
    assert losses[1024] < 0.05
    print("table3 losses:", {k: f"{100 * v:.2f}%" for k, v in losses.items()})
