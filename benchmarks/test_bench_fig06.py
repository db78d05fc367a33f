"""Figure 6 / Appendix bench: MinWriteInterval crossovers (exact)."""

from repro.core.costmodel import CostModel, TestMode
from repro.experiments.runner import run_experiments


def test_bench_fig06_min_write_interval(benchmark):
    result = benchmark(run_experiments, ["fig06"])[0]
    assert all(row["match"] == "yes" for row in result.rows)
    print(result.to_text())


def test_bench_fig06_cost_curve_sweep(benchmark):
    """Sweep the accumulated-cost curves over a 2-second horizon."""

    def sweep():
        model = CostModel()
        return model.cost_curves(TestMode.COPY_AND_COMPARE, 2000.0)

    times, hi, mem = benchmark(sweep)
    assert hi[-1] > mem[-1]  # past the crossover, HI-REF costs more
