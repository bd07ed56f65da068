"""Table 3: impact of the three optimizations (SP, SA, DSS).

The paper re-runs the experiments with each optimization disabled and reports
the mean and 5%-trimmed-mean speedup of enabling it.  State pruning (SP) has
by far the largest impact; static analysis (SA) and the index data structures
(DSS) give smaller, workload-dependent improvements.
"""

import pytest

pytestmark = [pytest.mark.benchmark, pytest.mark.slow]
from conftest import print_table

from repro.benchmark.runner import BenchmarkRunner
from repro.core.options import Ablation

ABLATIONS = {
    "SP (state pruning)": Ablation(state_pruning=False),
    "SA (static analysis)": Ablation(static_analysis=False),
    "DSS (data structures)": Ablation(data_structure_support=False),
}


@pytest.mark.parametrize("suite_name", ["real", "synthetic"])
def test_table3_optimization_speedups(benchmark, runner, real_suite, synthetic_suite, suite_name):
    suite = real_suite if suite_name == "real" else synthetic_suite

    def run():
        baseline_records = runner.run_suite(suite, {"VERIFAS": Ablation()})
        speedups = {}
        for label, ablation in ABLATIONS.items():
            ablated_records = runner.run_suite(suite, {label: ablation})
            speedups[label] = BenchmarkRunner.table3(baseline_records, ablated_records)
        return speedups

    speedups = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = [
        (label, f"{data['mean']:.2f}x", f"{data['trimmed_mean']:.2f}x", int(data["runs"]))
        for label, data in speedups.items()
    ]
    print_table(
        f"Table 3 ({suite_name} set): Mean and Trimmed Mean (5%) of Speedups",
        ("Optimization", "Mean", "Trimmed", "Runs"),
        rows,
    )

    # Shape check: none of the optimizations should slow the verifier down by
    # more than a small factor on average (the paper reports speedups >= ~0.9x
    # even in the worst case, and large speedups for state pruning).
    for label, data in speedups.items():
        assert data["runs"] > 0
        assert data["trimmed_mean"] > 0.3, f"{label} unexpectedly harmful"
