"""Figure 9: verification time vs cyclomatic complexity.

The paper plots, for every workflow of both suites, the average verification
time (over its 12 properties) against the workflow's cyclomatic complexity and
observes an exponential trend: higher-complexity specifications take longer to
verify, and specifications within the software-engineering recommendation
(complexity <= 15) verify quickly.
"""

import pytest

pytestmark = [pytest.mark.benchmark, pytest.mark.slow]

from conftest import print_table

from repro.benchmark.runner import BenchmarkRunner
from repro.core.options import Ablation


def test_figure9_time_vs_cyclomatic_complexity(benchmark, runner, real_suite, synthetic_suite):
    def run():
        records = []
        records += runner.run_suite(real_suite, {"VERIFAS": Ablation()})
        records += runner.run_suite(synthetic_suite, {"VERIFAS": Ablation()})
        return records

    records = benchmark.pedantic(run, rounds=1, iterations=1)
    series = BenchmarkRunner.figure9(records)

    rows = [
        (complexity, f"{avg_seconds:.3f}s", runs) for complexity, avg_seconds, runs in series
    ]
    print_table(
        "Figure 9: Average Running Time vs Cyclomatic Complexity",
        ("Cyclomatic complexity", "Avg(Time)", "Runs"),
        rows,
    )

    assert series, "at least one complexity bucket expected"
    complexities = [c for c, _t, _n in series]
    assert min(complexities) >= 1

    # Shape check: workflows within the recommended complexity range (<= 15)
    # verify within the configured per-run budget most of the time.
    low = [r for r in records if r.cyclomatic <= 15]
    if low:
        completed = sum(1 for r in low if not r.failed)
        assert completed / len(low) >= 0.7
