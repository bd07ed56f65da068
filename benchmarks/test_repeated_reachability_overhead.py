"""Section 4.2 (text): overhead of the repeated-reachability module.

The paper measures the cost of computing repeatedly-reachable states (needed
for full LTL-FO semantics over infinite runs) by re-running the experiments
with that module turned off, and reports an average overhead of roughly 19% on
the real set and 14% on the synthetic set.  This benchmark performs the same
comparison: full verifier vs reachability-only verifier.
"""

import pytest

pytestmark = [pytest.mark.benchmark, pytest.mark.slow]
from conftest import print_table

from repro.benchmark.runner import BenchmarkRunner
from repro.core.options import Ablation


@pytest.mark.parametrize("suite_name", ["real", "synthetic"])
def test_repeated_reachability_overhead(benchmark, runner, real_suite, synthetic_suite, suite_name):
    suite = real_suite if suite_name == "real" else synthetic_suite

    def run():
        with_module = runner.run_suite(suite, {"full": Ablation()})
        without_module = runner.run_suite(
            suite, {"no-rr": Ablation(check_repeated_reachability=False)}
        )
        return with_module, without_module

    with_module, without_module = benchmark.pedantic(run, rounds=1, iterations=1)
    overhead = BenchmarkRunner.overhead(with_module, without_module)

    print_table(
        f"Repeated-reachability overhead ({suite_name} set)",
        ("Configuration", "Avg(Time)"),
        [
            ("full verifier", f"{BenchmarkRunner.table2(with_module)['full']['avg_seconds']:.3f}s"),
            ("reachability only", f"{BenchmarkRunner.table2(without_module)['no-rr']['avg_seconds']:.3f}s"),
            ("overhead", f"{overhead:.1f}%"),
        ],
    )

    # Shape check: the overhead stays moderate (the paper reports 13-19%; we
    # allow a generous band because the scaled-down workload is noisier).
    assert overhead < 150.0
