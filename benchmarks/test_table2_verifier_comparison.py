"""Table 2: average elapsed time and failed runs per verifier.

The paper compares the Spin-based verifier (Spin-Opt), VERIFAS with artifact
relations ignored (VERIFAS-NoSet) and full VERIFAS on both workflow suites.
The expected shape: the Spin-like explicit-state baseline is slower and fails
(timeout / state budget) more often than either VERIFAS configuration, and the
artifact-relation support adds only moderate overhead.
"""

import pytest

pytestmark = [pytest.mark.benchmark, pytest.mark.slow]
from conftest import print_table

from repro.benchmark.runner import BenchmarkRunner
from repro.core.options import Ablation

CONFIGURATIONS = {
    "Spin-Opt": None,  # the Spin-like explicit-state baseline
    "VERIFAS-NoSet": Ablation(use_artifact_relations=False),
    "VERIFAS": Ablation(),
}


@pytest.mark.parametrize("suite_name", ["real", "synthetic"])
def test_table2_verifier_comparison(benchmark, runner, real_suite, synthetic_suite, suite_name):
    suite = real_suite if suite_name == "real" else synthetic_suite

    def run():
        return runner.run_suite(suite, CONFIGURATIONS)

    records = benchmark.pedantic(run, rounds=1, iterations=1)
    table = BenchmarkRunner.table2(records)

    rows = [
        (
            verifier,
            f"{data['avg_seconds']:.3f}s",
            int(data["failures"]),
            int(data["runs"]),
        )
        for verifier, data in table.items()
    ]
    print_table(
        f"Table 2 ({suite_name} set): Average Elapsed Time and #Fail",
        ("Verifier", "Avg(Time)", "#Fail", "Runs"),
        rows,
    )

    # Shape checks: VERIFAS never fails more often than the Spin-like baseline,
    # and on average it is at least as fast.
    assert table["VERIFAS"]["failures"] <= table["Spin-Opt"]["failures"]
    assert table["VERIFAS-NoSet"]["failures"] <= table["Spin-Opt"]["failures"]
    if table["Spin-Opt"]["failures"] == 0:
        assert table["VERIFAS"]["avg_seconds"] <= table["Spin-Opt"]["avg_seconds"] * 2.0
