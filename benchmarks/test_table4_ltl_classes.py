"""Table 4: average verification time per class of LTL-FO properties.

The paper reports, for each of the 12 LTL templates (the False baseline plus
safety / liveness / fairness properties), the average verification time on
both workflow suites, and observes that every class stays within a small
factor of the False baseline.
"""

import pytest

pytestmark = [pytest.mark.benchmark, pytest.mark.slow]
from conftest import TEMPLATES, print_table

from repro.benchmark.properties import LTL_TEMPLATES
from repro.benchmark.runner import BenchmarkRunner
from repro.core.options import Ablation


@pytest.mark.parametrize("suite_name", ["real", "synthetic"])
def test_table4_ltl_property_classes(benchmark, runner, real_suite, synthetic_suite, suite_name):
    suite = real_suite if suite_name == "real" else synthetic_suite

    def run():
        return runner.run_suite(suite, {"VERIFAS": Ablation()})

    records = benchmark.pedantic(run, rounds=1, iterations=1)
    table = BenchmarkRunner.table4(records)

    ordered = [t for t in LTL_TEMPLATES if t.name in table]
    rows = [
        (
            template.formula_text or "False",
            template.category,
            f"{table[template.name]['avg_seconds']:.3f}s",
            int(table[template.name]["runs"]),
        )
        for template in ordered
    ]
    print_table(
        f"Table 4 ({suite_name} set): Average Time per LTL Template",
        ("Template", "Class", "Avg(Time)", "Runs"),
        rows,
    )

    assert "false" in table, "the False baseline template must be present"
    baseline = table["false"]["avg_seconds"]
    non_failing = [
        data["avg_seconds"] for name, data in table.items() if name != "false"
    ]
    # Shape check (loose version of the paper's observation): property classes
    # stay within a moderate factor of the baseline on average.
    if baseline > 0 and non_failing:
        assert min(non_failing) <= baseline * 25
