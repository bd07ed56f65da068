"""Section 4.2 (text): overhead of the repeated-reachability module.

The paper measures the cost of computing repeatedly-reachable states (needed
for full LTL-FO semantics over infinite runs) by re-running the experiments
with that module turned off, and reports an average overhead of roughly 19% on
the real set and 14% on the synthetic set.  The main search is the same with
or without the module, so this benchmark reads the overhead from one full
run: the phase's time (``stats.repeated_seconds``) against the rest of each
run's time.
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
        return runner.run_suite(suite, {"full": Ablation()})

    records = benchmark.pedantic(run, rounds=1, iterations=1)
    finished = [record for record in records if not record.failed]
    total = sum(record.seconds for record in finished)
    repeated = sum(record.repeated_seconds for record in finished)
    overhead = BenchmarkRunner.overhead(records)

    print_table(
        f"Repeated-reachability overhead ({suite_name} set)",
        ("Configuration", "Total time"),
        [
            ("full verifier", f"{total:.3f}s"),
            ("repeated-reachability phase", f"{repeated:.3f}s"),
            ("overhead", f"{overhead:.1f}%"),
        ],
    )

    # Shape check: the overhead stays moderate (the paper reports 13-19%; we
    # allow a generous band because the scaled-down workload is noisier).
    assert overhead < 150.0
