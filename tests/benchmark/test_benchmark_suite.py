"""Tests for the benchmark substrate: workflows, properties, metrics, runner."""

import pytest

from repro import Verifier, VerifierOptions
from repro.core.options import Ablation
from repro.benchmark.cyclomatic import cyclomatic_complexity
from repro.benchmark.properties import (
    LTL_TEMPLATES,
    candidate_conditions,
    generate_properties,
    property_from_template,
)
from repro.benchmark.realworld import (
    REAL_WORKFLOW_FACTORIES,
    order_fulfillment,
    order_fulfillment_buggy,
    real_workflows,
)
from repro.benchmark.runner import BenchmarkRunner, WorkflowSuite, trimmed_mean
from repro.benchmark.synthetic import SyntheticConfig, generate_synthetic_workflow, synthetic_workflows
from repro.has.conditions import Const, Eq, Var
from repro.ltl.ltlfo import LTLFOProperty
from repro.ltl.parser import parse_ltl


class TestRealWorkflows:
    def test_every_factory_builds_a_valid_system(self):
        for name, factory in REAL_WORKFLOW_FACTORIES.items():
            system = factory()
            stats = system.statistics()
            assert stats["tasks"] >= 1, name
            assert stats["services"] >= 3, name

    def test_suite_statistics_resemble_table1(self):
        suite = WorkflowSuite("real", real_workflows())
        stats = suite.statistics()
        assert stats["size"] >= 10
        assert 1 <= stats["relations"] <= 6
        assert 1 <= stats["tasks"] <= 6
        assert 5 <= stats["variables"] <= 30
        assert 5 <= stats["services"] <= 25

    def test_cyclomatic_complexity_within_recommended_range(self):
        for system in real_workflows():
            assert 1 <= cyclomatic_complexity(system) <= 20

    def test_order_fulfillment_guard_bug_detected(self):
        """The Section 2.1 scenario: the correct variant satisfies the guard
        property, the buggy one (in-stock check moved inside ShipItem) violates it."""
        ltl_property = LTLFOProperty(
            "ProcessOrders",
            parse_ltl("G (open_ShipItem -> in_stock)"),
            conditions={"in_stock": Eq(Var("instock"), Const("Yes"))},
            name="ship-only-in-stock",
        )
        options = VerifierOptions(max_states=50_000, timeout_seconds=60)
        assert Verifier(order_fulfillment(), options).verify(ltl_property).satisfied
        assert Verifier(order_fulfillment_buggy(), options).verify(ltl_property).violated


class TestSyntheticGenerator:
    def test_deterministic_for_a_seed(self):
        config = SyntheticConfig(relations=3, tasks=3, variables_per_task=6, services_per_task=5, seed=11)
        first = generate_synthetic_workflow(config)
        second = generate_synthetic_workflow(config)
        assert first.statistics() == second.statistics()
        assert [s.name for s in first.all_internal_services()] == [
            s.name for s in second.all_internal_services()
        ]

    def test_size_parameters_respected(self):
        config = SyntheticConfig(relations=4, tasks=3, variables_per_task=10, services_per_task=7, seed=2)
        system = generate_synthetic_workflow(config)
        stats = system.statistics()
        assert stats["relations"] == 4
        assert stats["tasks"] == 3
        assert all(len(system.internal_services(t)) == 7 for t in system.task_names)

    def test_suite_scales_in_size(self):
        workflows = synthetic_workflows(
            count=3,
            base_config=SyntheticConfig(relations=3, tasks=2, variables_per_task=8, services_per_task=8),
            seed=5,
            scale_range=(0.4, 1.0),
        )
        sizes = [w.statistics()["services"] for w in workflows]
        assert sizes[0] < sizes[-1]

    def test_generated_workflows_are_verifiable(self):
        config = SyntheticConfig(relations=2, tasks=2, variables_per_task=5, services_per_task=4, seed=19)
        system = generate_synthetic_workflow(config)
        verifier = Verifier(system, VerifierOptions(max_states=3_000, timeout_seconds=15))
        result = verifier.verify(LTLFOProperty(system.root, parse_ltl("false"), name="false"))
        assert not result.unknown or result.stats.failed


class TestPropertyTemplates:
    def test_twelve_templates_matching_table4(self):
        assert len(LTL_TEMPLATES) == 12
        categories = {t.category for t in LTL_TEMPLATES}
        assert categories == {"baseline", "safety", "liveness", "fairness"}
        assert sum(1 for t in LTL_TEMPLATES if t.category == "safety") == 5
        assert sum(1 for t in LTL_TEMPLATES if t.category == "liveness") == 2
        assert sum(1 for t in LTL_TEMPLATES if t.category == "fairness") == 4

    def test_candidate_conditions_only_use_task_variables(self, tiny_system):
        task_variables = set(tiny_system.task("Main").variable_names)
        for condition in candidate_conditions(tiny_system):
            assert condition.variables() <= task_variables

    def test_generate_properties_one_per_template(self, tiny_system):
        properties = generate_properties(tiny_system, seed=4)
        assert len(properties) == len(LTL_TEMPLATES)
        for ltl_property in properties:
            assert ltl_property.task == "Main"

    def test_generation_is_deterministic(self, tiny_system):
        first = generate_properties(tiny_system, seed=9)
        second = generate_properties(tiny_system, seed=9)
        assert [str(p.conditions) for p in first] == [str(p.conditions) for p in second]

    def test_properties_are_verifiable(self, tiny_system):
        verifier = Verifier(tiny_system, VerifierOptions(max_states=10_000, timeout_seconds=20))
        for ltl_property in generate_properties(tiny_system, seed=1):
            result = verifier.verify(ltl_property)
            assert not result.unknown


class TestRunnerAggregation:
    def test_trimmed_mean(self):
        values = [1.0] * 18 + [1000.0, 0.001]
        assert trimmed_mean(values, 0.05) == pytest.approx(1.0)
        assert trimmed_mean([], 0.05) == 0.0

    def test_run_workflow_and_tables(self, tiny_system):
        runner = BenchmarkRunner(timeout_seconds=15, max_states=5_000, templates=LTL_TEMPLATES[:3])
        records = runner.run_workflow(tiny_system, "VERIFAS", Ablation())
        assert len(records) == 3
        table2 = BenchmarkRunner.table2(records)
        assert table2["VERIFAS"]["runs"] == 3
        table4 = BenchmarkRunner.table4(records)
        assert set(table4) == {"false", "always", "until"}
        series = BenchmarkRunner.figure9(records)
        assert len(series) == 1 and series[0][2] == 3

    def test_speedup_and_overhead_aggregation(self, tiny_system):
        runner = BenchmarkRunner(timeout_seconds=15, max_states=5_000, templates=LTL_TEMPLATES[:2])
        fast = runner.run_workflow(tiny_system, "fast", Ablation())
        slow = runner.run_workflow(tiny_system, "slow", Ablation(state_pruning=False))
        speedups = BenchmarkRunner.table3(fast, slow)
        assert speedups["runs"] == 2
        assert speedups["mean"] > 0
        overhead = BenchmarkRunner.overhead(fast, slow)
        assert isinstance(overhead, float)

    def test_spin_baseline_configuration(self, tiny_system):
        runner = BenchmarkRunner(timeout_seconds=15, max_states=20_000, templates=LTL_TEMPLATES[:2])
        suite = WorkflowSuite("tiny", [tiny_system])
        records = runner.run_suite(suite, {"Spin-Opt": None, "VERIFAS": Ablation()})
        verifiers = {record.verifier for record in records}
        assert verifiers == {"Spin-Opt", "VERIFAS"}
