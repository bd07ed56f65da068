"""Unit tests for partial symbolic instances, coverage relations and max-flow."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.coverage import covers_leq, covers_preceq, covers_preceq_plus
from repro.core.expressions import ConstExpr, ExpressionUniverse, NavExpr
from repro.core.isotypes import EQ, NEQ, empty_type
from repro.core.maxflow import feasible_assignment, max_bipartite_flow
from repro.core.psi import OMEGA, PSI, counter_add, counter_leq
from repro.has.schema import DatabaseSchema
from repro.has.types import VALUE


@pytest.fixture
def universe(items_schema):
    return ExpressionUniverse(items_schema, {"x": VALUE, "y": VALUE})


def type_with(universe, *constraints):
    extended = empty_type(universe).extend(list(constraints))
    assert extended is not None
    return extended


class TestCounterArithmetic:
    def test_counter_leq(self):
        assert counter_leq(2, 3)
        assert counter_leq(3, OMEGA)
        assert not counter_leq(OMEGA, 3)
        assert counter_leq(OMEGA, OMEGA)

    def test_counter_add(self):
        assert counter_add(2, 1) == 3
        assert counter_add(OMEGA, -5) is OMEGA


class TestPSI:
    def test_make_drops_zero_counters(self, universe):
        tau = empty_type(universe)
        stored = type_with(universe, (NavExpr("x"), ConstExpr("a"), EQ))
        psi = PSI.make(tau, {("S", stored): 0}, {"child": False})
        assert psi.counters == ()

    def test_counter_delta(self, universe):
        tau = empty_type(universe)
        stored = type_with(universe, (NavExpr("x"), ConstExpr("a"), EQ))
        psi = PSI.make(tau, {("S", stored): 1}, {})
        increased = psi.with_counter_delta(("S", stored), 1)
        assert increased.count(("S", stored)) == 2
        decreased = increased.with_counter_delta(("S", stored), -2)
        assert decreased.count(("S", stored)) == 0
        assert decreased.with_counter_delta(("S", stored), -1) is None

    def test_omega_counters(self, universe):
        tau = empty_type(universe)
        stored = type_with(universe, (NavExpr("x"), ConstExpr("a"), EQ))
        psi = PSI.make(tau, {("S", stored): OMEGA}, {})
        assert psi.has_omega()
        assert psi.total_stored() is OMEGA
        assert psi.with_counter_delta(("S", stored), -1).count(("S", stored)) is OMEGA

    def test_children_updates(self, universe):
        psi = PSI.make(empty_type(universe), {}, {"a": False, "b": False})
        activated = psi.with_child("a", True)
        assert activated.child_active("a")
        assert not activated.child_active("b")
        assert activated.any_child_active()

    def test_equality_and_hash(self, universe):
        tau = type_with(universe, (NavExpr("x"), NavExpr("y"), EQ))
        psi1 = PSI.make(tau, {}, {"a": True})
        psi2 = PSI.make(tau, {}, {"a": True})
        assert psi1 == psi2
        assert hash(psi1) == hash(psi2)

    def test_describe_mentions_counters_and_children(self, universe):
        stored = type_with(universe, (NavExpr("x"), ConstExpr("a"), EQ))
        psi = PSI.make(empty_type(universe), {("S", stored): 2}, {"child": True})
        text = psi.describe()
        assert "S[2" in text
        assert "child" in text


class TestMaxFlow:
    def test_simple_flow(self):
        assert max_bipartite_flow([2], [2], {(0, 0)}) == 2

    def test_insufficient_capacity(self):
        assert max_bipartite_flow([3], [2], {(0, 0)}) == 2

    def test_multiple_sources_and_sinks(self):
        flow = max_bipartite_flow([1, 1], [1, 1], {(0, 0), (1, 0), (1, 1)})
        assert flow == 2

    def test_disconnected_source(self):
        assert max_bipartite_flow([1, 1], [2], {(0, 0)}) == 1

    def test_feasible_assignment_basic(self):
        assert feasible_assignment([1, 1], [2], {(0, 0), (1, 0)})
        assert not feasible_assignment([2], [1], {(0, 0)})

    def test_feasible_assignment_with_omega_capacity(self):
        assert feasible_assignment([5], [OMEGA], {(0, 0)})

    def test_omega_supply_needs_omega_sink(self):
        assert not feasible_assignment([OMEGA], [7], {(0, 0)})
        assert feasible_assignment([OMEGA], [OMEGA], {(0, 0)})

    def test_slack_requirement(self):
        assert feasible_assignment([1], [2], {(0, 0)}, require_slack=True)
        assert not feasible_assignment([2], [2], {(0, 0)}, require_slack=True)
        assert feasible_assignment([2], [OMEGA], {(0, 0)}, require_slack=True)

    def test_empty_problem(self):
        assert feasible_assignment([], [], set())
        assert feasible_assignment([], [1], set())

    @given(
        st.lists(st.integers(0, 4), min_size=1, max_size=4),
        st.lists(st.integers(0, 4), min_size=1, max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_flow_bounded_by_supply_and_capacity(self, supplies, capacities):
        edges = {(i, j) for i in range(len(supplies)) for j in range(len(capacities))}
        flow = max_bipartite_flow(supplies, capacities, edges)
        assert flow == min(sum(supplies), sum(capacities))


class TestCoverageRelations:
    def test_leq_requires_identical_tau(self, universe):
        tau1 = type_with(universe, (NavExpr("x"), ConstExpr("a"), EQ))
        tau2 = type_with(universe, (NavExpr("x"), ConstExpr("b"), EQ))
        assert covers_leq(PSI.make(tau1), PSI.make(tau1))
        assert not covers_leq(PSI.make(tau1), PSI.make(tau2))

    def test_leq_counters(self, universe):
        stored = type_with(universe, (NavExpr("x"), ConstExpr("a"), EQ))
        small = PSI.make(empty_type(universe), {("S", stored): 1})
        large = PSI.make(empty_type(universe), {("S", stored): 3})
        assert covers_leq(small, large)
        assert not covers_leq(large, small)
        omega = PSI.make(empty_type(universe), {("S", stored): OMEGA})
        assert covers_leq(large, omega)

    def test_leq_requires_same_children(self, universe):
        tau = empty_type(universe)
        assert not covers_leq(PSI.make(tau, {}, {"c": True}), PSI.make(tau, {}, {"c": False}))

    def test_preceq_allows_less_restrictive_cover(self, universe):
        restrictive = type_with(universe, (NavExpr("x"), ConstExpr("a"), EQ))
        loose = empty_type(universe)
        # The more constrained PSI is covered by the less constrained one.
        assert covers_preceq(PSI.make(restrictive), PSI.make(loose))
        assert not covers_preceq(PSI.make(loose), PSI.make(restrictive))

    def test_preceq_counter_mapping_respects_entailment(self, universe):
        """The paper's Example 23: tuples of a restrictive type map onto looser slots."""
        loose = empty_type(universe)
        tight = type_with(universe, (NavExpr("x"), NavExpr("y"), EQ))
        covered = PSI.make(empty_type(universe), {("S", loose): 2, ("S", tight): 2})
        covering = PSI.make(empty_type(universe), {("S", loose): 3, ("S", tight): 1})
        assert covers_preceq(covered, covering)
        assert not covers_preceq(covering, covered)

    def test_preceq_rejects_insufficient_capacity(self, universe):
        stored = type_with(universe, (NavExpr("x"), ConstExpr("a"), EQ))
        covered = PSI.make(empty_type(universe), {("S", stored): 3})
        covering = PSI.make(empty_type(universe), {("S", stored): 2})
        assert not covers_preceq(covered, covering)

    def test_preceq_respects_relation_names(self, universe):
        stored = type_with(universe, (NavExpr("x"), ConstExpr("a"), EQ))
        covered = PSI.make(empty_type(universe), {("S", stored): 1})
        covering = PSI.make(empty_type(universe), {("T", stored): 1})
        assert not covers_preceq(covered, covering)

    def test_preceq_plus_requires_slack_or_equality(self, universe):
        stored = empty_type(universe)
        one = PSI.make(empty_type(universe), {("S", stored): 1})
        two = PSI.make(empty_type(universe), {("S", stored): 2})
        assert covers_preceq_plus(one, two)      # slack on the covering side
        assert not covers_preceq_plus(two, one)  # insufficient capacity
        assert covers_preceq_plus(one, one)      # equality always allowed
        tight = PSI.make(type_with(universe, (NavExpr("x"), ConstExpr("a"), EQ)))
        loose = PSI.make(empty_type(universe))
        # Without any counters there is no slack, so only equality qualifies.
        assert not covers_preceq_plus(tight, loose)

    def test_leq_implies_preceq(self, universe):
        stored = type_with(universe, (NavExpr("x"), ConstExpr("a"), EQ))
        small = PSI.make(stored, {("S", stored): 1}, {"c": False})
        large = PSI.make(stored, {("S", stored): 2}, {"c": False})
        assert covers_leq(small, large)
        assert covers_preceq(small, large)
