"""Tests for the constraint-graph static analysis (Section 3.7)."""

import itertools
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.expressions import ConstExpr, ExpressionUniverse, NavExpr
from repro.core.flatten import flatten_condition
from repro.core.isotypes import EQ, NEQ
from repro.core.static_analysis import ConstraintFilter, ConstraintGraph, _edge
from repro.has.conditions import And, Const, Eq, Neq, NULL, Or, RelationAtom, Var
from repro.has.schema import DatabaseSchema
from repro.has.types import IdType, VALUE


class TestConstraintGraphBasics:
    def test_paper_example_25_nonviolating_neq(self):
        """Figure 8 (left): (e3, e5) is a non-violating ≠-edge."""
        graph = ConstraintGraph()
        expressions = {name: NavExpr(name) for name in "e1 e2 e3 e4 e5 e6 e7".split()}
        for a, b in [("e1", "e2"), ("e2", "e3"), ("e3", "e4"), ("e4", "e1"), ("e5", "e6"), ("e6", "e7")]:
            graph.add_constraint(expressions[a], expressions[b], EQ)
        graph.add_constraint(expressions["e3"], expressions["e5"], NEQ)
        assert _edge("e3", "e5") in graph.non_violating_neq_edges()

    def test_paper_example_25_nonviolating_eq(self):
        """Figure 8 (right): (e3, e5) is a non-violating =-edge."""
        graph = ConstraintGraph()
        expressions = {name: NavExpr(name) for name in "e1 e2 e3 e4 e5 e6 e7".split()}
        for a, b in [("e1", "e2"), ("e2", "e3"), ("e3", "e4"), ("e4", "e1"),
                     ("e5", "e6"), ("e6", "e7"), ("e3", "e5")]:
            graph.add_constraint(expressions[a], expressions[b], EQ)
        graph.add_constraint(expressions["e2"], expressions["e3"], NEQ)
        graph.add_constraint(expressions["e5"], expressions["e6"], NEQ)
        assert _edge("e3", "e5") in graph.non_violating_eq_edges()
        # Edges on the e2--e3 cycle are violating (they lie on simple paths
        # between the endpoints of the ≠-edge (e2, e3)).
        assert _edge("e2", "e3") in graph.violating_eq_edges()
        assert _edge("e1", "e2") in graph.violating_eq_edges()

    def test_violating_neq_edge_within_component(self):
        graph = ConstraintGraph()
        a, b, c = NavExpr("a"), NavExpr("b"), NavExpr("c")
        graph.add_constraint(a, b, EQ)
        graph.add_constraint(b, c, EQ)
        graph.add_constraint(a, c, NEQ)
        assert _edge("a", "c") not in graph.non_violating_neq_edges()

    def test_constants_are_conflict_pairs(self):
        graph = ConstraintGraph()
        x = NavExpr("x")
        graph.add_constraint(x, ConstExpr("A"), EQ)
        graph.add_constraint(x, ConstExpr("B"), EQ)
        # Both edges lie on the path connecting the two distinct constants.
        assert graph.non_violating_eq_edges() == set()

    def test_isolated_equality_is_nonviolating(self):
        graph = ConstraintGraph()
        graph.add_constraint(NavExpr("x"), NavExpr("y"), EQ)
        assert _edge("x", "y") in graph.non_violating_eq_edges()


def _brute_force_violating_eq_edges(eq_edges, conflict_pairs):
    """Edges lying on some simple path between a conflict pair (exponential check)."""
    nodes = {n for e in eq_edges for n in e}
    adjacency = {n: set() for n in nodes}
    for e in eq_edges:
        a, b = tuple(e)
        adjacency[a].add(b)
        adjacency[b].add(a)

    def simple_paths(source, target):
        stack = [(source, [source])]
        while stack:
            node, path = stack.pop()
            if node == target:
                yield path
                continue
            for neighbour in adjacency[node]:
                if neighbour not in path:
                    stack.append((neighbour, path + [neighbour]))

    violating = set()
    for pair in conflict_pairs:
        u, v = tuple(pair)
        if u not in nodes or v not in nodes:
            continue
        for path in simple_paths(u, v):
            for a, b in zip(path, path[1:]):
                violating.add(frozenset((a, b)))
    return violating & set(eq_edges)


class TestDifferentialAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(40))
    def test_violating_eq_edges_match_brute_force(self, seed):
        rng = random.Random(seed)
        node_names = [f"n{i}" for i in range(rng.randrange(3, 7))]
        graph = ConstraintGraph()
        eq_edges = set()
        for _ in range(rng.randrange(2, 9)):
            a, b = rng.sample(node_names, 2)
            graph.add_constraint(NavExpr(a), NavExpr(b), EQ)
            eq_edges.add(_edge(a, b))
        for _ in range(rng.randrange(0, 3)):
            a, b = rng.sample(node_names, 2)
            if _edge(a, b) not in eq_edges:
                graph.add_constraint(NavExpr(a), NavExpr(b), NEQ)
        expected = _brute_force_violating_eq_edges(graph.eq_edges, graph.conflict_pairs())
        assert graph.violating_eq_edges() == expected


class TestLongChains:
    """Tarjan's blocks keep an explicit stack: an =-chain far longer than
    CPython's recursion limit needs no raised limit."""

    N = 20_000

    def _chain(self):
        graph = ConstraintGraph()
        for i in range(self.N - 1):
            graph.add_constraint(NavExpr(f"n{i}"), NavExpr(f"n{i + 1}"), EQ)
        return graph

    def test_chain_between_a_conflict_is_violating(self):
        graph = self._chain()
        graph.add_constraint(NavExpr("n0"), NavExpr(f"n{self.N - 1}"), NEQ)
        limit = sys.getrecursionlimit()
        blocks, _ = graph._block_cut_structure()
        assert len(blocks) == self.N - 1  # every edge of a path is its own block
        assert graph.violating_eq_edges() == graph.eq_edges
        assert sys.getrecursionlimit() == limit

    def test_chain_without_a_conflict_is_non_violating(self):
        graph = self._chain()
        limit = sys.getrecursionlimit()
        assert graph.non_violating_eq_edges() == graph.eq_edges
        assert sys.getrecursionlimit() == limit


class TestConstraintFilter:
    @pytest.fixture
    def universe(self, navigation_schema):
        return ExpressionUniverse(
            navigation_schema, {"cust": IdType("CUSTOMERS"), "v": VALUE, "w": VALUE}
        )

    def test_filter_drops_only_safe_constraints(self, universe, navigation_schema):
        # v = w never conflicts with anything; v = "A" conflicts with v = "B".
        conditions = [
            Eq(Var("v"), Var("w")),
            Eq(Var("v"), Const("A")),
            Eq(Var("v"), Const("B")),
        ]
        conjunctions = []
        for condition in conditions:
            conjunctions.extend(flatten_condition(condition, universe, navigation_schema))
        filter_ = ConstraintFilter.from_conditions(universe, conjunctions, enabled=True)
        assert filter_.is_droppable((NavExpr("v"), NavExpr("w"), EQ))
        assert not filter_.is_droppable((NavExpr("v"), ConstExpr("A"), EQ))
        assert filter_.dropped_edge_count >= 1

    def test_disabled_filter_keeps_everything(self, universe, navigation_schema):
        conjunctions = flatten_condition(Eq(Var("v"), Var("w")), universe, navigation_schema)
        filter_ = ConstraintFilter.from_conditions(universe, conjunctions, enabled=False)
        assert not filter_.is_droppable((NavExpr("v"), NavExpr("w"), EQ))
        assert filter_.filter_constraints([(NavExpr("v"), NavExpr("w"), EQ)]) == [
            (NavExpr("v"), NavExpr("w"), EQ)
        ]

    def test_congruence_derived_conflicts_block_dropping(self, universe, navigation_schema):
        # cust = cust2 would derive cust.record.status = cust2.record.status;
        # if the derived expressions are constrained by distinct constants the
        # root equality must not be dropped.
        universe2 = ExpressionUniverse(
            navigation_schema,
            {"cust": IdType("CUSTOMERS"), "cust2": IdType("CUSTOMERS")},
        )
        conjunctions = flatten_condition(Eq(Var("cust"), Var("cust2")), universe2, navigation_schema)
        # Add constraints pinning the derived navigation expressions to
        # distinct constants.
        conjunctions.append(
            [(NavExpr("cust", ("record", "status")), ConstExpr("Good"), EQ)]
        )
        conjunctions.append(
            [(NavExpr("cust2", ("record", "status")), ConstExpr("Bad"), EQ)]
        )
        filter_ = ConstraintFilter.from_conditions(universe2, conjunctions, enabled=True)
        assert not filter_.is_droppable((NavExpr("cust"), NavExpr("cust2"), EQ))

    def test_filter_preserves_verification_verdicts(self, tiny_system):
        """Switching SA on/off must not change any verdict on the tiny system."""
        from repro import Verifier, VerifierOptions
        from repro.benchmark.properties import generate_properties

        properties = generate_properties(tiny_system, seed=3)
        with_sa = Verifier(tiny_system, VerifierOptions(static_analysis=True, max_states=5000))
        without_sa = Verifier(tiny_system, VerifierOptions(static_analysis=False, max_states=5000))
        for ltl_property in properties:
            assert (
                with_sa.verify(ltl_property).outcome
                == without_sa.verify(ltl_property).outcome
            )
