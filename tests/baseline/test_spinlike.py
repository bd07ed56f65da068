"""Tests for the Spin-like explicit-state baseline verifier."""

import sys

import pytest

from repro import Verifier, VerifierOptions
from repro.baseline import SpinLikeVerifier
from repro.baseline.explicit import find_lasso
from repro.has.conditions import Const, Eq, Neq, NULL, Var
from repro.ltl.ltlfo import LTLFOProperty
from repro.ltl.parser import parse_ltl


def prop(task, text, name=None, **conditions):
    return LTLFOProperty(task, parse_ltl(text), conditions=conditions, name=name or text)


class TestVerdicts:
    def test_false_baseline_violated(self, tiny_system):
        result = SpinLikeVerifier(tiny_system).verify(prop("Main", "false"))
        assert result.violated
        assert result.states_explored > 0

    def test_safety_violation_detected(self, tiny_system):
        result = SpinLikeVerifier(tiny_system).verify(
            prop("Main", "G p", p=Neq(Var("status"), Const("shipped")))
        )
        assert result.violated

    def test_safety_satisfied(self, tiny_system):
        result = SpinLikeVerifier(tiny_system).verify(
            prop("Main", "G p", p=Neq(Var("status"), Const("bogus")))
        )
        assert result.satisfied

    def test_service_propositions(self, tiny_system):
        result = SpinLikeVerifier(tiny_system).verify(
            LTLFOProperty("Main", parse_ltl("(!ship) U pick"), name="order")
        )
        assert result.satisfied

    def test_timeout_reports_failure(self, tiny_system):
        result = SpinLikeVerifier(tiny_system, timeout_seconds=0.0).verify(prop("Main", "false"))
        assert result.failed
        assert result.outcome == "unknown"

    def test_state_budget_reports_failure(self, tiny_system):
        result = SpinLikeVerifier(tiny_system, max_states=1).verify(prop("Main", "false"))
        assert result.failed


class TestAgreementWithSymbolicVerifier:
    """On data-independent properties both verifiers must agree."""

    PROPERTIES = [
        ("false", {}),
        ("G p", {"p": ("status", "!=", "shipped")}),
        ("G p", {"p": ("status", "!=", "bogus")}),
        ("F p", {"p": ("status", "=", "shipped")}),
        ("G (p -> F q)", {"p": ("status", "=", "picked"), "q": ("status", "=", "shipped")}),
    ]

    @staticmethod
    def _condition(spec):
        variable, op, constant = spec
        if op == "=":
            return Eq(Var(variable), Const(constant))
        return Neq(Var(variable), Const(constant))

    @pytest.mark.parametrize("text,conditions", PROPERTIES)
    def test_agree_on_tiny_system(self, tiny_system, text, conditions):
        ltl_property = LTLFOProperty(
            "Main",
            parse_ltl(text),
            conditions={k: self._condition(v) for k, v in conditions.items()},
            name=text,
        )
        symbolic = Verifier(tiny_system, VerifierOptions(max_states=20_000)).verify(ltl_property)
        baseline = SpinLikeVerifier(tiny_system, max_states=50_000).verify(ltl_property)
        assert not symbolic.unknown and not baseline.failed
        assert symbolic.violated == baseline.violated

    def test_baseline_explores_more_states_than_symbolic(self, tiny_system):
        """The explicit-state baseline enumerates concrete valuations, so its
        state count exceeds the symbolic verifier's on the same input."""
        ltl_property = prop("Main", "G p", p=Neq(Var("status"), Const("bogus")))
        symbolic = Verifier(tiny_system, VerifierOptions(max_states=20_000)).verify(ltl_property)
        baseline = SpinLikeVerifier(tiny_system, max_states=100_000).verify(ltl_property)
        assert baseline.states_explored > symbolic.stats.states_explored


class TestAcceptingCycle:
    """The lasso search keeps explicit stacks: a product graph far deeper
    than CPython's recursion limit needs no raised limit."""

    N = 20_000

    def _cycle_with_tail(self):
        # 0 -> 1 -> ... -> N-1 -> 0, entered from a tail vertex N.
        edges = {i: [(i + 1) % self.N] for i in range(self.N)}
        edges[self.N] = [0]
        return edges

    def test_accepting_vertex_on_a_long_cycle(self):
        limit = sys.getrecursionlimit()
        edges = self._cycle_with_tail()
        stem, loop = find_lasso([self.N], edges, {self.N // 2})
        assert sys.getrecursionlimit() == limit
        assert stem == [self.N] + list(range(self.N // 2 + 1))
        assert len(loop) == self.N and loop[-1] == self.N // 2
        path = stem + loop
        assert all(target in edges[source] for source, target in zip(path, path[1:]))

    def test_accepting_vertex_off_the_cycle(self):
        limit = sys.getrecursionlimit()
        assert find_lasso([self.N], self._cycle_with_tail(), {self.N}) is None
        assert sys.getrecursionlimit() == limit

    def test_unreachable_accepting_cycle_is_not_a_lasso(self):
        edges = {0: [1], 1: [], 2: [3], 3: [2]}
        assert find_lasso([0], edges, {2}) is None
        assert find_lasso([0, 2], edges, {2}) == ([2], [3, 2])
