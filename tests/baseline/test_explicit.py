"""Tests for the explicit product search shared by Spin-Opt and the concrete oracle."""

import pytest

from repro.baseline.explicit import search_product
from repro.has.builder import ArtifactSystemBuilder
from repro.has.conditions import Eq, FalseCond, TrueCond, Var
from repro.has.database import Database
from repro.has.runs import ConcreteOracle
from repro.has.services import TERMINATED_SERVICE
from repro.ltl.ltlfo import GlobalVariable, LTLFOProperty
from repro.ltl.parser import parse_ltl

# Steps are (service, valuation) pairs; the valuation decides the condition
# proposition p: True, False, or undecided when it has no "p".
P = ("s", {"p": True})
NOT_P = ("s", {"p": False})
OPEN_P = ("s", {})


def _search(formula, successors, initial=((NOT_P, 0),), max_states=100):
    """Search a system given as ``successors(state) -> [(step or None, state)]``."""
    ltl_property = LTLFOProperty("T", parse_ltl(formula), conditions={"p": TrueCond()})
    return search_product(
        ltl_property,
        list(initial),
        successors,
        lambda condition, valuation: valuation.get("p"),
        max_states,
    )


class TestSearchProduct:
    def test_lasso_steps_read_the_violating_letters(self):
        graph = {0: [(NOT_P, 1)], 1: [(P, 1)]}
        lasso, states, complete = _search("G !p", graph.get)
        assert complete and states > 0
        assert lasso.stem[0] == NOT_P
        assert lasso.loop and P in lasso.stem + lasso.loop

    def test_no_lasso_when_the_property_holds(self):
        lasso, _, complete = _search("G !p", {0: [(NOT_P, 0)]}.get)
        assert complete and lasso is None

    def test_undecided_proposition_takes_both_truth_values(self):
        graph = {0: [(OPEN_P, 0)]}
        assert _search("G !p", graph.get).lasso is not None
        assert _search("G p", graph.get, initial=[(P, 0)]).lasso is not None

    def test_service_propositions_name_the_step_service(self):
        graph = {0: [(("ship", {"p": False}), 0)]}
        assert _search("G !ship", graph.get).lasso is not None
        assert _search("G !pick", graph.get).lasso is None

    def test_silent_loop_is_not_a_lasso(self):
        # After p the automaton of ¬(G !p) accepts every letter, but state 1
        # only ever moves silently, so no run reads a letter after p.
        lasso, _, complete = _search("G !p", {0: [(P, 1)], 1: [(None, 1)]}.get)
        assert complete and lasso is None

    def test_silent_steps_are_left_out_of_the_lasso(self):
        graph = {0: [(P, 1)], 1: [(None, 2)], 2: [(NOT_P, 1)]}
        lasso, _, _ = _search("G !p", graph.get)
        assert None not in lasso.stem + lasso.loop
        assert lasso.loop == (NOT_P,)

    def test_budget_stop_is_incomplete_but_keeps_a_real_lasso(self):
        # 0 -> 1 -> 2 -> ... never ends; state 0 also has a p self-loop.
        successors = {0: [(NOT_P, 1), (P, 0)]}.get
        lasso, states, complete = _search(
            "G !p", lambda n: successors(n, [(NOT_P, n + 1)]), max_states=50
        )
        assert not complete and states > 50
        assert lasso is not None and lasso.loop[-1] == P

    def test_budget_stop_without_a_lasso(self):
        lasso, states, complete = _search("G !p", lambda n: [(NOT_P, n + 1)], max_states=50)
        assert not complete and lasso is None and states > 50


class TestConcreteOracle:
    def test_global_variables_are_rejected(self, tiny_system, items_schema):
        database = Database(items_schema, {"ITEMS": [("i1", 3, "tools")]})
        ltl_property = LTLFOProperty(
            "Main",
            parse_ltl("G p"),
            conditions={"p": Eq(Var("item"), Var("g"))},
            global_variables=[GlobalVariable("g")],
        )
        with pytest.raises(ValueError):
            ConcreteOracle(tiny_system, database).check(ltl_property, max_states=100)

    def test_closed_task_stutters(self, items_schema):
        builder = ArtifactSystemBuilder("closing", items_schema)
        builder.task("Parent").variable("y")
        builder.task("Child", parent="Parent").variable("y")
        database = Database(items_schema, {"ITEMS": [("i1", 3, "tools")]})
        lasso, _, complete = ConcreteOracle(builder.build(), database).check(
            LTLFOProperty("Child", parse_ltl("G !close_Child")), max_states=100
        )
        assert complete and lasso is not None
        services = [s.service for s in lasso.stem]
        assert services[:2] == ["open_Child", "close_Child"]
        assert set(services[2:]) <= {TERMINATED_SERVICE}
        assert [s.service for s in lasso.loop] == [TERMINATED_SERVICE]

    def test_blocked_run_yields_no_lasso(self, items_schema):
        # Child can never close, so after open_Child the root never moves again.
        builder = ArtifactSystemBuilder("blocked", items_schema)
        builder.task("Parent").variable("y")
        builder.task("Child", parent="Parent").closing(pre=FalseCond())
        database = Database(items_schema, {"ITEMS": [("i1", 3, "tools")]})
        lasso, _, complete = ConcreteOracle(builder.build(), database).check(
            LTLFOProperty("Parent", parse_ltl("false")), max_states=100
        )
        assert complete and lasso is None
