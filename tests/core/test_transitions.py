"""Unit tests for the symbolic transition system (Section 3.2 / Appendix A)."""

import pytest

from repro.core.expressions import ConstExpr, NavExpr
from repro.core.psi import PSI
from repro.core.transitions import CLOSED_MARKER, SymbolicTransitionSystem
from repro.has.builder import ArtifactSystemBuilder
from repro.has.conditions import And, Const, Eq, Neq, NULL, Or, Var
from repro.has.schema import DatabaseSchema
from repro.has.services import TERMINATED_SERVICE
from repro.ltl.ltlfo import GlobalVariable, LTLFOProperty
from repro.ltl.parser import parse_ltl
from repro.has.types import IdType


def _sts(system, task=None, ltl_property=None, **switches):
    return SymbolicTransitionSystem(system, task or system.root, ltl_property, **switches)


class TestInitialMoves:
    def test_root_starts_all_null(self, tiny_system):
        sts = _sts(tiny_system)
        moves = sts.initial_moves()
        assert len(moves) == 1
        tau = moves[0].psi.tau
        assert tau.same_class(NavExpr("item"), ConstExpr(None))
        assert tau.same_class(NavExpr("status"), ConstExpr(None))
        assert moves[0].service == "open_Main"

    def test_initial_children_inactive_and_not_closed(self, tiny_system):
        sts = _sts(tiny_system)
        psi = sts.initial_moves()[0].psi
        assert not psi.any_child_active() or psi.child_map() == {CLOSED_MARKER: False}
        assert not psi.child_active(CLOSED_MARKER)

    def test_global_precondition_respected(self, items_schema):
        builder = ArtifactSystemBuilder(
            "guarded", items_schema, global_precondition=Eq(Var("status"), Const("boot"))
        )
        task = builder.task("Main")
        task.variable("status")
        task.internal_service("noop")
        system = builder.build()
        moves = _sts(system).initial_moves()
        assert len(moves) == 1
        assert moves[0].psi.tau.same_class(NavExpr("status"), ConstExpr("boot"))


class TestInternalServices:
    def test_pre_condition_guards_applicability(self, tiny_system):
        sts = _sts(tiny_system)
        initial = sts.initial_moves()[0].psi
        services = {move.service for move in sts.successors(initial)}
        # Only `pick` is applicable from the all-null state (plus nothing else).
        assert "pick" in services
        assert "ship" not in services
        assert "reset" not in services

    def test_post_condition_constrains_successor(self, tiny_system):
        sts = _sts(tiny_system)
        initial = sts.initial_moves()[0].psi
        [pick] = [move for move in sts.successors(initial) if move.service == "pick"]
        assert pick.psi.tau.same_class(NavExpr("status"), ConstExpr("picked"))
        assert pick.psi.tau.known_distinct(NavExpr("item"), ConstExpr(None))

    def test_propagation_projects_away_unpropagated(self, tiny_system):
        sts = _sts(tiny_system)
        initial = sts.initial_moves()[0].psi
        [pick] = [m for m in sts.successors(initial) if m.service == "pick"]
        [ship] = [m for m in sts.successors(pick.psi) if m.service == "ship"]
        # `ship` does not propagate `item`, so the item != null constraint is gone.
        assert not ship.psi.tau.known_distinct(NavExpr("item"), ConstExpr(None))
        assert ship.psi.tau.same_class(NavExpr("status"), ConstExpr("shipped"))


class TestArtifactRelations:
    def test_insert_increments_counter(self, relation_system):
        sts = _sts(relation_system)
        initial = sts.initial_moves()[0].psi
        [create] = [m for m in sts.successors(initial) if m.service == "create"]
        [stash] = [m for m in sts.successors(create.psi) if m.service == "stash"]
        assert sum(value for _k, value in stash.psi.counters) == 1
        [(key, _value)] = list(stash.psi.counters)
        assert key[0] == "POOL"

    def test_retrieve_decrements_counter_and_restores_constraints(self, relation_system):
        sts = _sts(relation_system)
        initial = sts.initial_moves()[0].psi
        [create] = [m for m in sts.successors(initial) if m.service == "create"]
        [stash] = [m for m in sts.successors(create.psi) if m.service == "stash"]
        grabs = [m for m in sts.successors(stash.psi) if m.service == "grab"]
        assert grabs, "retrieval must be possible when the relation is non-empty"
        grabbed = grabs[0].psi
        # The retrieved tuple is removed (zero counters are dropped from the PSI).
        assert grabbed.counters == ()
        # The stored tuple's constraints are restored onto the variables.
        assert grabbed.tau.same_class(NavExpr("status"), ConstExpr("new"))

    def test_retrieve_impossible_when_empty(self, relation_system):
        sts = _sts(relation_system)
        initial = sts.initial_moves()[0].psi
        services = {m.service for m in sts.successors(initial)}
        assert "grab" not in services

    def test_no_set_option_ignores_relations(self, relation_system):
        sts = _sts(relation_system, use_artifact_relations=False)
        initial = sts.initial_moves()[0].psi
        [create] = [m for m in sts.successors(initial) if m.service == "create"]
        [stash] = [m for m in sts.successors(create.psi) if m.service == "stash"]
        assert stash.psi.counters == ()


class TestChildrenAndClosing:
    @pytest.fixture
    def parent_child_system(self, items_schema):
        builder = ArtifactSystemBuilder("pc", items_schema)
        parent = builder.task("Parent")
        parent.id_variable("item", "ITEMS")
        parent.variable("phase")
        parent.internal_service(
            "start", pre=Eq(Var("phase"), NULL), post=Eq(Var("phase"), Const("ready"))
        )
        child = builder.task("Child", parent="Parent")
        child.id_variable("item", "ITEMS", input=True)
        child.variable("phase", output=True)
        child.opening(pre=Eq(Var("phase"), Const("ready")), input_map={"item": "item"})
        child.closing(pre=Eq(Var("phase"), Const("done")), output_map={"phase": "phase"})
        child.internal_service("work", post=Eq(Var("phase"), Const("done")), propagated=["item"])
        return builder.build()

    def test_child_opening_guard(self, parent_child_system):
        sts = _sts(parent_child_system, task="Parent")
        initial = sts.initial_moves()[0].psi
        # Before `start`, the opening guard phase = "ready" is satisfiable only
        # by extension -- but phase = null contradicts it, so no opening.
        services = {m.service for m in sts.successors(initial)}
        assert "open_Child" not in services
        [start] = [m for m in sts.successors(initial) if m.service == "start"]
        services_after = {m.service for m in sts.successors(start.psi)}
        assert "open_Child" in services_after

    def test_internal_services_blocked_while_child_active(self, parent_child_system):
        sts = _sts(parent_child_system, task="Parent")
        initial = sts.initial_moves()[0].psi
        [start] = [m for m in sts.successors(initial) if m.service == "start"]
        [opened] = [m for m in sts.successors(start.psi) if m.service == "open_Child"]
        assert opened.psi.child_active("Child")
        services = {m.service for m in sts.successors(opened.psi)}
        assert "start" not in services
        assert "close_Child" in services

    def test_child_closing_overwrites_returned_variables(self, parent_child_system):
        sts = _sts(parent_child_system, task="Parent")
        initial = sts.initial_moves()[0].psi
        [start] = [m for m in sts.successors(initial) if m.service == "start"]
        [opened] = [m for m in sts.successors(start.psi) if m.service == "open_Child"]
        [closed] = [m for m in sts.successors(opened.psi) if m.service == "close_Child"]
        assert not closed.psi.child_active("Child")
        # The returned variable `phase` is overwritten: its old constraint is gone.
        assert not closed.psi.tau.same_class(NavExpr("phase"), ConstExpr("ready"))

    def test_own_closing_and_terminal_stutter(self, items_schema):
        builder = ArtifactSystemBuilder("closable", items_schema)
        root = builder.task("Root")
        root.variable("phase")
        root.internal_service("go", post=Eq(Var("phase"), Const("done")))
        root.closing(pre=Eq(Var("phase"), Const("done")))
        system = builder.build()
        sts = _sts(system)
        initial = sts.initial_moves()[0].psi
        [go] = [m for m in sts.successors(initial) if m.service == "go"]
        closing = [m for m in sts.successors(go.psi) if m.service == "close_Root"]
        assert closing
        closed_psi = closing[0].psi
        assert closed_psi.child_active(CLOSED_MARKER)
        stutter = sts.successors(closed_psi)
        assert [m.service for m in stutter] == [TERMINATED_SERVICE]
        assert stutter[0].psi == closed_psi


class TestGlobalVariables:
    def test_global_variables_join_the_universe_and_survive_projection(self, tiny_system):
        ltl_property = LTLFOProperty(
            "Main",
            parse_ltl("G p"),
            conditions={"p": Eq(Var("item"), Var("g"))},
            global_variables=[GlobalVariable("g", IdType("ITEMS"))],
        )
        sts = _sts(tiny_system, ltl_property=ltl_property)
        assert sts.universe.has_root("g")
        initial = sts.initial_moves()[0].psi
        constrained = initial.tau.extend([(NavExpr("g"), ConstExpr(None), "!=")])
        psi = initial.with_tau(constrained)
        # `pick` propagates nothing, yet the global variable constraint survives.
        [pick] = [m for m in sts.successors(psi) if m.service == "pick"]
        assert pick.psi.tau.known_distinct(NavExpr("g"), ConstExpr(None))

    def test_global_variable_name_clash_rejected(self, tiny_system):
        ltl_property = LTLFOProperty(
            "Main",
            parse_ltl("G p"),
            conditions={"p": Eq(Var("item"), Var("item"))},
            global_variables=[GlobalVariable("item", IdType("ITEMS"))],
        )
        with pytest.raises(ValueError):
            _sts(tiny_system, ltl_property=ltl_property)
