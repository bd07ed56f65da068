"""Differential tests: symbolic verifier vs the concrete oracle.

For small specifications and small concrete databases,
:class:`repro.has.runs.ConcreteOracle` searches the product of the concrete
local runs with the Büchi automaton of the negated property.  It steps
through the concrete semantics of :mod:`repro.has.instance`: artifact
relations hold real tuples, and children run and return what they produced.
A lasso it finds is a real violating run, so:

* if the symbolic verifier reports *satisfied*, the oracle finds no lasso
  (soundness of the "satisfied" verdict);
* if the oracle finds a lasso, the verifier reports *violated*.

On the tiny system the oracle's search finishes, and it has a lasso exactly
when the verifier reports *violated*.  Every lasso a test gets is checked
independently of the search: the Büchi automaton of the negated property
accepts its letters, and the direct LTL evaluator finds the property false
on it.  The last classes pin the concrete semantics itself: a child
returns only values it can produce, a retrieved tuple is one inserted
before (so a loop that only retrieves ends), and a retrieval needs a stored
tuple.
"""

import pytest

from repro import Verifier, VerifierOptions
from repro.has.builder import ArtifactSystemBuilder
from repro.has.conditions import Const, Eq, Neq, NULL, Or, Var
from repro.has.database import Database
from repro.has.runs import ConcreteOracle
from repro.ltl.buchi import ltl_to_buchi
from repro.ltl.evaluate import evaluate_lasso
from repro.ltl.ltlfo import LTLFOProperty
from repro.ltl.parser import parse_ltl


def _letters(snapshots, ltl_property, database):
    services = ltl_property.service_propositions
    return [
        {
            proposition
            for proposition, condition in ltl_property.conditions.items()
            if condition.evaluate(snapshot.valuation, database)
        }
        | ({snapshot.service} & services)
        for snapshot in snapshots
    ]


def _check(system, database, ltl_property, max_states):
    """The oracle's answer, with its lasso (if any) checked independently."""
    result = ConcreteOracle(system, database).check(ltl_property, max_states=max_states)
    if result.lasso is not None:
        stem = _letters(result.lasso.stem, ltl_property, database)
        loop = _letters(result.lasso.loop, ltl_property, database)
        assert ltl_to_buchi(ltl_property.formula.negated()).accepts_lasso(stem, loop)
        assert evaluate_lasso(ltl_property.formula, stem, loop) is False
    return result


INVARIANTS = [
    ("status-never-shipped", Neq(Var("status"), Const("shipped"))),
    ("status-never-bogus", Neq(Var("status"), Const("bogus"))),
    ("item-known-or-unpicked", Or(Eq(Var("item"), NULL), Neq(Var("status"), NULL))),
    ("picked-implies-item", Or(Neq(Var("status"), Const("picked")), Neq(Var("item"), NULL))),
    ("always-null-item", Eq(Var("item"), NULL)),
]


class TestTinySystemDifferential:
    @pytest.fixture
    def database(self, items_schema):
        return Database(items_schema, {"ITEMS": [("i1", 3, "tools"), ("i2", 8, "toys")]})

    @pytest.mark.parametrize("name,condition", INVARIANTS)
    def test_oracle_has_a_lasso_exactly_when_violated(self, tiny_system, database, name, condition):
        verifier = Verifier(tiny_system, VerifierOptions(max_states=20_000, timeout_seconds=30))
        ltl_property = LTLFOProperty(
            "Main", parse_ltl("G p"), conditions={"p": condition}, name=name
        )
        verdict = verifier.verify(ltl_property)
        assert not verdict.unknown

        result = _check(tiny_system, database, ltl_property, max_states=1_000)
        assert result.complete
        assert (result.lasso is not None) == verdict.violated

    def test_known_violated_invariant_is_found_by_both(self, tiny_system, database):
        condition = Neq(Var("status"), Const("shipped"))
        verifier = Verifier(tiny_system, VerifierOptions(max_states=20_000))
        ltl_property = LTLFOProperty("Main", parse_ltl("G p"), conditions={"p": condition})
        assert verifier.verify(ltl_property).violated
        result = _check(tiny_system, database, ltl_property, max_states=1_000)
        assert result.complete and result.lasso is not None
        assert not all(
            condition.evaluate(snapshot.valuation, database)
            for snapshot in result.lasso.stem + result.lasso.loop
        )


class TestRelationSystemDifferential:
    RELATION_INVARIANTS = [
        ("never-done", Neq(Var("status"), Const("done"))),
        ("item-or-new", Or(Neq(Var("item"), NULL), Neq(Var("status"), Const("done")))),
        ("no-mystery-status", Or(
            Or(Eq(Var("status"), NULL), Eq(Var("status"), Const("new"))),
            Eq(Var("status"), Const("done")),
        )),
    ]

    @pytest.fixture
    def database(self, items_schema):
        return Database(items_schema, {"ITEMS": [("i1", 3, "tools")]})

    @pytest.mark.parametrize("name,condition", RELATION_INVARIANTS)
    def test_verdicts_agree_with_the_oracle(self, relation_system, database, name, condition):
        verifier = Verifier(relation_system, VerifierOptions(max_states=20_000, timeout_seconds=30))
        ltl_property = LTLFOProperty(
            "Main", parse_ltl("G p"), conditions={"p": condition}, name=name
        )
        verdict = verifier.verify(ltl_property)
        assert not verdict.unknown

        result = _check(relation_system, database, ltl_property, max_states=1_000)
        if verdict.satisfied:
            assert result.lasso is None
        if result.lasso is not None:
            assert verdict.violated


class TestServicePropositionDifferential:
    def test_service_occurrence_agrees(self, tiny_system, items_schema):
        """G(!ship) must be violated, and the oracle's lasso applies ship."""
        database = Database(items_schema, {"ITEMS": [("i1", 3, "tools")]})
        verifier = Verifier(tiny_system, VerifierOptions(max_states=20_000))
        ltl_property = LTLFOProperty("Main", parse_ltl("G (!ship)"), name="never-ship")
        assert verifier.verify(ltl_property).violated
        result = _check(tiny_system, database, ltl_property, max_states=1_000)
        assert result.complete and result.lasso is not None
        assert "ship" in [s.service for s in result.lasso.stem + result.lasso.loop]


class TestChildReturnsWhatItProduces:
    @pytest.fixture
    def system(self, items_schema):
        """Child's only service sets its output ``y`` from null to "ok"; it
        closes only when ``y = "ok"`` and returns ``y`` to Parent's ``y``."""
        builder = ArtifactSystemBuilder("child-return", items_schema)
        builder.task("Parent").variable("y")
        child = builder.task("Child", parent="Parent")
        child.variable("y", output=True)
        child.internal_service("set_ok", pre=Eq(Var("y"), NULL), post=Eq(Var("y"), Const("ok")))
        child.closing(pre=Eq(Var("y"), Const("ok")))
        return builder.build()

    @pytest.fixture
    def database(self, items_schema):
        return Database(items_schema, {"ITEMS": [("i1", 3, "tools")]})

    def test_parent_sees_only_returned_values(self, system, database):
        ltl_property = LTLFOProperty(
            "Parent",
            parse_ltl("G p"),
            conditions={"p": Or(Eq(Var("y"), NULL), Eq(Var("y"), Const("ok")))},
        )
        result = _check(system, database, ltl_property, max_states=1_000)
        assert result.complete and result.lasso is None

    def test_returned_value_is_the_one_the_child_produced(self, system, database):
        ltl_property = LTLFOProperty(
            "Parent", parse_ltl("G p"), conditions={"p": Eq(Var("y"), NULL)}
        )
        result = _check(system, database, ltl_property, max_states=1_000)
        assert result.lasso is not None
        closings = [
            snapshot
            for snapshot in result.lasso.stem + result.lasso.loop
            if snapshot.service == "close_Child"
        ]
        assert closings and all(snapshot.valuation["y"] == "ok" for snapshot in closings)


class TestRetrievalsAreBoundedByInserts:
    """The oracle's side of the coverage-graph cycle repro: ``ret`` only
    retrieves from ``S``, and only ``ins1`` and ``ins2`` insert, once each,
    so ``ret`` fires at most twice on any run.  The oracle's search is
    complete and finds no lasso; the verifier's verdicts on these
    properties are not asserted here."""

    @pytest.fixture
    def system(self, items_schema):
        builder = ArtifactSystemBuilder("cycle-repro", items_schema)
        task = builder.task("Main")
        task.variable("status")
        task.variable("x")
        task.artifact_relation("S", ["x"])
        task.internal_service(
            "ins1", pre=Eq(Var("status"), NULL), post=Eq(Var("status"), Const("b")),
            insert=("S", ["x"]),
        )
        task.internal_service(
            "ins2", pre=Eq(Var("status"), Const("b")), post=Eq(Var("status"), Const("a")),
            insert=("S", ["x"]),
        )
        task.internal_service(
            "ret", pre=Eq(Var("status"), Const("a")), post=Eq(Var("status"), Const("a")),
            retrieve=("S", ["x"]),
        )
        return builder.build()

    @pytest.mark.parametrize("formula", ["F G !ret", "G (ret -> X G (ret -> X G !ret))"])
    def test_the_oracle_finds_no_run_that_retrieves_forever(self, system, items_schema, formula):
        database = Database(items_schema, {"ITEMS": [("i1", 3, "tools")]})
        ltl_property = LTLFOProperty("Main", parse_ltl(formula))
        result = _check(system, database, ltl_property, max_states=20_000)
        assert result.complete and result.lasso is None


class TestRetrievalNeedsAStoredTuple:
    def test_no_run_grabs_before_it_stashes(self, relation_system, items_schema):
        database = Database(items_schema, {"ITEMS": [("i1", 3, "tools")]})
        ltl_property = LTLFOProperty("Main", parse_ltl("(!grab U stash) | G (!grab)"))
        result = _check(relation_system, database, ltl_property, max_states=1_000)
        assert result.complete and result.lasso is None
