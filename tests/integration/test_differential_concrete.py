"""Differential tests: symbolic verifier vs sampled concrete runs.

For small specifications and small concrete databases we sample random
concrete local runs with :class:`repro.has.runs.ConcreteRunner`, which steps
through the concrete semantics of :mod:`repro.has.instance` (artifact
relations hold real tuples, children run and return what they produced).
We evaluate safety invariants on every sampled prefix and check the two
directions:

* if the symbolic verifier reports *satisfied*, no sampled concrete prefix may
  violate the invariant (soundness of the "satisfied" verdict);
* if some sampled prefix violates the invariant, the verifier must report
  *violated* (the sample is a genuine witness).

Only pure safety invariants (``G condition``) are used: a violation of such a
property is witnessed by a finite prefix, and in the chosen specifications
every reachable configuration has an applicable service, so every sampled
prefix extends to a valid infinite run.

Seeds derive from the case name with ``zlib.crc32``, so every process samples
the same runs whatever ``PYTHONHASHSEED`` is.  The last two classes pin the
concrete semantics itself: a child returns only values it can produce, and a
retrieval needs a stored tuple.
"""

import random
import zlib

import pytest

from repro import Verifier, VerifierOptions
from repro.has.builder import ArtifactSystemBuilder
from repro.has.conditions import And, Condition, Const, Eq, Neq, NULL, Or, Var
from repro.has.database import Database
from repro.has.runs import ConcreteRunner
from repro.ltl.ltlfo import LTLFOProperty
from repro.ltl.parser import parse_ltl


def _invariant_holds_on_run(run, condition: Condition, database) -> bool:
    return all(condition.evaluate(snapshot.valuation, database) for snapshot in run.snapshots)


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
    def test_safety_verdicts_agree_with_sampled_runs(self, tiny_system, database, name, condition):
        verifier = Verifier(tiny_system, VerifierOptions(max_states=20_000, timeout_seconds=30))
        ltl_property = LTLFOProperty(
            "Main", parse_ltl("G p"), conditions={"p": condition}, name=name
        )
        verdict = verifier.verify(ltl_property)
        assert not verdict.unknown

        runner = ConcreteRunner(tiny_system, database)
        rng = random.Random(zlib.crc32(name.encode()))
        sampled_violation = False
        for _ in range(60):
            run = runner.random_local_run(rng, max_length=10)
            if run.snapshots and not _invariant_holds_on_run(run, condition, database):
                sampled_violation = True
                break
        if verdict.satisfied:
            assert not sampled_violation, (
                f"verifier claims {name} holds but a concrete run violates it"
            )
        if sampled_violation:
            assert verdict.violated

    def test_known_violated_invariant_is_found_by_both(self, tiny_system, database):
        condition = Neq(Var("status"), Const("shipped"))
        verifier = Verifier(tiny_system, VerifierOptions(max_states=20_000))
        ltl_property = LTLFOProperty("Main", parse_ltl("G p"), conditions={"p": condition})
        assert verifier.verify(ltl_property).violated
        runner = ConcreteRunner(tiny_system, database)
        rng = random.Random(0)
        assert any(
            not _invariant_holds_on_run(runner.random_local_run(rng, max_length=10), condition, database)
            for _ in range(100)
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
    def test_safety_verdicts_agree_with_sampled_runs(self, relation_system, database, name, condition):
        verifier = Verifier(relation_system, VerifierOptions(max_states=20_000, timeout_seconds=30))
        ltl_property = LTLFOProperty(
            "Main", parse_ltl("G p"), conditions={"p": condition}, name=name
        )
        verdict = verifier.verify(ltl_property)
        assert not verdict.unknown

        runner = ConcreteRunner(relation_system, database)
        rng = random.Random(zlib.crc32(name.encode()))
        sampled_violation = any(
            not _invariant_holds_on_run(run, condition, database)
            for run in (runner.random_local_run(rng, max_length=8) for _ in range(60))
            if run.snapshots
        )
        if verdict.satisfied:
            assert not sampled_violation
        if sampled_violation:
            assert verdict.violated


class TestServicePropositionDifferential:
    def test_service_occurrence_agrees(self, tiny_system, items_schema):
        """G(!ship) must be violated, and sampled runs do apply ship."""
        database = Database(items_schema, {"ITEMS": [("i1", 3, "tools")]})
        verifier = Verifier(tiny_system, VerifierOptions(max_states=20_000))
        ltl_property = LTLFOProperty("Main", parse_ltl("G (!ship)"), name="never-ship")
        assert verifier.verify(ltl_property).violated
        runner = ConcreteRunner(tiny_system, database)
        rng = random.Random(3)
        assert any(
            "ship" in runner.random_local_run(rng, max_length=10).services()
            for _ in range(100)
        )


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

    def test_parent_sees_only_returned_values(self, system, items_schema):
        database = Database(items_schema, {"ITEMS": [("i1", 3, "tools")]})
        runner = ConcreteRunner(system, database)
        rng = random.Random(zlib.crc32(b"child-return"))
        runs = [runner.random_local_run(rng, max_length=10) for _ in range(200)]
        values = {snapshot.value("y") for run in runs for snapshot in run.snapshots}
        assert values == {None, "ok"}
        assert all(
            snapshot.value("y") == "ok"
            for run in runs
            for snapshot in run.snapshots
            if snapshot.service == "close_Child"
        )


class TestRetrievalNeedsAStoredTuple:
    def test_no_prefix_grabs_more_than_it_stashed(self, relation_system, items_schema):
        database = Database(items_schema, {"ITEMS": [("i1", 3, "tools")]})
        runner = ConcreteRunner(relation_system, database)
        rng = random.Random(zlib.crc32(b"stash-grab"))
        grabs = 0
        for _ in range(200):
            stored = 0
            for service in runner.random_local_run(rng, max_length=10).services():
                stored += {"stash": 1, "grab": -1}.get(service, 0)
                grabs += service == "grab"
                assert stored >= 0
        assert grabs > 0
