"""Unit tests for :mod:`repro.analysis.dataflow`.

The facts under test back the lint diagnostics: the constant environment
(must hold in every reachable symbolic state), the dead-service /
dead-opening sets (must imply zero symbolic moves) and the informational
summaries (footprints, at-most-once, mutual exclusion, write-only
variables) surfaced as VA302/VA504.
"""

from __future__ import annotations

from repro.analysis import analyze_system
from repro.analysis.dataflow import compute_dataflow_facts
from repro.analysis.satisfiability import (
    analyse_disjunct,
    binding_literals,
    statically_unsatisfiable_under,
)
from repro.has.builder import ArtifactSystemBuilder
from repro.has.conditions import And, Const, Eq, NULL, Neq, Or, RelationAtom, Var
from repro.has.schema import DatabaseSchema


def _schema():
    return DatabaseSchema.from_dict({"ITEMS": {"price": None}})


def _pinned_system(mode_value="basic"):
    """Root with mode pinned by Π; one live service, one premium-only
    service and one premium-only child (both dead under propagation)."""
    pre = And(
        And(Eq(Var("item"), NULL), Eq(Var("status"), NULL)),
        Eq(Var("mode"), Const(mode_value)),
    )
    builder = ArtifactSystemBuilder("pinned", _schema(), global_precondition=pre)
    root = builder.task("Main")
    root.id_variable("item", "ITEMS")
    root.variable("status")
    root.variable("mode")
    root.internal_service(
        "go",
        pre=Eq(Var("status"), NULL),
        post=Eq(Var("status"), Const("done")),
        propagated=["mode"],
    )
    root.internal_service(
        "premium_only",
        pre=Eq(Var("mode"), Const("premium")),
        post=Eq(Var("status"), Const("p")),
        propagated=["mode"],
    )
    child = builder.task("Premium", parent="Main")
    child.variable("cs")
    child.internal_service(
        "cgo", pre=Eq(Var("cs"), NULL), post=Eq(Var("cs"), Const("x"))
    )
    child.opening(pre=Eq(Var("mode"), Const("premium")))
    return builder.build()


# ----------------------------------------------------------- satisfiability


class TestSatisfiabilityHelpers:
    def test_analyse_disjunct_congruence_forces_bindings(self):
        literals = [Eq(Var("x"), Var("y")), Eq(Var("y"), Const("a"))]
        assert analyse_disjunct(literals) == {"x": "a", "y": "a"}

    def test_analyse_disjunct_detects_constant_clash(self):
        literals = [
            Eq(Var("x"), Var("y")),
            Eq(Var("x"), Const("a")),
            Eq(Var("y"), Const("b")),
        ]
        assert analyse_disjunct(literals) is None

    def test_analyse_disjunct_detects_neq_in_class(self):
        literals = [Eq(Var("x"), Var("y")), Neq(Var("y"), Var("x"))]
        assert analyse_disjunct(literals) is None

    def test_binding_literals_are_name_sorted(self):
        literals = binding_literals({"b": 1, "a": 2})
        assert [l.left.name for l in literals] == ["a", "b"]

    def test_unsatisfiable_under_bindings(self):
        condition = Eq(Var("mode"), Const("premium"))
        assert statically_unsatisfiable_under(condition, {"mode": "basic"})
        assert not statically_unsatisfiable_under(condition, {"mode": "premium"})
        assert not statically_unsatisfiable_under(condition, {})

    def test_unsatisfiable_under_uses_congruence_through_variables(self):
        condition = And(Eq(Var("x"), Var("mode")), Eq(Var("x"), Const("premium")))
        assert statically_unsatisfiable_under(condition, {"mode": "basic"})

    def test_disjunction_needs_every_disjunct_dead(self):
        condition = Or(
            Eq(Var("mode"), Const("premium")), Eq(Var("mode"), Const("basic"))
        )
        assert not statically_unsatisfiable_under(condition, {"mode": "basic"})


# ----------------------------------------------------- environment fixpoint


class TestConstantEnvironment:
    def test_root_env_seeded_from_global_precondition(self):
        facts = compute_dataflow_facts(_pinned_system())
        env = facts.for_task("Main").constant_env
        # mode survives (propagated by every live service); status is
        # overwritten by 'go'; item is havocked (not propagated).
        assert env == {"mode": "basic"}

    def test_non_propagated_variable_repinned_by_every_writer_survives(self):
        pre = And(Eq(Var("status"), NULL), Eq(Var("flag"), Const("on")))
        builder = ArtifactSystemBuilder("repin", _schema(), global_precondition=pre)
        root = builder.task("Main")
        root.variable("status")
        root.variable("flag")
        # flag is not propagated, but the post forces it back to "on".
        root.internal_service(
            "go",
            pre=Eq(Var("status"), NULL),
            post=And(Eq(Var("status"), Const("done")), Eq(Var("flag"), Const("on"))),
        )
        facts = compute_dataflow_facts(builder.build())
        assert facts.for_task("Main").constant_env == {"flag": "on"}

    def test_child_output_targets_are_demoted(self):
        pre = And(Eq(Var("status"), NULL), Eq(Var("result"), NULL))
        builder = ArtifactSystemBuilder("demote", _schema(), global_precondition=pre)
        root = builder.task("Main")
        root.variable("status")
        root.variable("result")
        child = builder.task("Child", parent="Main")
        child.variable("out", output=True)
        child.opening(pre=Eq(Var("status"), NULL))
        child.closing(pre=Eq(Var("out"), Const("x")), output_map={"out": "result"})
        facts = compute_dataflow_facts(builder.build())
        env = facts.for_task("Main").constant_env
        assert "result" not in env
        assert env["status"] is None

    def test_non_root_env_nulls_non_input_variables(self):
        system = _pinned_system()
        env = compute_dataflow_facts(system).for_task("Premium").constant_env
        # cs is nulled at opening but overwritten by cgo, so it is demoted.
        assert env == {}


# --------------------------------------------------------------- dead sets


class TestDeadServices:
    def test_env_dead_service_and_child_detected(self):
        facts = compute_dataflow_facts(_pinned_system("basic"))
        main = facts.for_task("Main")
        assert main.dead_services == ("premium_only",)
        assert main.dead_child_openings == ("Premium",)

    def test_nothing_dead_when_the_pin_matches(self):
        facts = compute_dataflow_facts(_pinned_system("premium"))
        main = facts.for_task("Main")
        assert main.dead_services == ()
        assert main.dead_child_openings == ()

    def test_post_dead_service_detected(self):
        # The pre is satisfiable, but the post contradicts a *propagated*
        # environment binding, so the service still yields zero moves.
        pre = And(Eq(Var("status"), NULL), Eq(Var("mode"), Const("basic")))
        builder = ArtifactSystemBuilder("postdead", _schema(), global_precondition=pre)
        root = builder.task("Main")
        root.variable("status")
        root.variable("mode")
        root.internal_service(
            "impossible",
            pre=Eq(Var("status"), NULL),
            post=Eq(Var("mode"), Const("premium")),
            propagated=["mode"],
        )
        facts = compute_dataflow_facts(builder.build())
        assert facts.for_task("Main").dead_services == ("impossible",)


class TestEnablementSummaries:
    def test_at_most_once_for_consuming_service(self):
        system = _pinned_system()
        main = compute_dataflow_facts(system).for_task("Main")
        # 'go' requires status=null and moves it to "done"; no other live
        # service (and no live child) can restore null.
        assert "go" in main.at_most_once_services

    def test_mutually_exclusive_pairs(self):
        pre = Eq(Var("status"), NULL)
        builder = ArtifactSystemBuilder("mutex", _schema(), global_precondition=pre)
        root = builder.task("Main")
        root.variable("status")
        root.internal_service(
            "start",
            pre=Eq(Var("status"), NULL),
            post=Or(Eq(Var("status"), Const("x")), Eq(Var("status"), Const("y"))),
        )
        root.internal_service(
            "a", pre=Eq(Var("status"), Const("x")), post=Eq(Var("status"), NULL)
        )
        root.internal_service(
            "b", pre=Eq(Var("status"), Const("y")), post=Eq(Var("status"), NULL)
        )
        facts = compute_dataflow_facts(builder.build())
        main = facts.for_task("Main")
        assert main.dead_services == ()
        assert ("a", "b") in main.mutually_exclusive

    def test_footprints(self):
        system = _pinned_system()
        main = compute_dataflow_facts(system).for_task("Main")
        by_name = {f.service: f for f in main.footprints}
        assert by_name["go"].must_read == ("status",)
        # Everything not propagated may be havocked.
        assert by_name["go"].may_write == ("item", "status")


# ------------------------------------------------- write-only (VA504 facts)


class TestWrittenNeverRead:
    def test_constant_store_never_read_is_flagged(self):
        pre = And(Eq(Var("status"), NULL), Eq(Var("log"), NULL))
        builder = ArtifactSystemBuilder("deadstore", _schema(), global_precondition=pre)
        root = builder.task("Main")
        root.variable("status")
        root.variable("log")
        root.internal_service(
            "go",
            pre=Eq(Var("status"), NULL),
            post=And(Eq(Var("status"), Const("done")), Eq(Var("log"), Const("written"))),
        )
        facts = compute_dataflow_facts(builder.build())
        assert facts.for_task("Main").written_never_read == ("log",)

    def test_variable_copy_is_not_a_store(self):
        pre = And(Eq(Var("status"), NULL), Eq(Var("other"), NULL))
        builder = ArtifactSystemBuilder("copy", _schema(), global_precondition=pre)
        root = builder.task("Main")
        root.variable("status")
        root.variable("other")
        root.internal_service(
            "go", pre=Eq(Var("status"), NULL), post=Eq(Var("status"), Var("other"))
        )
        facts = compute_dataflow_facts(builder.build())
        assert facts.for_task("Main").written_never_read == ()

    def test_atom_bound_variable_is_a_navigation_binding(self):
        pre = And(Eq(Var("item"), NULL), Eq(Var("price"), NULL))
        builder = ArtifactSystemBuilder("nav", _schema(), global_precondition=pre)
        root = builder.task("Main")
        root.id_variable("item", "ITEMS")
        root.variable("price")
        root.internal_service(
            "lookup",
            pre=Eq(Var("price"), NULL),
            post=And(
                RelationAtom("ITEMS", [Var("item"), Var("price")]),
                Eq(Var("price"), Const("0")),
            ),
        )
        facts = compute_dataflow_facts(builder.build())
        assert facts.for_task("Main").written_never_read == ()


# --------------------------------------------------------- diagnostics ride


class TestDiagnostics:
    def test_va302_fires_for_propagation_dead_service_only(self):
        diagnostics, _ = analyze_system(_pinned_system())
        va302 = [d for d in diagnostics if d.code == "VA302"]
        wheres = sorted(d.where for d in va302)
        assert wheres == [
            "task 'Main' / service 'premium_only'",
            "task 'Premium' / opening guard",
        ]
        # VA203 is silent: each guard is satisfiable in isolation.
        assert not [d for d in diagnostics if d.code == "VA203" and "premium" in d.where]

    def test_va302_does_not_double_report_plain_unsat_guards(self):
        builder = ArtifactSystemBuilder("plain", _schema())
        root = builder.task("Main")
        root.variable("status")
        root.internal_service(
            "dead",
            pre=And(Eq(Var("status"), Const("a")), Eq(Var("status"), Const("b"))),
            post=Eq(Var("status"), Const("x")),
        )
        diagnostics, _ = analyze_system(builder.build())
        codes = [d.code for d in diagnostics if "dead" in d.where]
        assert "VA203" in codes
        assert "VA302" not in codes

    def test_va504_fires_for_dead_store(self):
        pre = And(Eq(Var("status"), NULL), Eq(Var("log"), NULL))
        builder = ArtifactSystemBuilder("deadstore", _schema(), global_precondition=pre)
        root = builder.task("Main")
        root.variable("status")
        root.variable("log")
        root.internal_service(
            "go",
            pre=Eq(Var("status"), NULL),
            post=And(Eq(Var("status"), Const("done")), Eq(Var("log"), Const("x"))),
        )
        diagnostics, _ = analyze_system(builder.build())
        va504 = [d for d in diagnostics if d.code == "VA504"]
        assert [d.where for d in va504] == ["task 'Main' / variable 'log'"]


# -------------------------------------------------------------- determinism


class TestDeterminism:
    def test_as_dict_is_stable_across_recomputation(self):
        system = _pinned_system()
        first = compute_dataflow_facts(system).as_dict()
        second = compute_dataflow_facts(system).as_dict()
        assert first == second
        main = first["Main"]
        assert main["dead_services"] == sorted(main["dead_services"])
        assert list(main["constant_env"]) == sorted(main["constant_env"])
