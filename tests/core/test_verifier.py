"""Integration tests of the full verifier on small, hand-analysed specifications."""

import pytest

from repro import Verifier, VerificationOutcome, VerifierOptions
from repro.core.options import Ablation
from repro.has.builder import ArtifactSystemBuilder
from repro.has.conditions import And, Const, Eq, Neq, NULL, Or, Var
from repro.has.schema import DatabaseSchema
from repro.has.types import IdType
from repro.ltl.ltlfo import GlobalVariable, LTLFOProperty
from repro.ltl.parser import parse_ltl


def prop(task, text, name=None, **conditions):
    return LTLFOProperty(task, parse_ltl(text), conditions=conditions, name=name or text)


@pytest.fixture
def verifier(tiny_system):
    return Verifier(tiny_system, VerifierOptions(max_states=10_000, timeout_seconds=30))


class TestTinySystem:
    """The pick -> ship -> reset loop: every infinite run cycles through the three states."""

    def test_false_is_violated(self, verifier):
        assert verifier.verify(prop("Main", "false")).violated

    def test_true_is_satisfied(self, verifier):
        assert verifier.verify(prop("Main", "true")).satisfied

    def test_safety_violation(self, verifier):
        result = verifier.verify(
            prop("Main", "G p", p=Neq(Var("status"), Const("shipped")))
        )
        assert result.violated
        assert result.counterexample is not None
        assert "ship" in result.counterexample.services()

    def test_liveness_satisfied(self, verifier):
        # Every infinite run ships eventually (the loop is forced).
        assert verifier.verify(prop("Main", "F p", p=Eq(Var("status"), Const("shipped")))).satisfied

    def test_response_satisfied(self, verifier):
        result = verifier.verify(
            prop(
                "Main",
                "G (p -> F q)",
                p=Eq(Var("status"), Const("picked")),
                q=Eq(Var("status"), Const("shipped")),
            )
        )
        assert result.satisfied

    def test_recurrence_satisfied(self, verifier):
        assert verifier.verify(prop("Main", "G F p", p=Eq(Var("status"), Const("picked")))).satisfied

    def test_service_proposition(self, verifier):
        # The `ship` service is always eventually applied in every infinite run.
        assert verifier.verify(LTLFOProperty("Main", parse_ltl("F ship"), name="F ship")).satisfied

    def test_ordering_property_between_services(self, verifier):
        # ship never happens strictly before the first pick.
        result = verifier.verify(LTLFOProperty("Main", parse_ltl("(!ship) U pick"), name="order"))
        assert result.satisfied

    def test_until_violated(self, verifier):
        # status stays null until it is shipped -- false, it becomes "picked" first.
        result = verifier.verify(
            prop(
                "Main",
                "p U q",
                p=Eq(Var("status"), NULL),
                q=Eq(Var("status"), Const("shipped")),
            )
        )
        assert result.violated

    def test_unknown_task_rejected(self, verifier):
        with pytest.raises(ValueError):
            verifier.verify(prop("Nope", "true"))

    def test_unknown_service_proposition_rejected(self, verifier):
        with pytest.raises(ValueError):
            verifier.verify(LTLFOProperty("Main", parse_ltl("F not_a_service"), name="bad"))

    def test_true_is_satisfied_without_exploring_states(self, verifier):
        # The Büchi automaton of the negated property has no transitions,
        # so the product has no state to explore.
        result = verifier.verify(prop("Main", "true"))
        assert result.satisfied
        assert result.stats.states_explored == 0

    def test_trivially_true_property_still_validates_services(self, verifier):
        with pytest.raises(ValueError, match="zap"):
            verifier.verify(LTLFOProperty("Main", parse_ltl("true & zap"), name="bad"))

    def test_summary_mentions_outcome(self, verifier):
        result = verifier.verify(prop("Main", "true"))
        assert "satisfied" in result.summary()


class TestRelationSystem:
    """Insert / retrieve through the POOL artifact relation."""

    @pytest.fixture
    def verifier(self, relation_system):
        return Verifier(relation_system, VerifierOptions(max_states=20_000, timeout_seconds=30))

    def test_retrieved_items_have_a_known_status(self, verifier):
        # Tuples only enter POOL after `create` (status "new") or `finish`
        # (status "done"), so a retrieved tuple always has one of those states.
        result = verifier.verify(
            LTLFOProperty(
                "Main",
                parse_ltl("G (grab -> (fresh | finished))"),
                conditions={
                    "fresh": Eq(Var("status"), Const("new")),
                    "finished": Eq(Var("status"), Const("done")),
                },
                name="grab-known-status",
            )
        )
        assert result.satisfied

    def test_retrieved_items_are_not_always_fresh(self, verifier):
        # A finished tuple can be stashed and grabbed again, so "every grab
        # yields a fresh tuple" is violated -- the verifier must find it.
        result = verifier.verify(
            LTLFOProperty(
                "Main",
                parse_ltl("G (grab -> fresh)"),
                conditions={"fresh": Eq(Var("status"), Const("new"))},
                name="grab-fresh",
            )
        )
        assert result.violated

    def test_grab_cannot_happen_before_stash(self, verifier):
        result = verifier.verify(LTLFOProperty("Main", parse_ltl("(!grab) U stash"), name="no-grab-first"))
        assert result.satisfied

    def test_finish_reachable(self, verifier):
        result = verifier.verify(
            LTLFOProperty(
                "Main",
                parse_ltl("G (!done)"),
                conditions={"done": Eq(Var("status"), Const("done"))},
                name="never-done",
            )
        )
        assert result.violated


class TestOptionConfigurations:
    """All optimisation configurations must agree on the verdicts."""

    CONFIGS = [
        Ablation(),
        Ablation(state_pruning=False),
        Ablation(data_structure_support=False),
        Ablation(static_analysis=False),
        Ablation(state_pruning=False, data_structure_support=False, static_analysis=False),
    ]

    @pytest.mark.parametrize("config_index", range(len(CONFIGS)))
    def test_configurations_agree_on_tiny_system(self, tiny_system, config_index):
        options = VerifierOptions(max_states=10_000)
        reference = Verifier(tiny_system, options)
        candidate = Verifier(tiny_system, options, ablation=self.CONFIGS[config_index])
        properties = [
            prop("Main", "G p", p=Neq(Var("status"), Const("shipped"))),
            prop("Main", "F p", p=Eq(Var("status"), Const("shipped"))),
            prop("Main", "G (p -> F q)", p=Eq(Var("status"), Const("picked")),
                 q=Eq(Var("status"), Const("shipped"))),
            LTLFOProperty("Main", parse_ltl("F ship"), name="F ship"),
        ]
        for ltl_property in properties:
            assert (
                reference.verify(ltl_property).outcome
                == candidate.verify(ltl_property).outcome
            )

    @pytest.mark.parametrize("config_index", range(len(CONFIGS)))
    def test_configurations_agree_on_relation_system(self, relation_system, config_index):
        options = VerifierOptions(max_states=20_000)
        reference = Verifier(relation_system, options)
        candidate = Verifier(relation_system, options, ablation=self.CONFIGS[config_index])
        properties = [
            LTLFOProperty(
                "Main",
                parse_ltl("G (grab -> fresh)"),
                conditions={"fresh": Eq(Var("status"), Const("new"))},
                name="grab-fresh",
            ),
            LTLFOProperty("Main", parse_ltl("(!grab) U stash"), name="no-grab-first"),
        ]
        for ltl_property in properties:
            assert (
                reference.verify(ltl_property).outcome
                == candidate.verify(ltl_property).outcome
            )


class TestGlobalVariableProperties:
    def test_global_variable_links_moments_in_time(self, tiny_system):
        # For every item value g: if some snapshot has item = g and status
        # "picked", then eventually a snapshot has item = g and status shipped?
        # This is FALSE because `ship` does not propagate `item`, so the shipped
        # snapshot may concern a different item.
        verifier = Verifier(tiny_system, VerifierOptions(max_states=20_000, timeout_seconds=30))
        ltl_property = LTLFOProperty(
            "Main",
            parse_ltl("G (picked_g -> F shipped_g)"),
            conditions={
                "picked_g": And(Eq(Var("item"), Var("g")), Eq(Var("status"), Const("picked"))),
                "shipped_g": And(Eq(Var("item"), Var("g")), Eq(Var("status"), Const("shipped"))),
            },
            global_variables=[GlobalVariable("g", IdType("ITEMS"))],
            name="per-item-response",
        )
        assert verifier.verify(ltl_property).violated


class TestCounterexamples:
    def test_counterexample_is_a_run_prefix(self, verifier, tiny_system):
        result = verifier.verify(
            prop("Main", "G p", p=Neq(Var("status"), Const("shipped")))
        )
        assert result.violated
        counterexample = result.counterexample
        assert counterexample.steps[0].service == "open_Main"
        assert len(counterexample) >= 3
        text = counterexample.pretty()
        assert "Violating symbolic run" in text

    def test_satisfied_results_have_no_counterexample(self, verifier):
        result = verifier.verify(prop("Main", "true"))
        assert result.counterexample is None
