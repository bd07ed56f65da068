"""Audit of the repeated-reachability violation fast path (satellite task).

PR 1 added a fast path that reports a violation when a ≤-coverage cycle
through an accepting state exists on the main ⪯-pruned active set, skipping
the classic Section 3.8 re-search.  A PR 2 review flagged the criterion as
potentially unsound on the ⪯-pruned set.  The differential stress test below
compares the two paths on randomized HAS* instances.

Audit verdict: no *soundness* divergence -- the fast path never contradicts
a completed classic verdict (``violated`` vs ``satisfied``).  It does decide
instances the classic re-search cannot: when the ≤-based re-search exhausts
``max_repeated_states`` and returns ``unknown``, the fast path may still
(correctly) report ``violated`` from the cycle it found on the main active
set -- that completeness gap is the fast path's reason to exist, so the
checker accepts ``unknown -> violated`` refinements and rejects everything
else.  The fast path stays gated behind
``VerifierOptions.repeated_violation_fast_path`` so it can be switched off
in the field (and forced off here for the comparison) without code changes.

Also covers the iterative Tarjan rewrite of ``states_on_cycles`` (the
recursive version risked C-stack overflow at ``max_states``-sized graphs).
"""

from __future__ import annotations

import pytest

from repro.benchmark.properties import LTL_TEMPLATES, generate_properties
from repro.benchmark.synthetic import SyntheticConfig, generate_synthetic_workflow
from repro.core.options import VerifierOptions
from repro.core.repeated import states_on_cycles
from repro.core.verifier import Verifier
from repro.has.conditions import Const, Eq, Neq, Var
from repro.ltl import LTLFOProperty, parse_ltl


def _differential_check(system, ltl_property, **budget):
    base = dict(
        max_states=budget.get("max_states", 1500),
        max_repeated_states=budget.get("max_repeated_states", 1500),
        timeout_seconds=budget.get("timeout_seconds", 10),
    )
    fast = Verifier(
        system, VerifierOptions(repeated_violation_fast_path=True, **base)
    ).verify(ltl_property)
    classic = Verifier(
        system, VerifierOptions(repeated_violation_fast_path=False, **base)
    ).verify(ltl_property)
    if classic.unknown:
        # The classic re-search ran out of budget; the fast path may still
        # decide the instance as violated (a sound refinement), but it must
        # never claim satisfaction the classic path could not certify.
        assert not fast.satisfied, (
            f"fast path certifies satisfaction the classic search could not on "
            f"{system.name} × {ltl_property.name}"
        )
    else:
        assert fast.outcome == classic.outcome, (
            f"fast path diverges on {system.name} × {ltl_property.name}: "
            f"fast={fast.outcome.value} classic={classic.outcome.value}"
        )
    return fast, classic


class TestFastPathDifferential:
    """Fast-path verdicts must match the classic Section 3.8 re-search."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_randomized_instances_agree(self, seed):
        config = SyntheticConfig(
            relations=2, tasks=2, variables_per_task=4, services_per_task=4, seed=seed
        )
        system = generate_synthetic_workflow(config)
        # always / response / eventually / recurrence: the templates whose
        # verdicts most often hinge on the repeated-reachability phase.
        templates = [LTL_TEMPLATES[i] for i in (1, 6, 7, 9)]
        for ltl_property in generate_properties(system, seed=seed, templates=templates):
            _differential_check(system, ltl_property)

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
    def test_randomized_instances_agree_full_sweep(self, seed):
        config = SyntheticConfig(
            relations=2, tasks=2, variables_per_task=5, services_per_task=5, seed=seed
        )
        system = generate_synthetic_workflow(config)
        for ltl_property in generate_properties(system, seed=seed):
            _differential_check(
                system, ltl_property, max_states=4000, max_repeated_states=4000
            )

    def test_handcrafted_systems_agree(self, tiny_system, relation_system):
        properties = [
            LTLFOProperty("Main", parse_ltl("G ns"),
                          {"ns": Neq(Var("status"), Const("shipped"))}, name="never-shipped"),
            LTLFOProperty("Main", parse_ltl("G F p"),
                          {"p": Eq(Var("status"), Const("picked"))}, name="recurrence"),
            LTLFOProperty("Main", parse_ltl("F p"),
                          {"p": Eq(Var("status"), Const("picked"))}, name="eventually"),
        ]
        for ltl_property in properties:
            _differential_check(tiny_system, ltl_property)

    def test_fast_path_can_be_disabled(self, tiny_system):
        """The gate exists and changes the execution path, not the verdict."""
        prop = LTLFOProperty(
            "Main", parse_ltl("G ns"),
            {"ns": Neq(Var("status"), Const("shipped"))}, name="never-shipped",
        )
        fast, classic = _differential_check(tiny_system, prop)
        assert fast.violated and classic.violated
        assert VerifierOptions().repeated_violation_fast_path is True
        assert VerifierOptions(
            repeated_violation_fast_path=False
        ).as_dict()["repeated_violation_fast_path"] is False

    def test_default_options_dict_omits_the_gate_for_fingerprint_stability(self):
        """Post-v1 option fields are emitted only when non-default, so
        content fingerprints (and every persisted result keyed by them) from
        before the field existed stay valid."""
        data = VerifierOptions().as_dict()
        assert "repeated_violation_fast_path" not in data
        assert VerifierOptions.from_dict(data).repeated_violation_fast_path is True
        assert "repeated_violation_fast_path" in VerifierOptions.known_keys()


class TestIterativeTarjan:
    def test_simple_cycle_and_tail(self):
        graph = {0: {1}, 1: {2}, 2: {0}, 3: {0}}  # 3 is a tail into the cycle
        assert states_on_cycles(graph) == {0, 1, 2}

    def test_self_loop_counts(self):
        assert states_on_cycles({0: {0}, 1: set()}) == {0}

    def test_acyclic_graph_has_no_cycle_states(self):
        graph = {0: {1, 2}, 1: {3}, 2: {3}, 3: set()}
        assert states_on_cycles(graph) == set()

    def test_two_disjoint_sccs(self):
        graph = {0: {1}, 1: {0}, 2: {3}, 3: {2}, 4: {0, 2}}
        assert states_on_cycles(graph) == {0, 1, 2, 3}

    def test_edge_target_missing_from_keys_is_a_sink(self):
        # Rooted graph construction can reference vertices it never expanded.
        assert states_on_cycles({0: {1}}) == set()

    def test_deep_chain_does_not_recurse(self):
        """A path longer than CPython's recursion limit must not crash."""
        n = 50_000
        graph = {i: {i + 1} for i in range(n)}
        graph[n] = {n - 1}  # one cycle at the far end
        on_cycle = states_on_cycles(graph)
        assert on_cycle == {n - 1, n}
