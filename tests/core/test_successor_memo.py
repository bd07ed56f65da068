"""Purity of the per-verify successor memos.

``SymbolicTransitionSystem.successors`` / ``evaluate`` and
``ProductSystem.successors`` are memoised for the lifetime of one verify.
These tests verify corpus specifications with artifact relations, then
re-expand every memoised PSI and product state on freshly built systems with
empty caches and require the same moves, in the same order.
"""

import pytest

import repro.core.verifier as verifier_module
from repro import Verifier, VerifierOptions
from repro.benchmark.properties import LTL_TEMPLATES, generate_properties
from repro.benchmark.realworld import REAL_WORKFLOW_FACTORIES
from repro.core.product import ProductState, ProductSystem
from repro.core.transitions import SymbolicTransitionSystem

# (workflow, template): each reaches the repeated-reachability phase at the
# budget below, so its re-search and coverage graph also hit the memos.
CASES = [
    ("order-fulfillment", "until"),
    ("expense-reimbursement", "fair-response"),
    ("travel-booking", "until-repeated"),
]
OPTIONS = VerifierOptions(max_states=40, max_repeated_states=40, timeout_seconds=30)


def _verify_recording(monkeypatch, workflow, template):
    """Verify one (workflow, template) pair; return the systems verify built."""
    built = {}

    class RecordingTransitions(SymbolicTransitionSystem):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built["transitions"] = self
            built["transition_args"] = (args, kwargs)

    class RecordingProduct(ProductSystem):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built["product"] = self

    monkeypatch.setattr(verifier_module, "SymbolicTransitionSystem", RecordingTransitions)
    monkeypatch.setattr(verifier_module, "ProductSystem", RecordingProduct)
    system = REAL_WORKFLOW_FACTORIES[workflow]()
    names = [t.name for t in LTL_TEMPLATES]
    ltl_property = generate_properties(system, seed=0)[names.index(template)]
    result = Verifier(system, OPTIONS).verify(ltl_property)
    return result, built


def _fresh_transitions(built):
    args, kwargs = built["transition_args"]
    return SymbolicTransitionSystem(*args, **kwargs)


@pytest.mark.parametrize("workflow,template", CASES)
def test_memoised_successors_match_fresh_expansion(monkeypatch, workflow, template):
    result, built = _verify_recording(monkeypatch, workflow, template)
    assert result.stats.repeated_phase_states > 0
    transitions, product = built["transitions"], built["product"]

    psi_memo = dict(transitions._successors)
    state_memo = dict(product._successors)
    assert psi_memo and state_memo

    for psi, moves in psi_memo.items():
        fresh = _fresh_transitions(built).successors(psi)
        assert [(m.service, m.psi) for m in moves] == [(m.service, m.psi) for m in fresh]
        assert transitions.successors(psi) is moves

    for state, moves in state_memo.items():
        fresh_product = ProductSystem(
            _fresh_transitions(built), product.automaton, product.ltl_property
        )
        fresh = fresh_product.successors(state)
        assert [(m.service, m.state.psi, m.state.buchi_state) for m in moves] == [
            (m.service, m.state.psi, m.state.buchi_state) for m in fresh
        ]
        assert product.successors(state) is moves



def test_evaluate_memo_is_per_condition_and_type(tiny_system):
    transitions = SymbolicTransitionSystem(tiny_system, tiny_system.root)
    fresh = SymbolicTransitionSystem(tiny_system, tiny_system.root)
    tau = transitions.initial_moves()[0].psi.tau
    services = tiny_system.internal_services(tiny_system.root)
    results = [transitions.evaluate(tau, service.pre) for service in services]
    for service, result in zip(services, results):
        assert transitions.evaluate(tau, service.pre) is result
        assert result == fresh.evaluate(tau, service.pre)
    # `pick` applies from the all-null type, `ship` does not: distinct
    # conditions at the same type never share a memo entry.
    by_name = dict(zip((service.name for service in services), results))
    assert by_name["pick"] and not by_name["ship"]


def test_edge_elements_cached_outside_equality(tiny_system):
    psi = SymbolicTransitionSystem(tiny_system, tiny_system.root).initial_moves()[0].psi
    state = ProductState(psi, 0)
    elements = state.edge_elements()
    assert state.edge_elements() is elements
    # The cache is not a dataclass field: an uncached equal state compares
    # and hashes the same, and computes the same edge set.
    twin = ProductState(psi, 0)
    assert twin == state and hash(twin) == hash(state)
    assert twin.edge_elements() == elements
    assert ("buchi", 0) in elements
    assert ProductState(psi, 1).edge_elements() != elements


def test_each_verify_starts_with_empty_memos(monkeypatch):
    built = []

    class RecordingTransitions(SymbolicTransitionSystem):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            assert not self._successors and not self._evaluated
            built.append(self)

    monkeypatch.setattr(verifier_module, "SymbolicTransitionSystem", RecordingTransitions)
    system = REAL_WORKFLOW_FACTORIES["order-fulfillment"]()
    ltl_property = generate_properties(system, seed=0)[0]
    verifier = Verifier(system, OPTIONS)
    first = verifier.verify(ltl_property)
    second = verifier.verify(ltl_property)
    assert len(built) == 2 and built[0] is not built[1]
    assert built[0]._successors and built[1]._successors
    assert (first.satisfied, first.stats.states_explored) == (
        second.satisfied,
        second.stats.states_explored,
    )
