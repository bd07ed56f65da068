"""Differential tests of the exact fast paths on the search's hot path.

Each fast path must return what its general algorithm returns:

* ``covers_preceq`` answers pointwise counter domination without max-flow;
* ``PartialIsoType.extend_ids`` finds contradictions (``None``) and no-ops
  (``self``) before it copies the type;
* ``PSI.with_tau`` / ``PSI.with_child`` reuse the normalised tuples instead
  of re-sorting them through ``PSI.make``;
* ``SymbolicTransitionSystem.project`` memoises projections per verify;
* ``ProductSystem`` resolves the Büchi moves once per (Büchi state, service);
* ``StateMasks`` composes a state's index mask from per-component masks;
* ``SymbolicTransitionSystem`` memoises stored-tuple renamings per service.

The ``reference_*`` functions below are the general algorithms written out
without their fast paths.  The hypothesis tests compare each pair on random
inputs; the corpus tests patch every reference in at once and re-expand three
verifies move for move.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

import repro.core.karp_miller as karp_miller_module
import repro.core.verifier as verifier_module
from repro import Verifier, VerifierOptions
from repro.benchmark.properties import LTL_TEMPLATES, generate_properties
from repro.benchmark.realworld import REAL_WORKFLOW_FACTORIES
from repro.core.coverage import covers_preceq
from repro.core.expressions import ConstExpr, ExpressionUniverse, NavExpr
from repro.core.indexes import ActiveStateIndex
from repro.core.isotypes import EQ, NEQ, PartialIsoType, empty_type
from repro.core.maxflow import feasible_assignment
from repro.core.karp_miller import StateMasks
from repro.core.product import ProductState, ProductSystem
from repro.core.psi import OMEGA, PSI, counter_leq
from repro.core.transitions import SymbolicTransitionSystem
from repro.has.conditions import Const, Eq, Var
from repro.has.schema import DatabaseSchema
from repro.has.types import VALUE, IdType
from repro.ltl.ltlfo import GlobalVariable, LTLFOProperty
from repro.ltl.parser import parse_ltl

# ---------------------------------------------------------------------------
# The general algorithms, without fast paths
# ---------------------------------------------------------------------------


def reference_extend_ids(tau, constraints):
    """Copy the type, then union / add ≠ one constraint at a time."""
    pending = list(constraints)
    if not pending:
        return tau
    extended = PartialIsoType(tau.universe, dict(tau._rep), dict(tau._classes), set(tau._neq))
    while pending:
        left, right, op = pending.pop()
        if op == EQ:
            consistent = extended._union(left, right, pending)
        else:
            consistent = extended._add_neq(left, right)
        if not consistent:
            return None
    return extended


def reference_preceq(covered, covering):
    """``covered ⪯ covering`` decided by bipartite max-flow alone."""
    if covered.children != covering.children or not covered.tau.entails(covering.tau):
        return False
    if not covered.counters:
        return True
    edges = {
        (i, j)
        for i, ((relation_i, type_i), _) in enumerate(covered.counters)
        for j, ((relation_j, type_j), _) in enumerate(covering.counters)
        if relation_i == relation_j and type_i.entails(type_j)
    }
    return feasible_assignment(
        [value for _key, value in covered.counters],
        [value for _key, value in covering.counters],
        edges,
    )


def reference_with_tau(psi, tau):
    return PSI.make(tau, psi.counter_map(), psi.child_map())


def reference_with_child(psi, child, active):
    children = psi.child_map()
    children[child] = active
    return PSI.make(psi.tau, psi.counter_map(), children)


def reference_project(_system, tau, kept):
    return tau.project(kept)


def reference_buchi_moves_for(product, buchi_source, service):
    return [
        (product._label_condition(transition.label), transition.target)
        for transition in product.automaton.outgoing(buchi_source)
        if product._service_compatible(transition.label, service)
    ]


def reference_edge_elements(state):
    """A product state's whole edge set ``E(I)`` (Section 3.6), gathered in one pass."""
    elements = set(state.psi.tau.edge_set())
    for (relation, stored_type), _count in state.psi.counters:
        for edge in stored_type.edge_set():
            elements.add((relation, edge))
        elements.add(("has-counter", relation, stored_type.canonical_key()))
    elements.add(("buchi", state.buchi_state))
    for child, active in state.psi.children:
        elements.add(("child", child, active))
    return frozenset(elements)


class ReferenceMasks(StateMasks):
    """Each state's mask encoded from its whole edge set, with no component memo."""

    def mask_of(self, state):
        return self._index.mask(reference_edge_elements(state))


def reference_stored_type(system, service, update, projected):
    relation = system.task.artifact_relation(update.relation)
    renaming = {
        variable: attribute.name
        for variable, attribute in zip(update.variables, relation.attributes)
    }
    return projected.rename_roots(renaming, system._relation_universes[update.relation])


def reference_retrieved_constraints(system, service, update, stored_type):
    relation = system.task.artifact_relation(update.relation)
    renaming = {
        attribute.name: variable
        for variable, attribute in zip(update.variables, relation.attributes)
    }
    retrieved = stored_type.rename_roots(renaming, system.universe)
    if retrieved is None:
        return None
    return system.constraint_filter.filter_ids(retrieved.id_constraints())


# ---------------------------------------------------------------------------
# Type extension
# ---------------------------------------------------------------------------

_SCHEMA = DatabaseSchema.from_dict(
    {
        "CUSTOMERS": {"name": None, "record": "CREDIT_RECORD"},
        "CREDIT_RECORD": {"status": None},
    }
)
_ROOTS = {"x": IdType("CUSTOMERS"), "y": IdType("CUSTOMERS"), "r": IdType("CREDIT_RECORD"),
          "v": VALUE, "w": VALUE}
_GOOD, _BAD, _NULL = ConstExpr("Good"), ConstExpr("Bad"), ConstExpr(None)
_EXPRESSIONS = [
    NavExpr("x"), NavExpr("x", ("name",)), NavExpr("x", ("record",)),
    NavExpr("x", ("record", "status")), NavExpr("y"), NavExpr("y", ("record",)),
    NavExpr("y", ("record", "status")), NavExpr("r"), NavExpr("r", ("status",)),
    NavExpr("v"), NavExpr("w"), _GOOD, _BAD, _NULL,
]


def _universe():
    universe = ExpressionUniverse(_SCHEMA, _ROOTS)
    universe.add_constant("Good")
    universe.add_constant("Bad")
    return universe


_constraint = st.tuples(
    st.sampled_from(_EXPRESSIONS), st.sampled_from(_EXPRESSIONS), st.sampled_from([EQ, NEQ])
)


def _ids(universe, constraints):
    return [(universe.ids[left], universe.ids[right], op) for left, right, op in constraints]


@st.composite
def _extensions(draw):
    """A consistent base type and constraints mixing fresh ones, the base's
    own constraints (no-ops), their negations (contradictions) and ≠ between
    constants (implicitly entailed, yet new edges)."""
    universe = _universe()
    base = empty_type(universe).extend(draw(st.lists(_constraint, max_size=6)))
    assume(base is not None)
    own = base.id_constraints()
    pools = [_constraint.map(lambda c: _ids(universe, [c])[0])]
    constants = [universe.ids[c] for c in (_GOOD, _BAD, _NULL)]
    pools.append(st.tuples(st.sampled_from(constants), st.sampled_from(constants),
                           st.just(NEQ)))
    if own:
        pools.append(st.sampled_from(own))
        pools.append(st.sampled_from(own).map(
            lambda c: (c[0], c[1], NEQ if c[2] == EQ else EQ)))
    added = draw(st.lists(st.one_of(pools), max_size=5))
    return base, added


class TestExtendFastPath:
    @given(_extensions())
    @settings(max_examples=200, deadline=None)
    def test_matches_copy_then_union(self, case):
        base, added = case
        fast = base.extend_ids(added)
        reference = reference_extend_ids(base, added)
        assert (fast is None) == (reference is None)
        if fast is not None:
            assert fast.canonical_key() == reference.canonical_key()
            assert fast.members() == reference.members()
            if fast is base:
                assert reference.canonical_key() == base.canonical_key()

    def test_explicit_edges_and_same_class_equalities_return_self(self):
        universe = _universe()
        x, y, v = NavExpr("x"), NavExpr("y"), NavExpr("v")
        tau = empty_type(universe).extend([(x, y, EQ), (v, _GOOD, NEQ)])
        assert tau.extend_ids(_ids(universe, [(y, x, EQ), (_GOOD, v, NEQ)])) is tau
        # Congruence made x.record = y.record; both are mentioned members.
        same = [(NavExpr("x", ("record",)), NavExpr("y", ("record",)), EQ)]
        assert tau.extend_ids(_ids(universe, same)) is tau

    def test_implicit_constant_disequality_is_a_new_edge(self):
        universe = _universe()
        v, w = NavExpr("v"), NavExpr("w")
        tau = empty_type(universe).extend([(v, _GOOD, EQ), (w, _BAD, EQ)])
        assert tau.known_distinct(v, w)  # entailed through the two constants ...
        extended = tau.extend_ids(_ids(universe, [(v, w, NEQ)]))
        # ... but not an explicit edge: the key gains the ≠ edges.
        assert extended is not tau
        assert extended.canonical_key() > tau.canonical_key()
        assert extended.canonical_key() == reference_extend_ids(
            tau, _ids(universe, [(v, w, NEQ)])
        ).canonical_key()
        # Between two bare constants the ≠ is new as well.
        constants = tau.extend_ids(_ids(universe, [(_GOOD, _BAD, NEQ)]))
        assert constants is not tau and constants.canonical_key() != tau.canonical_key()

    def test_unmentioned_ids_are_never_a_no_op(self):
        universe = _universe()
        tau = empty_type(universe).extend([(NavExpr("v"), _GOOD, EQ)])
        w = NavExpr("w")
        assert tau.extend_ids(_ids(universe, [(w, w, EQ)])) is not tau

    def test_contradictions_return_none_without_copying(self):
        universe = _universe()
        v, w = NavExpr("v"), NavExpr("w")
        tau = empty_type(universe).extend([(v, w, NEQ), (NavExpr("x"), _GOOD, NEQ)])
        for contradiction in ([(v, w, EQ)], [(w, w, NEQ)], [(_GOOD, _BAD, EQ)],
                              [(NavExpr("r"), _NULL, EQ), (w, v, EQ)]):
            assert tau.extend_ids(_ids(universe, contradiction)) is None
            assert reference_extend_ids(tau, _ids(universe, contradiction)) is None


# ---------------------------------------------------------------------------
# Coverage
# ---------------------------------------------------------------------------

_RELATION_UNIVERSE = ExpressionUniverse(_SCHEMA, {"a": VALUE, "b": VALUE})
for _value in ("Good", "Bad"):
    _RELATION_UNIVERSE.add_constant(_value)


def _stored(*constraints):
    stored = empty_type(_RELATION_UNIVERSE).extend(list(constraints))
    assert stored is not None
    return stored


_A, _B = NavExpr("a"), NavExpr("b")
#: Stored-tuple types, some entailing others (a=Good ⊨ a≠null, a=b ∧ a=Good ⊨ a=b, ...).
_STORED_TYPES = [
    _stored(),
    _stored((_A, _GOOD, EQ)),
    _stored((_A, _BAD, EQ)),
    _stored((_A, _NULL, NEQ)),
    _stored((_A, _B, EQ)),
    _stored((_A, _B, EQ), (_A, _GOOD, EQ)),
    _stored((_A, _GOOD, NEQ), (_B, _NULL, EQ)),
]
_KEYS = [(relation, stored) for relation in ("S", "T") for stored in _STORED_TYPES]
_VALUES = st.one_of(st.integers(1, 3), st.just(OMEGA))
_TAU = empty_type(_universe())


@st.composite
def _coverage_pairs(draw):
    covered = draw(st.dictionaries(st.sampled_from(_KEYS), _VALUES, max_size=4))
    if draw(st.booleans()):
        # A dominating covering PSI: the same keys, each count raised (or ω),
        # plus perhaps some keys of its own.
        covering = {
            key: OMEGA if value is OMEGA or draw(st.integers(0, 3)) == 0
            else value + draw(st.integers(0, 2))
            for key, value in covered.items()
        }
        # Keys added here may also lower a count, and so break the domination.
        covering.update(draw(st.dictionaries(st.sampled_from(_KEYS), _VALUES, max_size=2)))
    else:
        covering = draw(st.dictionaries(st.sampled_from(_KEYS), _VALUES, max_size=4))
    children = {"child": draw(st.booleans())}
    return PSI.make(_TAU, covered, children), PSI.make(_TAU, covering, children)


class TestCoverageFastPath:
    @given(_coverage_pairs())
    @settings(max_examples=250, deadline=None)
    def test_matches_max_flow(self, pair):
        covered, covering = pair
        assert covers_preceq(covered, covering) == reference_preceq(covered, covering)

    @given(_coverage_pairs())
    @settings(max_examples=100, deadline=None)
    def test_domination_is_coverage(self, pair):
        covered, covering = pair
        if all(counter_leq(value, covering.count(key)) for key, value in covered.counters):
            assert covers_preceq(covered, covering)

    def test_omega_is_dominated_only_by_omega(self):
        key = ("S", _STORED_TYPES[1])
        covered = PSI.make(_TAU, {key: OMEGA})
        assert not covers_preceq(covered, PSI.make(_TAU, {key: 3}))
        assert covers_preceq(covered, PSI.make(_TAU, {key: OMEGA}))
        # A less restrictive ω slot covers it through the flow instead.
        assert covers_preceq(covered, PSI.make(_TAU, {("S", _STORED_TYPES[3]): OMEGA}))

    def test_undominated_but_feasible_still_covers(self):
        # Two a=Good tuples fit into one a=Good slot plus one a≠null slot.
        good, not_null = ("S", _STORED_TYPES[1]), ("S", _STORED_TYPES[3])
        covered = PSI.make(_TAU, {good: 2})
        covering = PSI.make(_TAU, {good: 1, not_null: 1})
        assert covers_preceq(covered, covering) and reference_preceq(covered, covering)


# ---------------------------------------------------------------------------
# PSI construction
# ---------------------------------------------------------------------------

_TYPES = [empty_type(_universe()).extend(c) for c in (
    [], [(NavExpr("v"), _GOOD, EQ)], [(NavExpr("x"), NavExpr("y"), EQ)],
    [(NavExpr("w"), _NULL, NEQ), (NavExpr("v"), NavExpr("w"), EQ)],
)]


@st.composite
def _psis(draw):
    counters = draw(st.dictionaries(st.sampled_from(_KEYS), st.one_of(st.integers(0, 3),
                                                                      st.just(OMEGA)),
                                    max_size=4))
    children = draw(st.dictionaries(st.sampled_from(["b", "a", "__closed__", "c"]),
                                    st.booleans(), max_size=3))
    return PSI.make(draw(st.sampled_from(_TYPES)), counters, children)


class TestPSIConstruction:
    @given(_psis(), st.sampled_from(_TYPES))
    @settings(max_examples=100, deadline=None)
    def test_with_tau_matches_make(self, psi, tau):
        fast, reference = psi.with_tau(tau), reference_with_tau(psi, tau)
        assert fast == reference
        assert (fast.counters, fast.children) == (reference.counters, reference.children)
        assert hash(fast) == hash(reference)

    @given(_psis(), st.sampled_from(["a", "b", "c", "d", "__closed__"]), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_with_child_matches_make(self, psi, child, active):
        fast, reference = psi.with_child(child, active), reference_with_child(psi, child, active)
        assert fast == reference
        assert (fast.counters, fast.children) == (reference.counters, reference.children)
        assert [name for name, _ in fast.children] == sorted(name for name, _ in fast.children)


# ---------------------------------------------------------------------------
# Index masks
# ---------------------------------------------------------------------------


class TestComposedMasks:
    @given(st.lists(st.tuples(_psis(), st.integers(0, 2)), min_size=1, max_size=8))
    @settings(max_examples=150, deadline=None)
    def test_match_the_mask_of_the_whole_edge_set(self, states):
        # One index numbers the bits of both encodings, as in a search.
        index = ActiveStateIndex()
        masks = StateMasks(index)
        for psi, buchi_state in states:
            state = ProductState(psi, buchi_state)
            assert masks.mask_of(state) == index.mask(reference_edge_elements(state))

    def test_edge_elements_and_masks_follow_state_equality(self, tiny_system):
        psi = SymbolicTransitionSystem(tiny_system, tiny_system.root).initial_moves()[0].psi
        state = ProductState(psi, 0)
        elements = reference_edge_elements(state)
        # An equal state compares and hashes the same, and has the same edge
        # set and mask; another Büchi state changes both.
        twin = ProductState(psi, 0)
        assert twin == state and hash(twin) == hash(state)
        assert reference_edge_elements(twin) == elements
        assert ("buchi", 0) in elements
        assert reference_edge_elements(ProductState(psi, 1)) != elements
        masks = StateMasks(ActiveStateIndex())
        assert masks.mask_of(twin) == masks.mask_of(state) != masks.mask_of(ProductState(psi, 1))


# ---------------------------------------------------------------------------
# Projection memo
# ---------------------------------------------------------------------------


def _order_fulfillment_system():
    system = REAL_WORKFLOW_FACTORIES["order-fulfillment"]()
    ltl_property = generate_properties(system, seed=0)[0]
    return SymbolicTransitionSystem(system, system.root, ltl_property)


_STS = _order_fulfillment_system()
_KEPT_SETS = sorted(
    {*_STS._kept_by_service.values(), *_STS._kept_by_child.values(),
     *_STS._inserted_roots.values()},
    key=sorted,
)
_STS_EXPRESSIONS = list(_STS.universe.expressions)


class TestProjectionMemo:
    @given(st.lists(st.tuples(st.sampled_from(_STS_EXPRESSIONS),
                              st.sampled_from(_STS_EXPRESSIONS),
                              st.sampled_from([EQ, NEQ])), max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_memoised_projection_matches_project(self, constraints):
        tau = empty_type(_STS.universe).extend(constraints)
        assume(tau is not None)
        twin = empty_type(_STS.universe).extend(list(reversed(constraints)))
        for kept in _KEPT_SETS:
            projected = _STS.project(tau, kept)
            assert projected == tau.project(kept)
            assert projected.members() == tau.project(kept).members()
            assert _STS.project(tau, kept) is projected
            # An equal type built another way shares the entry.
            assert _STS.project(twin, kept) == projected

    def test_kept_sets_include_the_global_variables(self, tiny_system):
        ltl_property = LTLFOProperty(
            "Main", parse_ltl("G p"), conditions={"p": Eq(Var("item"), Var("g"))},
            global_variables=[GlobalVariable("g", IdType("ITEMS"))],
        )
        sts = SymbolicTransitionSystem(tiny_system, tiny_system.root, ltl_property)
        # ``pick`` propagates nothing: it keeps only the global variable.
        assert sts._kept_by_service["pick"] == {"g"}
        assert all("g" in kept for kept in sts._kept_by_service.values())


# ---------------------------------------------------------------------------
# Corpus verifies, re-expanded with every reference patched in
# ---------------------------------------------------------------------------

CASES = [
    ("order-fulfillment", "until"),
    ("expense-reimbursement", "fair-response"),
    ("travel-booking", "until-repeated"),
]
OPTIONS = VerifierOptions(max_states=40, max_repeated_states=40, timeout_seconds=30)


def _patch_references(monkeypatch):
    monkeypatch.setattr(PartialIsoType, "extend_ids", reference_extend_ids)
    monkeypatch.setattr(PSI, "with_tau", reference_with_tau)
    monkeypatch.setattr(PSI, "with_child", reference_with_child)
    monkeypatch.setattr(SymbolicTransitionSystem, "project", reference_project)
    monkeypatch.setattr(ProductSystem, "_buchi_moves_for", reference_buchi_moves_for)
    monkeypatch.setattr(karp_miller_module, "covers_preceq", reference_preceq)
    monkeypatch.setattr(karp_miller_module, "StateMasks", ReferenceMasks)
    monkeypatch.setattr(SymbolicTransitionSystem, "_stored_type", reference_stored_type)
    monkeypatch.setattr(
        SymbolicTransitionSystem, "_retrieved_constraints", reference_retrieved_constraints
    )


def _corpus_pair(workflow, template):
    system = REAL_WORKFLOW_FACTORIES[workflow]()
    names = [t.name for t in LTL_TEMPLATES]
    return system, generate_properties(system, seed=0)[names.index(template)]


def _summary(result):
    stats = result.stats
    counterexample = result.counterexample
    return (
        result.outcome, stats.states_explored, stats.states_pruned, stats.states_deactivated,
        stats.accelerations, stats.transitions_computed, stats.repeated_phase_states,
        counterexample.witness if counterexample else None,
    )


def _assert_reexpands_move_for_move(monkeypatch, system, ltl_property):
    """Verify with the fast paths, then re-expand every memoised PSI and
    product state, and re-run the verify, with every reference patched in."""
    built = {}

    class RecordingTransitions(SymbolicTransitionSystem):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built["transitions"] = self
            built["args"] = (args, kwargs)

    class RecordingProduct(ProductSystem):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built["product"] = self

    with monkeypatch.context() as patch:
        patch.setattr(verifier_module, "SymbolicTransitionSystem", RecordingTransitions)
        patch.setattr(verifier_module, "ProductSystem", RecordingProduct)
        fast = Verifier(system, OPTIONS).verify(ltl_property)
    transitions, product = built["transitions"], built["product"]

    _patch_references(monkeypatch)
    args, kwargs = built["args"]
    for psi, moves in transitions._successors.items():
        reference = SymbolicTransitionSystem(*args, **kwargs).successors(psi)
        assert [(m.service, m.psi) for m in moves] == [(m.service, m.psi) for m in reference]
    reference_product = ProductSystem(
        SymbolicTransitionSystem(*args, **kwargs), product.automaton, product.ltl_property
    )
    for state, moves in product._successors.items():
        reference = reference_product.successors(state)
        assert [(m.service, m.state) for m in moves] == [(m.service, m.state) for m in reference]

    # The whole verify, every reference in place: the same verdict and work.
    assert _summary(Verifier(system, OPTIONS).verify(ltl_property)) == _summary(fast)
    return fast


@pytest.mark.parametrize("workflow,template", CASES)
def test_corpus_verify_reexpands_move_for_move(monkeypatch, workflow, template):
    system, ltl_property = _corpus_pair(workflow, template)
    fast = _assert_reexpands_move_for_move(monkeypatch, system, ltl_property)
    assert fast.stats.repeated_phase_states > 0


@pytest.mark.parametrize("formula", ["(!ship) U (pick & p)", "G (ship -> F (reset & !p))"])
def test_service_propositions_reexpand_move_for_move(monkeypatch, tiny_system, formula):
    # The corpus templates name conditions only; service propositions make
    # the Büchi moves depend on the applied service.
    ltl_property = LTLFOProperty(
        "Main", parse_ltl(formula), conditions={"p": Eq(Var("status"), Const("picked"))}
    )
    _assert_reexpands_move_for_move(monkeypatch, tiny_system, ltl_property)


@pytest.mark.parametrize("workflow,template", CASES)
def test_composed_masks_give_the_same_candidates(monkeypatch, workflow, template):
    """At every mask lookup of a corpus verify, the composed mask is the mask
    of the whole edge set, so both candidate queries return the same items."""
    lookups = []

    class CheckingMasks(StateMasks):
        def mask_of(self, state):
            mask = super().mask_of(state)
            index = self._index
            reference = index.mask(reference_edge_elements(state))
            lookups.append((
                state,
                mask == reference,
                index.candidates_covering(mask) == index.candidates_covering(reference),
                index.candidates_covered_by(mask) == index.candidates_covered_by(reference),
            ))
            return mask

    monkeypatch.setattr(karp_miller_module, "StateMasks", CheckingMasks)
    system, ltl_property = _corpus_pair(workflow, template)
    Verifier(system, OPTIONS).verify(ltl_property)
    assert any(state.psi.counters for state, *_ in lookups)
    assert [checks for _state, *checks in lookups] == [[True, True, True]] * len(lookups)


@pytest.mark.parametrize("workflow,template", CASES)
def test_renaming_memos_match_fresh_renamings(monkeypatch, workflow, template):
    built = {}

    class RecordingTransitions(SymbolicTransitionSystem):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built["transitions"] = self

    monkeypatch.setattr(verifier_module, "SymbolicTransitionSystem", RecordingTransitions)
    system, ltl_property = _corpus_pair(workflow, template)
    Verifier(system, OPTIONS).verify(ltl_property)
    transitions = built["transitions"]
    assert transitions._stored and transitions._retrieved
    services = {
        service.name: service
        for service in system.internal_services(transitions.task_name)
    }
    for (name, projected), stored_type in transitions._stored.items():
        service = services[name]
        assert stored_type == reference_stored_type(
            transitions, service, service.update, projected
        )
    for (name, stored_type), constraints in transitions._retrieved.items():
        service = services[name]
        assert constraints == reference_retrieved_constraints(
            transitions, service, service.update, stored_type
        )
