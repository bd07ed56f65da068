"""Unit and property-based tests for partial isomorphism types."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.expressions import ConstExpr, ExpressionUniverse, NavExpr
from repro.core.isotypes import EQ, NEQ, PartialIsoType, empty_type
from repro.has.schema import DatabaseSchema
from repro.has.types import IdType, VALUE


@pytest.fixture
def universe(navigation_schema):
    universe = ExpressionUniverse(
        navigation_schema,
        {
            "x": IdType("CUSTOMERS"),
            "y": IdType("CUSTOMERS"),
            "r": IdType("CREDIT_RECORD"),
            "v": VALUE,
            "w": VALUE,
        },
    )
    universe.add_constant("Good")
    universe.add_constant("Bad")
    return universe


def var(name):
    return NavExpr(name)


class TestExtension:
    def test_empty_type_is_consistent(self, universe):
        tau = empty_type(universe)
        assert tau.extend([]) is not None

    def test_simple_equality(self, universe):
        tau = empty_type(universe).extend([(var("x"), var("y"), EQ)])
        assert tau is not None
        assert tau.same_class(var("x"), var("y"))

    def test_equality_and_inequality_conflict(self, universe):
        tau = empty_type(universe).extend([(var("x"), var("y"), EQ)])
        assert tau.extend([(var("x"), var("y"), NEQ)]) is None

    def test_inequality_then_equality_conflict(self, universe):
        tau = empty_type(universe).extend([(var("x"), var("y"), NEQ)])
        assert tau.extend([(var("x"), var("y"), EQ)]) is None

    def test_transitive_conflict(self, universe):
        tau = empty_type(universe).extend(
            [(var("x"), var("y"), EQ), (var("y"), var("r").child("status") , NEQ)]
        )
        assert tau is not None

    def test_distinct_constants_cannot_be_equal(self, universe):
        good, bad = ConstExpr("Good"), ConstExpr("Bad")
        tau = empty_type(universe).extend([(var("v"), good, EQ)])
        assert tau.extend([(var("v"), bad, EQ)]) is None

    def test_same_constant_twice_is_fine(self, universe):
        good = ConstExpr("Good")
        tau = empty_type(universe).extend([(var("v"), good, EQ), (var("w"), good, EQ)])
        assert tau is not None
        assert tau.same_class(var("v"), var("w"))

    def test_congruence_closure(self, universe):
        tau = empty_type(universe).extend([(var("x"), var("y"), EQ)])
        assert tau.same_class(var("x").child("record"), var("y").child("record"))
        assert tau.same_class(
            var("x").child("record").child("status"),
            var("y").child("record").child("status"),
        )

    def test_congruence_detects_conflict(self, universe):
        # x.name = "Good", y.name = "Bad", then x = y must fail via congruence.
        tau = empty_type(universe).extend(
            [
                (var("x").child("name"), ConstExpr("Good"), EQ),
                (var("y").child("name"), ConstExpr("Bad"), EQ),
            ]
        )
        assert tau is not None
        assert tau.extend([(var("x"), var("y"), EQ)]) is None

    def test_incompatible_id_types_forced_to_null(self, universe):
        # x : CUSTOMERS.ID and r : CREDIT_RECORD.ID can only be equal if both null.
        tau = empty_type(universe).extend([(var("x"), var("r"), EQ)])
        assert tau is not None
        assert tau.same_class(var("x"), ConstExpr(None))

    def test_incompatible_types_with_nonnull_conflict(self, universe):
        tau = empty_type(universe).extend([(var("x"), ConstExpr(None), NEQ)])
        assert tau.extend([(var("x"), var("r"), EQ)]) is None

    def test_null_vs_constant_distinct(self, universe):
        tau = empty_type(universe).extend([(var("v"), ConstExpr(None), EQ)])
        assert tau.extend([(var("v"), ConstExpr("Good"), EQ)]) is None


class TestQueries:
    def test_known_distinct_via_edge(self, universe):
        tau = empty_type(universe).extend([(var("x"), var("y"), NEQ)])
        assert tau.known_distinct(var("x"), var("y"))
        assert not tau.known_distinct(var("x"), var("r"))

    def test_known_distinct_via_constants(self, universe):
        tau = empty_type(universe).extend(
            [(var("v"), ConstExpr("Good"), EQ), (var("w"), ConstExpr("Bad"), EQ)]
        )
        assert tau.known_distinct(var("v"), var("w"))

    def test_constraints_listing(self, universe):
        tau = empty_type(universe).extend([(var("x"), var("y"), EQ), (var("v"), var("w"), NEQ)])
        ops = {op for _l, _r, op in tau.constraints()}
        assert ops == {EQ, NEQ}

    def test_equality_and_hash_are_structural(self, universe):
        tau1 = empty_type(universe).extend([(var("x"), var("y"), EQ), (var("v"), var("w"), NEQ)])
        tau2 = empty_type(universe).extend([(var("v"), var("w"), NEQ), (var("y"), var("x"), EQ)])
        assert tau1 == tau2
        assert hash(tau1) == hash(tau2)

    def test_distinct_types_not_equal(self, universe):
        tau1 = empty_type(universe).extend([(var("x"), var("y"), EQ)])
        tau2 = empty_type(universe).extend([(var("x"), var("y"), NEQ)])
        assert tau1 != tau2


class TestEntailment:
    def test_entails_subset(self, universe):
        big = empty_type(universe).extend(
            [(var("x"), var("y"), EQ), (var("v"), ConstExpr("Good"), EQ)]
        )
        small = empty_type(universe).extend([(var("x"), var("y"), EQ)])
        assert big.entails(small)
        assert not small.entails(big)

    def test_everything_entails_empty(self, universe):
        tau = empty_type(universe).extend([(var("x"), var("y"), NEQ)])
        assert tau.entails(empty_type(universe))

    def test_entailment_uses_transitivity(self, universe):
        big = empty_type(universe).extend([(var("x"), var("y"), EQ), (var("y"), var("x"), EQ)])
        small = empty_type(universe).extend([(var("x"), var("y"), EQ)])
        assert big.entails(small)

    def test_entailment_of_neq_through_constants(self, universe):
        big = empty_type(universe).extend(
            [(var("v"), ConstExpr("Good"), EQ), (var("w"), ConstExpr("Bad"), EQ)]
        )
        small = empty_type(universe).extend([(var("v"), var("w"), NEQ)])
        assert big.entails(small)

    def test_reflexive(self, universe):
        tau = empty_type(universe).extend([(var("x"), var("y"), EQ)])
        assert tau.entails(tau)


class TestProjection:
    def test_projection_keeps_only_selected_roots(self, universe):
        tau = empty_type(universe).extend(
            [(var("x"), var("y"), EQ), (var("v"), ConstExpr("Good"), EQ)]
        )
        projected = tau.project(["x", "y"])
        assert projected.same_class(var("x"), var("y"))
        assert not projected.same_class(var("v"), ConstExpr("Good"))

    def test_projection_keeps_navigation_constraints(self, universe):
        tau = empty_type(universe).extend(
            [(var("x").child("record").child("status"), ConstExpr("Good"), EQ)]
        )
        projected = tau.project(["x"])
        assert projected.same_class(
            var("x").child("record").child("status"), ConstExpr("Good")
        )

    def test_projection_keeps_neq_between_kept_roots(self, universe):
        tau = empty_type(universe).extend([(var("x"), var("y"), NEQ)])
        assert tau.project(["x", "y"]).known_distinct(var("x"), var("y"))
        assert not tau.project(["x"]).known_distinct(var("x"), var("y"))

    def test_projection_never_fails_on_consistent_types(self, universe):
        tau = empty_type(universe).extend(
            [
                (var("x"), ConstExpr(None), EQ),
                (var("r"), ConstExpr(None), EQ),
                (var("v"), ConstExpr("Good"), EQ),
                (var("w"), var("v"), NEQ),
            ]
        )
        for roots in (["x"], ["x", "r"], ["v", "w"], [], ["x", "y", "r", "v", "w"]):
            assert tau.project(roots) is not None

    def test_original_entails_projection(self, universe):
        tau = empty_type(universe).extend(
            [(var("x"), var("y"), EQ), (var("v"), var("w"), NEQ), (var("r"), ConstExpr(None), EQ)]
        )
        assert tau.entails(tau.project(["x", "v", "w"]))


class TestRenaming:
    def test_rename_roots_between_universes(self, navigation_schema, universe):
        target = ExpressionUniverse(
            navigation_schema, {"a": IdType("CUSTOMERS"), "b": VALUE}
        )
        tau = empty_type(universe).extend(
            [(var("x").child("name"), var("v"), EQ), (var("v"), ConstExpr("Good"), NEQ)]
        )
        renamed = tau.rename_roots({"x": "a", "v": "b"}, target)
        assert renamed is not None
        assert renamed.same_class(NavExpr("a", ("name",)), NavExpr("b"))
        assert renamed.known_distinct(NavExpr("b"), ConstExpr("Good"))

    def test_rename_drops_unmapped_roots(self, navigation_schema, universe):
        target = ExpressionUniverse(navigation_schema, {"a": IdType("CUSTOMERS")})
        tau = empty_type(universe).extend(
            [(var("x"), var("y"), EQ), (var("v"), ConstExpr("Good"), EQ)]
        )
        renamed = tau.rename_roots({"x": "a"}, target)
        assert renamed is not None
        assert renamed.members() <= {NavExpr("a")} | set(renamed.universe.constants) | {
            NavExpr("a", ("name",)), NavExpr("a", ("record",)), NavExpr("a", ("record", "status"))
        }


# ---------------------------------------------------------------------------
# Property-based tests on random constraint sets
# ---------------------------------------------------------------------------

_EXPR_NAMES = ["x", "y", "v", "w"]


def _constraint_strategy():
    expressions = st.sampled_from(_EXPR_NAMES + ["Good", "Bad", "null"])
    ops = st.sampled_from([EQ, NEQ])
    return st.tuples(expressions, expressions, ops)


def _to_expression(token):
    if token == "null":
        return ConstExpr(None)
    if token in ("Good", "Bad"):
        return ConstExpr(token)
    return NavExpr(token)


@st.composite
def constraint_lists(draw):
    return [draw(_constraint_strategy()) for _ in range(draw(st.integers(0, 8)))]


class TestPropertyBased:
    @given(constraint_lists())
    @settings(max_examples=150, deadline=None)
    def test_extension_is_monotone_and_idempotent(self, navigation_schema_constraints):
        schema = DatabaseSchema.from_dict(
            {"CUSTOMERS": {"name": None, "record": "CREDIT_RECORD"}, "CREDIT_RECORD": {"status": None}}
        )
        universe = ExpressionUniverse(
            schema,
            {"x": IdType("CUSTOMERS"), "y": IdType("CUSTOMERS"), "v": VALUE, "w": VALUE},
        )
        constraints = [
            (_to_expression(a), _to_expression(b), op)
            for a, b, op in navigation_schema_constraints
            if not (a == b and op == NEQ)
        ]
        tau = empty_type(universe).extend(constraints)
        if tau is None:
            return
        # Extending with the same constraints again changes nothing.
        again = tau.extend(constraints)
        assert again is not None and again == tau
        # The extension entails every individual constraint's singleton type.
        for constraint in constraints:
            single = empty_type(universe).extend([constraint])
            if single is not None:
                assert tau.entails(single)
        # Projection onto all roots keeps everything.
        full_projection = tau.project(["x", "y", "v", "w"])
        assert full_projection == tau


# ---------------------------------------------------------------------------
# Property-based tests of the interned representation
# ---------------------------------------------------------------------------

_SCHEMA = DatabaseSchema.from_dict(
    {
        "CUSTOMERS": {"name": None, "record": "CREDIT_RECORD"},
        "CREDIT_RECORD": {"status": None},
    }
)
_ROOTS = {"x": IdType("CUSTOMERS"), "y": IdType("CUSTOMERS"), "r": IdType("CREDIT_RECORD"),
          "v": VALUE, "w": VALUE}
_EXPRESSIONS = [
    NavExpr("x"), NavExpr("x", ("name",)), NavExpr("x", ("record",)),
    NavExpr("x", ("record", "status")), NavExpr("y"), NavExpr("y", ("record",)),
    NavExpr("y", ("record", "status")), NavExpr("r"), NavExpr("r", ("status",)),
    NavExpr("v"), NavExpr("w"), ConstExpr("Good"), ConstExpr("Bad"), ConstExpr(None),
]


def _small_universe():
    universe = ExpressionUniverse(_SCHEMA, _ROOTS)
    universe.add_constant("Good")
    universe.add_constant("Bad")
    return universe


_constraints = st.lists(
    st.tuples(st.sampled_from(_EXPRESSIONS), st.sampled_from(_EXPRESSIONS),
              st.sampled_from([EQ, NEQ])).filter(lambda c: c[0] != c[1] or c[2] == EQ),
    max_size=8,
)
_root_sets = st.sets(st.sampled_from(sorted(_ROOTS)))


def _reference_closure(universe, constraints):
    """Brute-force closure over the whole universe: (class of each expression, consistent)."""
    expressions = list(universe.expressions)
    null = ConstExpr(None)
    cls = {e: {e} for e in expressions}

    def merge(a, b):
        if cls[a] is cls[b]:
            return False
        merged = cls[a] | cls[b]
        for member in merged:
            cls[member] = merged
        return True

    def kind(e):
        if isinstance(e, ConstExpr):
            return "null" if e.is_null else "value"
        t = universe.type_of(e)
        return t.relation if isinstance(t, IdType) else "value"

    for left, right, op in constraints:
        if op == EQ:
            merge(left, right)
    changed = True
    while changed:
        changed = False
        for a in expressions:
            for b in cls[a]:
                navs_b = universe.navigations_of(b)
                for attribute, child in universe.navigations_of(a).items():
                    if attribute in navs_b:
                        changed |= merge(child, navs_b[attribute])
            if len({kind(m) for m in cls[a]} - {"null"}) > 1:
                changed |= merge(a, null)
    consistent = all(
        sum(isinstance(m, ConstExpr) for m in cls[e]) <= 1 for e in expressions
    ) and all(cls[left] is not cls[right] for left, right, op in constraints if op == NEQ)
    return cls, consistent


class TestInternedRepresentation:
    @given(_constraints)
    @settings(max_examples=200, deadline=None)
    def test_extend_matches_brute_force_closure(self, constraints):
        universe = _small_universe()
        tau = empty_type(universe).extend(constraints)
        cls, consistent = _reference_closure(universe, constraints)
        assert (tau is not None) == consistent
        if tau is None:
            return
        for left in _EXPRESSIONS:
            for right in _EXPRESSIONS:
                assert tau.same_class(left, right) == (right in cls[left])
        for left, right, op in constraints:
            if op == NEQ:
                assert tau.known_distinct(left, right)

    @given(_constraints, st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_canonical_key_ignores_constraint_order(self, constraints, rng):
        universe = _small_universe()
        tau = empty_type(universe).extend(constraints)
        shuffled = list(constraints)
        rng.shuffle(shuffled)
        one_by_one = empty_type(universe)
        for constraint in shuffled:
            if one_by_one is not None:
                one_by_one = one_by_one.extend([constraint])
        if tau is None:
            assert one_by_one is None
            return
        assert one_by_one is not None
        assert one_by_one.canonical_key() == tau.canonical_key()
        assert one_by_one.sorted_key() == tau.sorted_key()

    @given(_constraints, _root_sets)
    @settings(max_examples=150, deadline=None)
    def test_types_and_projections_are_closed(self, constraints, roots):
        universe = _small_universe()
        tau = empty_type(universe).extend(constraints)
        if tau is None:
            return
        projected = tau.project(roots)
        for closed in (tau, projected):
            assert PartialIsoType(universe).extend(closed.constraints()) == closed
        assert tau.entails(projected)

    @given(_constraints, _constraints)
    @settings(max_examples=150, deadline=None)
    def test_consistent_extension_entails_the_original(self, first, second):
        universe = _small_universe()
        tau = empty_type(universe).extend(first)
        if tau is None:
            return
        extended = tau.extend(second)
        if extended is not None:
            assert extended.entails(tau)

    @given(_constraints, _constraints, _constraints, _root_sets)
    @settings(max_examples=150, deadline=None)
    def test_entailment_is_reflexive_and_transitive(self, first, second, third, roots):
        universe = _small_universe()
        candidates = []
        for constraints in (first, first + second, first + second + third, second, third):
            tau = empty_type(universe).extend(constraints)
            if tau is not None:
                candidates.extend((tau, tau.project(roots)))
        for a in candidates:
            assert a.entails(a)
            for b in candidates:
                if not a.entails(b):
                    continue
                for c in candidates:
                    if b.entails(c):
                        assert a.entails(c)
