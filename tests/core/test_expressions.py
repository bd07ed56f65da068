"""Unit tests for navigation expressions and the expression universe."""

import pytest

from repro.core.expressions import ConstExpr, ExpressionUniverse, NULL_EXPR, NavExpr
from repro.has.schema import DatabaseSchema
from repro.has.types import IdType, VALUE


@pytest.fixture
def universe(navigation_schema):
    return ExpressionUniverse(
        navigation_schema,
        {"cust": IdType("CUSTOMERS"), "status": VALUE},
    )


class TestConstExpr:
    def test_null(self):
        assert NULL_EXPR.is_null
        assert str(NULL_EXPR) == "null"

    def test_string_rendering(self):
        assert str(ConstExpr("Good")) == '"Good"'
        assert str(ConstExpr(3)) == "3"


class TestNavExpr:
    def test_child_appends_path(self):
        assert NavExpr("x").child("record") == NavExpr("x", ("record",))

    def test_str(self):
        assert str(NavExpr("x", ("record", "status"))) == "x.record.status"

    def test_is_variable(self):
        assert NavExpr("x").is_variable
        assert not NavExpr("x", ("a",)).is_variable


class TestExpressionUniverse:
    def test_contains_navigations_up_to_foreign_keys(self, universe):
        assert universe.contains(NavExpr("cust"))
        assert universe.contains(NavExpr("cust", ("name",)))
        assert universe.contains(NavExpr("cust", ("record",)))
        assert universe.contains(NavExpr("cust", ("record", "status")))

    def test_value_variables_have_no_navigations(self, universe):
        assert universe.navigations_of(NavExpr("status")) == {}

    def test_navigate(self, universe):
        record = universe.navigate(NavExpr("cust"), "record")
        assert record == NavExpr("cust", ("record",))
        assert universe.navigate(record, "status") == NavExpr("cust", ("record", "status"))
        assert universe.navigate(NavExpr("status"), "anything") is None

    def test_types(self, universe):
        assert universe.type_of(NavExpr("cust")) == IdType("CUSTOMERS")
        assert universe.type_of(NavExpr("cust", ("record",))) == IdType("CREDIT_RECORD")
        assert universe.type_of(NavExpr("cust", ("name",))) == VALUE

    def test_add_constant_idempotent(self, universe):
        first = universe.add_constant("Good")
        second = universe.add_constant("Good")
        assert first == second
        assert first in universe.constants

    def test_null_constant_present_by_default(self, universe):
        assert NULL_EXPR in universe.constants

    def test_variable_lookup(self, universe):
        assert universe.variable("cust") == NavExpr("cust")
        with pytest.raises(KeyError):
            universe.variable("missing")

    def test_size_is_finite_and_reasonable(self, universe):
        # cust + name + record + record.status + status variable + null constant
        assert len(universe) == 6

    def test_root_accessors(self, universe):
        assert set(universe.root_names) == {"cust", "status"}
        assert universe.root_type("cust") == IdType("CUSTOMERS")
        assert universe.has_root("status")
        assert not universe.has_root("nope")
