"""Tests for artifact-system assembly, validation and the fluent builder."""

import pytest

from repro.has.artifact_system import ArtifactSystem, SpecificationError
from repro.has.builder import ArtifactSystemBuilder
from repro.has.conditions import Const, Eq, FalseCond, Neq, NULL, TrueCond, Var
from repro.has.schema import DatabaseSchema
from repro.has.services import ClosingService, Insert, InternalService, OpeningService, Retrieve
from repro.has.tasks import ArtifactRelation, TaskSchema, Variable
from repro.has.types import IdType, VALUE


@pytest.fixture
def schema():
    return DatabaseSchema.from_dict({"ITEMS": {"price": None}})


def simple_task(name="Main", variables=None):
    return TaskSchema(name, variables or [Variable("x"), Variable("item", IdType("ITEMS"))])


class TestValidation:
    def test_single_root_required(self, schema):
        with pytest.raises(SpecificationError, match="exactly one root"):
            ArtifactSystem(
                schema,
                [simple_task("A"), simple_task("B")],
                {"A": None, "B": None},
                [],
            )

    def test_hierarchy_must_cover_all_tasks(self, schema):
        with pytest.raises(SpecificationError):
            ArtifactSystem(schema, [simple_task("A"), simple_task("B")], {"A": None}, [])

    def test_unknown_parent_rejected(self, schema):
        with pytest.raises(SpecificationError):
            ArtifactSystem(schema, [simple_task("A")], {"A": "Ghost"}, [])

    def test_condition_over_unknown_variable_rejected(self, schema):
        service = InternalService("bad", "Main", pre=Eq(Var("nope"), NULL))
        with pytest.raises(SpecificationError, match="nope"):
            ArtifactSystem(schema, [simple_task()], {"Main": None}, [service])

    def test_condition_over_unknown_relation_rejected(self, schema):
        from repro.has.conditions import RelationAtom

        service = InternalService("bad", "Main", pre=RelationAtom("GHOST", [Var("item")]))
        with pytest.raises(SpecificationError, match="GHOST"):
            ArtifactSystem(schema, [simple_task()], {"Main": None}, [service])

    def test_atom_arity_checked(self, schema):
        from repro.has.conditions import RelationAtom

        service = InternalService("bad", "Main", pre=RelationAtom("ITEMS", [Var("item")]))
        with pytest.raises(SpecificationError, match="arity"):
            ArtifactSystem(schema, [simple_task()], {"Main": None}, [service])

    def test_update_requires_propagated_equal_inputs(self, schema):
        task = TaskSchema(
            "Main",
            [Variable("x"), Variable("item", IdType("ITEMS"))],
            [ArtifactRelation("POOL", [Variable("x")])],
        )
        service = InternalService(
            "bad", "Main", update=Insert("POOL", ["x"]), propagated=["x"]
        )
        with pytest.raises(SpecificationError, match="propagated"):
            ArtifactSystem(schema, [task], {"Main": None}, [service])

    def test_update_type_mismatch_rejected(self, schema):
        task = TaskSchema(
            "Main",
            [Variable("x"), Variable("item", IdType("ITEMS"))],
            [ArtifactRelation("POOL", [Variable("x")])],
        )
        service = InternalService("bad", "Main", update=Insert("POOL", ["item"]))
        with pytest.raises(SpecificationError, match="type"):
            ArtifactSystem(schema, [task], {"Main": None}, [service])

    def test_opening_map_must_cover_inputs(self, schema):
        parent = simple_task("Parent")
        child = TaskSchema("Child", [Variable("y", IdType("ITEMS"))], input_variables=["y"])
        opening = OpeningService("Child", TrueCond(), {})
        with pytest.raises(SpecificationError, match="input map"):
            ArtifactSystem(
                schema,
                [parent, child],
                {"Parent": None, "Child": "Parent"},
                [],
                opening_services=[opening],
            )

    def test_closing_returned_variables_disjoint_from_parent_inputs(self, schema):
        parent = TaskSchema(
            "Parent", [Variable("p", IdType("ITEMS"))], input_variables=["p"]
        )
        grand = TaskSchema("Grand", [Variable("g", IdType("ITEMS"))])
        child = TaskSchema(
            "Child", [Variable("c", IdType("ITEMS"))], output_variables=["c"]
        )
        closing = ClosingService("Child", TrueCond(), {"c": "p"})
        with pytest.raises(SpecificationError, match="input"):
            ArtifactSystem(
                schema,
                [grand, parent, child],
                {"Grand": None, "Parent": "Grand", "Child": "Parent"},
                [],
                opening_services=[OpeningService("Parent", TrueCond(), {"p": "g"})],
                closing_services=[closing],
            )

    def test_defaults_for_missing_services(self, schema):
        system = ArtifactSystem(schema, [simple_task()], {"Main": None}, [])
        assert isinstance(system.closing_service("Main").pre, FalseCond)
        assert isinstance(system.opening_service("Main").pre, TrueCond)


class TestAccessors:
    def test_hierarchy_navigation(self, tiny_system):
        assert tiny_system.root == "Main"
        assert tiny_system.children_of("Main") == ()
        assert tiny_system.parent_of("Main") is None
        assert tiny_system.descendants_of("Main") == ()

    def test_observable_services(self, tiny_system):
        names = tiny_system.observable_service_names("Main")
        assert "pick" in names and "open_Main" in names and "close_Main" in names

    def test_statistics(self, tiny_system):
        stats = tiny_system.statistics()
        assert stats["tasks"] == 1
        assert stats["variables"] == 2
        assert stats["services"] == 3 + 2  # three internal + opening/closing

    def test_multi_level_descendants(self, items_schema):
        builder = ArtifactSystemBuilder("tree", items_schema)
        builder.task("A").variable("x")
        builder.task("B", parent="A").variable("y")
        builder.task("C", parent="B").variable("z")
        system = builder.build()
        assert system.descendants_of("A") == ("B", "C")
        assert system.children_of("A") == ("B",)


class TestBuilder:
    def test_duplicate_task_rejected(self, items_schema):
        builder = ArtifactSystemBuilder("dup", items_schema)
        builder.task("A").variable("x")
        with pytest.raises(ValueError):
            builder.task("A")

    def test_parent_must_exist(self, items_schema):
        builder = ArtifactSystemBuilder("orphan", items_schema)
        with pytest.raises(ValueError):
            builder.task("B", parent="A")

    def test_artifact_relation_requires_declared_variables(self, items_schema):
        builder = ArtifactSystemBuilder("rel", items_schema)
        task = builder.task("Main")
        task.variable("x")
        with pytest.raises(KeyError):
            task.artifact_relation("POOL", ["x", "ghost"])

    def test_a_service_cannot_both_insert_and_retrieve(self, items_schema):
        builder = ArtifactSystemBuilder("bad", items_schema)
        task = builder.task("Main")
        task.variable("x")
        task.artifact_relation("POOL", ["x"])
        with pytest.raises(ValueError):
            task.internal_service("oops", insert=("POOL", ["x"]), retrieve=("POOL", ["x"]))

    def test_default_global_precondition_initialises_root_to_null(self, tiny_system):
        precondition = tiny_system.global_precondition
        assert precondition.variables() == {"item", "status"}

    def test_explicit_global_precondition_is_kept(self, items_schema):
        builder = ArtifactSystemBuilder(
            "custom", items_schema, global_precondition=Eq(Var("status"), Const("boot"))
        )
        builder.task("Main").variable("status")
        system = builder.build()
        assert system.global_precondition == Eq(Var("status"), Const("boot"))

    def test_default_io_maps_use_matching_names(self, items_schema):
        builder = ArtifactSystemBuilder("io", items_schema)
        parent = builder.task("Parent")
        parent.id_variable("item", "ITEMS")
        parent.variable("result")
        child = builder.task("Child", parent="Parent")
        child.id_variable("item", "ITEMS", input=True)
        child.variable("result", output=True)
        system = builder.build()
        assert system.opening_service("Child").input_mapping() == {"item": "item"}
        assert system.closing_service("Child").output_mapping() == {"result": "result"}
