"""Round-trip tests of the spec serialization layer (repro.spec).

The core guarantee: ``load(dump(x)) == x`` structurally, for full artifact
systems (the quickstart, loan-origination and order-fulfillment examples) and
LTL-FO properties, through dicts, JSON text and files.
"""

from __future__ import annotations

import importlib.util
import json
import os

import pytest

from repro.benchmark.properties import LTL_TEMPLATES, generate_properties
from repro.benchmark.realworld import loan_origination, order_fulfillment
from repro.has.conditions import And, Const, Eq, Neq, Not, NULL, Or, RelationAtom, Var
from repro.has.types import IdType
from repro.ltl import GlobalVariable, LTLFOProperty, parse_ltl
from repro.spec import (
    SCHEMA_VERSION,
    SpecBundle,
    SpecError,
    SpecVersionError,
    dump_condition,
    dump_property,
    dump_system,
    fingerprint,
    load_condition,
    load_property,
    load_spec,
    load_system,
    save_spec,
)


def _quickstart_system():
    """The system built by examples/quickstart.py, imported from the example file."""
    examples = os.path.join(
        os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
        "examples",
    )
    spec = importlib.util.spec_from_file_location(
        "quickstart_example", os.path.join(examples, "quickstart.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.build_system()


SYSTEM_FACTORIES = {
    "quickstart": _quickstart_system,
    "loan-origination": loan_origination,
    "order-fulfillment": order_fulfillment,
}


@pytest.mark.parametrize("name", sorted(SYSTEM_FACTORIES))
class TestSystemRoundTrip:
    def test_dict_roundtrip_is_identity(self, name):
        system = SYSTEM_FACTORIES[name]()
        assert load_system(dump_system(system)) == system

    def test_dump_is_deterministic_and_json_compatible(self, name):
        system = SYSTEM_FACTORIES[name]()
        first, second = dump_system(system), dump_system(SYSTEM_FACTORIES[name]())
        assert first == second
        assert fingerprint(first) == fingerprint(second)
        json.dumps(first)  # must not raise

    def test_json_text_roundtrip(self, name):
        system = SYSTEM_FACTORIES[name]()
        bundle = SpecBundle(system)
        assert SpecBundle.loads(bundle.dumps()).system == system

    def test_file_roundtrip_with_properties(self, name, tmp_path):
        system = SYSTEM_FACTORIES[name]()
        properties = generate_properties(system, templates=LTL_TEMPLATES[:3])
        path = tmp_path / f"{name}.spec.json"
        save_spec(system, path, properties=properties)
        bundle = load_spec(path)
        assert bundle.system == system
        assert bundle.properties == properties


class TestRelationSystemRoundTrip:
    def test_artifact_relations_and_updates(self, relation_system):
        assert load_system(dump_system(relation_system)) == relation_system

    def test_fingerprint_changes_with_content(self, tiny_system, relation_system):
        assert fingerprint(dump_system(tiny_system)) != fingerprint(
            dump_system(relation_system)
        )


class TestPropertyRoundTrip:
    def test_property_with_global_variables(self):
        ltl_property = LTLFOProperty(
            "ProcessOrders",
            parse_ltl("G ((close_TakeOrder & oos) -> ((!(ship & same)) U (restock & same)))"),
            conditions={
                "oos": And(Eq(Var("item_id"), Var("i")), Eq(Var("instock"), Const("No"))),
                "same": Eq(Var("item_id"), Var("i")),
                "ship": Neq(Var("status"), NULL),
                "restock": RelationAtom("ITEMS", [Var("i"), Const(10), Const("books")]),
            },
            global_variables=[GlobalVariable("i", IdType("ITEMS"))],
            name="restock-before-ship",
        )
        assert load_property(dump_property(ltl_property)) == ltl_property

    def test_formula_text_parses_back_identically(self):
        for template in LTL_TEMPLATES[1:]:  # skip the empty False baseline text
            formula = template.formula()
            assert parse_ltl(str(formula)) == formula

    def test_condition_codec_covers_all_connectives(self):
        condition = Or(
            Not(RelationAtom("R", [Var("x"), NULL])),
            And(Eq(Var("x"), Const(3.5)), Neq(Var("y"), Const("text"))),
        )
        assert load_condition(dump_condition(condition)) == condition


class TestCompatibilityRules:
    def test_unknown_keys_are_ignored(self, tiny_system):
        data = SpecBundle(tiny_system).to_dict()
        data["future_field"] = {"added": "in a later minor revision"}
        data["system"]["future_field"] = 1
        data["system"]["tasks"][0]["future_field"] = True
        data["system"]["internal_services"][0]["future_field"] = []
        assert SpecBundle.from_dict(data).system == tiny_system

    def test_missing_optional_keys_get_defaults(self, tiny_system):
        data = SpecBundle(tiny_system).to_dict()
        del data["generator"]
        for service in data["system"]["internal_services"]:
            service.pop("update")
        assert SpecBundle.from_dict(data).system == tiny_system

    def test_newer_major_version_is_rejected(self, tiny_system):
        data = SpecBundle(tiny_system).to_dict()
        data["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(SpecVersionError):
            SpecBundle.from_dict(data)

    def test_version_defaults_to_one(self, tiny_system):
        data = SpecBundle(tiny_system).to_dict()
        del data["schema_version"]
        assert SpecBundle.from_dict(data).system == tiny_system


class TestErrors:
    def test_unknown_condition_operator(self):
        with pytest.raises(SpecError, match="unknown condition operator"):
            load_condition({"op": "xor"})

    def test_malformed_term(self):
        with pytest.raises(SpecError, match="'var' or 'const'"):
            load_condition({"op": "eq", "left": {"bogus": 1}, "right": {"var": "x"}})

    def test_unparsable_formula(self):
        with pytest.raises(SpecError, match="cannot parse LTL formula"):
            load_property({"task": "T", "formula": "G (("})

    def test_long_unparsable_formula_is_quoted_by_its_head(self):
        formula = "G (" + "p & " * 500
        with pytest.raises(SpecError) as caught:
            load_property({"task": "T", "formula": formula})
        message = str(caught.value)
        assert repr(formula[:80] + "…") in message
        assert f"({len(formula)} characters)" in message
        assert len(message) < 200

    def test_missing_system_section(self):
        with pytest.raises(SpecError, match="no 'system' section"):
            SpecBundle.from_dict({"schema_version": 1})

    def test_malformed_json_document(self):
        with pytest.raises(SpecError, match="malformed JSON"):
            SpecBundle.loads("{not json")

    def test_loaded_spec_is_revalidated(self, tiny_system):
        data = dump_system(tiny_system)
        data["hierarchy"]["Main"] = "Main"  # self-parent: no root
        from repro.has.artifact_system import SpecificationError

        with pytest.raises(SpecificationError):
            load_system(data)


class TestViolatedResultRoundTrip:
    """Serialized verification results carrying a real counterexample.

    The satisfied path is covered elsewhere; this pins the violated path: the
    counterexample must survive dict -> JSON text -> dict -> object intact.
    """

    @pytest.fixture
    def violated_result(self, tiny_system):
        from repro import Verifier, VerifierOptions

        ltl_property = LTLFOProperty(
            "Main",
            parse_ltl("G ns"),
            {"ns": Neq(Var("status"), Const("shipped"))},
            name="never-shipped",
        )
        result = Verifier(tiny_system, VerifierOptions(timeout_seconds=30)).verify(ltl_property)
        assert result.violated and result.counterexample is not None
        return result

    def test_counterexample_survives_json_roundtrip(self, violated_result):
        from repro.core.verifier import VerificationResult

        text = json.dumps(violated_result.as_dict())
        rebuilt = VerificationResult.from_dict(json.loads(text))
        assert rebuilt.violated
        assert rebuilt.as_dict() == violated_result.as_dict()
        original = violated_result.counterexample
        clone = rebuilt.counterexample
        assert clone is not None and len(clone) == len(original)
        assert clone.witness == original.witness
        assert [
            (step.service, step.description, step.buchi_state) for step in clone.steps
        ] == [
            (step.service, step.description, step.buchi_state) for step in original.steps
        ]
        assert clone.services() == original.services()
        assert clone.pretty() == original.pretty()

    def test_counterexample_roundtrip_is_canonical(self, violated_result):
        """Dump -> load -> dump is a fixpoint, so fingerprints stay stable."""
        from repro.core.verifier import VerificationResult

        first = violated_result.as_dict()
        second = VerificationResult.from_dict(first).as_dict()
        assert fingerprint(first) == fingerprint(second)


class TestYaml:
    def test_yaml_roundtrip_when_available(self, tiny_system, tmp_path):
        pytest.importorskip("yaml")
        path = tmp_path / "tiny.spec.yaml"
        save_spec(tiny_system, path)
        assert load_spec(path).system == tiny_system
