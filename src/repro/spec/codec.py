"""Dict codecs for the HAS* model and LTL-FO properties (schema version 1).

Every model object maps to a plain, JSON-compatible dict (``dump_*``) and back
(``load_*``).  The dict forms are *canonical*: dumping the same object always
produces the same dict, and ``load(dump(x)) == x`` holds structurally for all
objects.  The codecs are the foundation of :mod:`repro.spec.bundle` (file
round-trips) and :mod:`repro.spec.fingerprint` (content-addressed caching in
:mod:`repro.service`).

Forward compatibility follows the versioned-artifact rules documented in
``README.md``: loaders ignore unknown keys (so a newer minor revision may add
fields with defaults) and treat absent optional keys as their defaults.  Only
a major-version bump (``SCHEMA_VERSION``) may remove or retype a field.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Union

from repro.has.artifact_system import ArtifactSystem
from repro.has.conditions import (
    And,
    Condition,
    Const,
    Eq,
    FalseCond,
    Neq,
    Not,
    Or,
    RelationAtom,
    Term,
    TrueCond,
    Var,
)
from repro.has.schema import Attribute, DatabaseSchema, Relation
from repro.has.services import (
    ClosingService,
    Insert,
    InternalService,
    OpeningService,
    Retrieve,
    Update,
)
from repro.has.tasks import ArtifactRelation, TaskSchema, Variable
from repro.has.types import IdType, VALUE, VarType
from repro.ltl.ltlfo import GlobalVariable, LTLFOProperty
from repro.ltl.parser import parse_ltl
from repro.spec.errors import SpecError

#: Major version of the spec document schema.  Bumped only on breaking
#: changes (removing or retyping a field); additions ride on the same version.
SCHEMA_VERSION = 1


def _require(mapping: Mapping[str, Any], key: str, context: str) -> Any:
    try:
        return mapping[key]
    except (KeyError, TypeError):
        raise SpecError(f"{context}: missing required key {key!r}") from None


# ---------------------------------------------------------------------------
# Types and terms
# ---------------------------------------------------------------------------


def dump_type(var_type: VarType) -> str:
    """``ValueType`` -> ``"value"``; ``IdType(R)`` -> ``"id:R"``."""
    if isinstance(var_type, IdType):
        return f"id:{var_type.relation}"
    return "value"


def load_type(text: str) -> VarType:
    if text == "value":
        return VALUE
    if isinstance(text, str) and text.startswith("id:") and len(text) > 3:
        return IdType(text[3:])
    raise SpecError(f"unknown variable type {text!r}")


def dump_term(term: Term) -> Dict[str, Any]:
    if isinstance(term, Var):
        return {"var": term.name}
    if isinstance(term, Const):
        return {"const": term.value}
    raise SpecError(f"cannot serialize term {term!r}")


def load_term(data: Mapping[str, Any]) -> Term:
    if not isinstance(data, Mapping):
        raise SpecError(f"term must be a mapping, got {data!r}")
    if "var" in data:
        return Var(data["var"])
    if "const" in data:
        value = data["const"]
        if value is not None and not isinstance(value, (str, int, float)):
            raise SpecError(f"constant value {value!r} is not JSON-scalar")
        return Const(value)
    raise SpecError(f"term must have a 'var' or 'const' key, got {dict(data)!r}")


# ---------------------------------------------------------------------------
# Conditions
# ---------------------------------------------------------------------------


def dump_condition(condition: Condition) -> Dict[str, Any]:
    """Tagged-dict form of a quantifier-free FO condition."""
    if isinstance(condition, TrueCond):
        return {"op": "true"}
    if isinstance(condition, FalseCond):
        return {"op": "false"}
    if isinstance(condition, Eq):
        return {"op": "eq", "left": dump_term(condition.left), "right": dump_term(condition.right)}
    if isinstance(condition, Neq):
        return {"op": "neq", "left": dump_term(condition.left), "right": dump_term(condition.right)}
    if isinstance(condition, RelationAtom):
        return {
            "op": "atom",
            "relation": condition.relation,
            "args": [dump_term(t) for t in condition.args],
        }
    if isinstance(condition, Not):
        return {"op": "not", "operand": dump_condition(condition.operand)}
    if isinstance(condition, And):
        return {
            "op": "and",
            "left": dump_condition(condition.left),
            "right": dump_condition(condition.right),
        }
    if isinstance(condition, Or):
        return {
            "op": "or",
            "left": dump_condition(condition.left),
            "right": dump_condition(condition.right),
        }
    raise SpecError(f"cannot serialize condition {condition!r}")


def load_condition(data: Mapping[str, Any]) -> Condition:
    op = _require(data, "op", "condition")
    if op == "true":
        return TrueCond()
    if op == "false":
        return FalseCond()
    if op in ("eq", "neq"):
        left = load_term(_require(data, "left", f"condition {op!r}"))
        right = load_term(_require(data, "right", f"condition {op!r}"))
        return Eq(left, right) if op == "eq" else Neq(left, right)
    if op == "atom":
        relation = _require(data, "relation", "relational atom")
        args = [load_term(t) for t in _require(data, "args", "relational atom")]
        return RelationAtom(relation, args)
    if op == "not":
        return Not(load_condition(_require(data, "operand", "negation")))
    if op in ("and", "or"):
        left = load_condition(_require(data, "left", f"condition {op!r}"))
        right = load_condition(_require(data, "right", f"condition {op!r}"))
        return And(left, right) if op == "and" else Or(left, right)
    raise SpecError(f"unknown condition operator {op!r}")


# ---------------------------------------------------------------------------
# Database schema
# ---------------------------------------------------------------------------


def dump_schema(schema: DatabaseSchema) -> Dict[str, Any]:
    relations = []
    for relation in schema.relations:
        attributes = []
        for attr in relation.attributes:
            entry: Dict[str, Any] = {"name": attr.name, "kind": attr.kind}
            if attr.target is not None:
                entry["target"] = attr.target
            attributes.append(entry)
        relations.append({"name": relation.name, "attributes": attributes})
    return {"relations": relations}


def load_schema(data: Mapping[str, Any]) -> DatabaseSchema:
    relations = []
    for entry in _require(data, "relations", "database schema"):
        attributes = tuple(
            Attribute(
                _require(attr, "name", "attribute"),
                attr.get("kind", "value"),
                attr.get("target"),
            )
            for attr in entry.get("attributes", ())
        )
        relations.append(Relation(_require(entry, "name", "relation"), attributes))
    return DatabaseSchema(relations)


# ---------------------------------------------------------------------------
# Tasks
# ---------------------------------------------------------------------------


def dump_variable(variable: Variable) -> Dict[str, Any]:
    return {"name": variable.name, "type": dump_type(variable.type)}


def load_variable(data: Mapping[str, Any]) -> Variable:
    return Variable(
        _require(data, "name", "variable"), load_type(data.get("type", "value"))
    )


def dump_task(task: TaskSchema) -> Dict[str, Any]:
    return {
        "name": task.name,
        "variables": [dump_variable(v) for v in task.variables],
        "artifact_relations": [
            {"name": rel.name, "attributes": [dump_variable(a) for a in rel.attributes]}
            for rel in task.artifact_relations
        ],
        "input_variables": list(task.input_variables),
        "output_variables": list(task.output_variables),
    }


def load_task(data: Mapping[str, Any]) -> TaskSchema:
    relations = [
        ArtifactRelation(
            _require(rel, "name", "artifact relation"),
            [load_variable(a) for a in _require(rel, "attributes", "artifact relation")],
        )
        for rel in data.get("artifact_relations", ())
    ]
    return TaskSchema(
        _require(data, "name", "task"),
        [load_variable(v) for v in data.get("variables", ())],
        relations,
        input_variables=data.get("input_variables", ()),
        output_variables=data.get("output_variables", ()),
    )


# ---------------------------------------------------------------------------
# Services
# ---------------------------------------------------------------------------


def dump_internal_service(service: InternalService) -> Dict[str, Any]:
    update: Optional[Dict[str, Any]] = None
    if service.update is not None:
        update = {
            "kind": "insert" if isinstance(service.update, Insert) else "retrieve",
            "relation": service.update.relation,
            "variables": list(service.update.variables),
        }
    return {
        "name": service.name,
        "task": service.task,
        "pre": dump_condition(service.pre),
        "post": dump_condition(service.post),
        "propagated": sorted(service.propagated),
        "update": update,
    }


def load_internal_service(data: Mapping[str, Any]) -> InternalService:
    update: Optional[Update] = None
    update_data = data.get("update")
    if update_data is not None:
        kind = _require(update_data, "kind", "service update")
        relation = _require(update_data, "relation", "service update")
        variables = _require(update_data, "variables", "service update")
        if kind == "insert":
            update = Insert(relation, variables)
        elif kind == "retrieve":
            update = Retrieve(relation, variables)
        else:
            raise SpecError(f"unknown update kind {kind!r}")
    return InternalService(
        _require(data, "name", "internal service"),
        _require(data, "task", "internal service"),
        pre=load_condition(data.get("pre", {"op": "true"})),
        post=load_condition(data.get("post", {"op": "true"})),
        propagated=data.get("propagated", ()),
        update=update,
    )


def dump_opening_service(service: OpeningService) -> Dict[str, Any]:
    return {
        "task": service.task,
        "pre": dump_condition(service.pre),
        "input_map": [list(pair) for pair in service.input_map],
    }


def load_opening_service(data: Mapping[str, Any]) -> OpeningService:
    return OpeningService(
        _require(data, "task", "opening service"),
        pre=load_condition(data.get("pre", {"op": "true"})),
        input_map=[tuple(pair) for pair in data.get("input_map", ())],
    )


def dump_closing_service(service: ClosingService) -> Dict[str, Any]:
    return {
        "task": service.task,
        "pre": dump_condition(service.pre),
        "output_map": [list(pair) for pair in service.output_map],
    }


def load_closing_service(data: Mapping[str, Any]) -> ClosingService:
    return ClosingService(
        _require(data, "task", "closing service"),
        pre=load_condition(data.get("pre", {"op": "true"})),
        output_map=[tuple(pair) for pair in data.get("output_map", ())],
    )


# ---------------------------------------------------------------------------
# Artifact systems
# ---------------------------------------------------------------------------


def dump_system(system: ArtifactSystem) -> Dict[str, Any]:
    """The canonical dict form of a full HAS* specification."""
    return {
        "name": system.name,
        "schema": dump_schema(system.schema),
        "tasks": [dump_task(task) for task in system.tasks],
        "hierarchy": {name: system.parent_of(name) for name in system.task_names},
        "internal_services": [
            dump_internal_service(s) for s in system.all_internal_services()
        ],
        "opening_services": [
            dump_opening_service(system.opening_service(name)) for name in system.task_names
        ],
        "closing_services": [
            dump_closing_service(system.closing_service(name)) for name in system.task_names
        ],
        "global_precondition": dump_condition(system.global_precondition),
    }


def load_system(data: Mapping[str, Any]) -> ArtifactSystem:
    """Rebuild an :class:`ArtifactSystem` from its canonical dict form.

    Re-runs full HAS* validation, so a hand-edited spec file that violates the
    model's restrictions fails with the same
    :class:`~repro.has.artifact_system.SpecificationError` a programmatic
    construction would raise.
    """
    return ArtifactSystem(
        schema=load_schema(_require(data, "schema", "artifact system")),
        tasks=[load_task(t) for t in _require(data, "tasks", "artifact system")],
        hierarchy=_require(data, "hierarchy", "artifact system"),
        internal_services=[
            load_internal_service(s) for s in data.get("internal_services", ())
        ],
        opening_services=[
            load_opening_service(s) for s in data.get("opening_services", ())
        ],
        closing_services=[
            load_closing_service(s) for s in data.get("closing_services", ())
        ],
        global_precondition=load_condition(
            data.get("global_precondition", {"op": "true"})
        ),
        name=data.get("name", "artifact-system"),
    )


# ---------------------------------------------------------------------------
# LTL-FO properties
# ---------------------------------------------------------------------------


def dump_property(ltl_property: LTLFOProperty) -> Dict[str, Any]:
    """Canonical dict form of an LTL-FO property.

    The LTL skeleton is stored as text: ``str(formula)`` is fully
    parenthesized and parses back to a structurally identical formula.
    """
    return {
        "name": ltl_property.name,
        "task": ltl_property.task,
        "formula": str(ltl_property.formula),
        "conditions": {
            proposition: dump_condition(condition)
            for proposition, condition in sorted(ltl_property.conditions.items())
        },
        "global_variables": [
            {"name": v.name, "type": dump_type(v.type)}
            for v in ltl_property.global_variables
        ],
    }


def _quote_formula(text: str) -> str:
    """*text* quoted for an error message: at most its first 80 characters."""
    if len(text) <= 80:
        return repr(text)
    return f"{text[:80] + '…'!r} ({len(text)} characters)"


def load_property(data: Mapping[str, Any]) -> LTLFOProperty:
    formula_text = _require(data, "formula", "LTL-FO property")
    try:
        formula = parse_ltl(formula_text)
    except ValueError as error:
        quoted = _quote_formula(formula_text)
        raise SpecError(f"cannot parse LTL formula {quoted}: {error}") from None
    return LTLFOProperty(
        _require(data, "task", "LTL-FO property"),
        formula,
        conditions={
            proposition: load_condition(condition)
            for proposition, condition in data.get("conditions", {}).items()
        },
        global_variables=[
            GlobalVariable(
                _require(v, "name", "global variable"),
                load_type(v.get("type", "value")),
            )
            for v in data.get("global_variables", ())
        ],
        name=data.get("name"),
    )
