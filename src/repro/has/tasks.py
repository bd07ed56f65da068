"""Task schemas: artifact variables, artifact relations, input/output variables.

A task schema (Definition 3) is a tuple ``(x̄, S, x̄_in, x̄_out)`` where ``x̄``
is a sequence of typed artifact variables, ``S`` a set of artifact relations
local to the task, and ``x̄_in`` / ``x̄_out`` the subsequences of input and
output variables used when the task is opened / closed by its parent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.has.types import IdType, ValueType, VarType, VALUE, is_id_type


class TaskError(ValueError):
    """Raised when a task schema is malformed."""


@dataclass(frozen=True)
class Variable:
    """A typed artifact variable.

    ``Variable("cust_id", IdType("CUSTOMERS"))`` is an id variable ranging
    over ``Dom(CUSTOMERS.ID) ∪ {null}``; ``Variable("status")`` is a data
    variable ranging over ``DOM_val ∪ {null}``.
    """

    name: str
    type: VarType = VALUE

    @property
    def is_id(self) -> bool:
        return is_id_type(self.type)

    def __str__(self) -> str:
        return f"{self.name}: {self.type}"


@dataclass(frozen=True)
class ArtifactRelation:
    """An updatable artifact relation local to a task.

    Tuples inserted into the relation have one component per attribute;
    attribute types mirror variable types (data values or ids of a specific
    database relation).
    """

    name: str
    attributes: Tuple[Variable, ...]

    def __init__(self, name: str, attributes: Iterable[Variable]):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "attributes", tuple(attributes))
        names = [a.name for a in self.attributes]
        if len(set(names)) != len(names):
            raise TaskError(f"duplicate attribute names in artifact relation {name!r}")
        if not self.attributes:
            raise TaskError(f"artifact relation {name!r} needs at least one attribute")

    @property
    def attribute_names(self) -> Tuple[str, ...]:
        return tuple(a.name for a in self.attributes)

    @property
    def arity(self) -> int:
        return len(self.attributes)

    def attribute(self, name: str) -> Variable:
        for attr in self.attributes:
            if attr.name == name:
                return attr
        raise KeyError(f"artifact relation {self.name!r} has no attribute {name!r}")

    def __str__(self) -> str:
        return f"{self.name}({', '.join(a.name for a in self.attributes)})"


class TaskSchema:
    """A task schema ``T = (x̄, S, x̄_in, x̄_out)`` (Definition 3)."""

    def __init__(
        self,
        name: str,
        variables: Sequence[Variable],
        artifact_relations: Sequence[ArtifactRelation] = (),
        input_variables: Sequence[str] = (),
        output_variables: Sequence[str] = (),
    ):
        self.name = name
        self._variables: Dict[str, Variable] = {}
        for var in variables:
            if var.name in self._variables:
                raise TaskError(f"duplicate variable {var.name!r} in task {name!r}")
            self._variables[var.name] = var
        self._relations: Dict[str, ArtifactRelation] = {}
        for rel in artifact_relations:
            if rel.name in self._relations:
                raise TaskError(f"duplicate artifact relation {rel.name!r} in task {name!r}")
            self._relations[rel.name] = rel
        self.input_variables: Tuple[str, ...] = tuple(input_variables)
        self.output_variables: Tuple[str, ...] = tuple(output_variables)
        for var_name in self.input_variables + self.output_variables:
            if var_name not in self._variables:
                raise TaskError(
                    f"input/output variable {var_name!r} is not a variable of task {name!r}"
                )
        if len(set(self.input_variables)) != len(self.input_variables):
            raise TaskError(f"duplicate input variables in task {name!r}")
        if len(set(self.output_variables)) != len(self.output_variables):
            raise TaskError(f"duplicate output variables in task {name!r}")

    # -- accessors ------------------------------------------------------------

    @property
    def variables(self) -> Tuple[Variable, ...]:
        return tuple(self._variables.values())

    @property
    def variable_names(self) -> Tuple[str, ...]:
        return tuple(self._variables)

    @property
    def value_variables(self) -> Tuple[Variable, ...]:
        return tuple(v for v in self._variables.values() if not v.is_id)

    @property
    def artifact_relations(self) -> Tuple[ArtifactRelation, ...]:
        return tuple(self._relations.values())

    def variable(self, name: str) -> Variable:
        try:
            return self._variables[name]
        except KeyError:
            raise KeyError(f"task {self.name!r} has no variable {name!r}") from None

    def has_variable(self, name: str) -> bool:
        return name in self._variables

    def artifact_relation(self, name: str) -> ArtifactRelation:
        try:
            return self._relations[name]
        except KeyError:
            raise KeyError(f"task {self.name!r} has no artifact relation {name!r}") from None

    def has_artifact_relation(self, name: str) -> bool:
        return name in self._relations

    def variable_type(self, name: str) -> VarType:
        return self.variable(name).type

    def __eq__(self, other: object) -> bool:
        """Structural equality: same name, variables, relations and I/O lists."""
        if not isinstance(other, TaskSchema):
            return NotImplemented
        return (
            self.name == other.name
            and self.variables == other.variables
            and self.artifact_relations == other.artifact_relations
            and self.input_variables == other.input_variables
            and self.output_variables == other.output_variables
        )

    __hash__ = object.__hash__

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TaskSchema({self.name!r}, vars={list(self._variables)}, "
            f"relations={list(self._relations)})"
        )
