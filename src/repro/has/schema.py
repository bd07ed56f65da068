"""Database schemas with keys and acyclic foreign keys (Definition 1).

A relation ``R(ID, A1..An, F1..Fm)`` has a key attribute ``ID``, a set of
non-key (data-valued) attributes and a set of foreign-key attributes, each
referencing the key of another relation.  The schema must be *acyclic*: the
graph whose nodes are relations and whose edges follow foreign keys must not
contain a cycle.  Acyclicity is what makes the set of navigation expressions
(Section 3.2) finite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.has.types import IdType, ValueType, VarType, VALUE


class SchemaError(ValueError):
    """Raised when a database schema is malformed (dangling or cyclic FKs, ...)."""


@dataclass(frozen=True)
class Attribute:
    """A non-key attribute of a relation.

    ``kind`` is either ``"value"`` (data attribute) or ``"fk"`` (foreign key);
    foreign keys carry the name of the referenced relation in ``target``.
    """

    name: str
    kind: str = "value"
    target: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in ("value", "fk"):
            raise SchemaError(f"unknown attribute kind {self.kind!r} for {self.name!r}")
        if self.kind == "fk" and not self.target:
            raise SchemaError(f"foreign key attribute {self.name!r} must name a target relation")
        if self.kind == "value" and self.target is not None:
            raise SchemaError(f"value attribute {self.name!r} must not have a target")

    @property
    def is_foreign_key(self) -> bool:
        return self.kind == "fk"

    def type_in(self, schema: "DatabaseSchema") -> VarType:
        """The type of this attribute: ``ValueType`` or the target's id type."""
        if self.is_foreign_key:
            assert self.target is not None
            return IdType(self.target)
        return VALUE


def value_attr(name: str) -> Attribute:
    """Convenience constructor for a data-valued attribute."""
    return Attribute(name, "value")


def fk_attr(name: str, target: str) -> Attribute:
    """Convenience constructor for a foreign-key attribute referencing *target*."""
    return Attribute(name, "fk", target)


@dataclass(frozen=True)
class Relation:
    """A database relation ``R(ID, A1..An, F1..Fm)``.

    The key attribute ``ID`` is implicit and always present; ``attributes``
    lists the non-key attributes (value attributes and foreign keys) in
    declaration order.  Atoms ``R(x, y1, ..., yk)`` in conditions list the id
    term first followed by one term per declared attribute, in this order.
    """

    name: str
    attributes: Tuple[Attribute, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        names = [a.name for a in self.attributes]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate attribute names in relation {self.name!r}")
        if "ID" in names:
            raise SchemaError(
                f"relation {self.name!r} must not declare 'ID' explicitly; the key is implicit"
            )

    @property
    def arity(self) -> int:
        """Number of attributes including the implicit key."""
        return 1 + len(self.attributes)

    @property
    def attribute_names(self) -> Tuple[str, ...]:
        return tuple(a.name for a in self.attributes)

    @property
    def foreign_keys(self) -> Tuple[Attribute, ...]:
        return tuple(a for a in self.attributes if a.is_foreign_key)

    @property
    def value_attributes(self) -> Tuple[Attribute, ...]:
        return tuple(a for a in self.attributes if not a.is_foreign_key)

    def attribute(self, name: str) -> Attribute:
        for attr in self.attributes:
            if attr.name == name:
                return attr
        raise KeyError(f"relation {self.name!r} has no attribute {name!r}")

    def has_attribute(self, name: str) -> bool:
        return any(a.name == name for a in self.attributes)


class DatabaseSchema:
    """An acyclic database schema: a collection of relations (Definition 1)."""

    def __init__(self, relations: Iterable[Relation]):
        self._relations: Dict[str, Relation] = {}
        for relation in relations:
            if relation.name in self._relations:
                raise SchemaError(f"duplicate relation name {relation.name!r}")
            self._relations[relation.name] = relation
        self._validate_foreign_keys()
        self._check_acyclic()

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_dict(cls, spec: Dict[str, Dict[str, Optional[str]]]) -> "DatabaseSchema":
        """Build a schema from ``{relation: {attribute: None | target_relation}}``.

        A ``None`` value declares a data attribute; a string declares a
        foreign key referencing that relation.

        >>> schema = DatabaseSchema.from_dict({
        ...     "CUSTOMERS": {"name": None, "record": "CREDIT_RECORD"},
        ...     "CREDIT_RECORD": {"status": None},
        ... })
        >>> schema.relation("CUSTOMERS").attribute("record").is_foreign_key
        True
        """
        relations = []
        for rel_name, attrs in spec.items():
            attributes = tuple(
                fk_attr(attr, target) if target else value_attr(attr)
                for attr, target in attrs.items()
            )
            relations.append(Relation(rel_name, attributes))
        return cls(relations)

    # -- validation ------------------------------------------------------------

    def _validate_foreign_keys(self) -> None:
        for relation in self._relations.values():
            for attr in relation.foreign_keys:
                if attr.target not in self._relations:
                    raise SchemaError(
                        f"foreign key {relation.name}.{attr.name} references unknown "
                        f"relation {attr.target!r}"
                    )

    def _check_acyclic(self) -> None:
        # Depth-first search over the foreign-key graph, detecting back edges.
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {name: WHITE for name in self._relations}

        def visit(name: str, stack: List[str]) -> None:
            color[name] = GRAY
            stack.append(name)
            for attr in self._relations[name].foreign_keys:
                target = attr.target
                assert target is not None
                if color[target] == GRAY:
                    cycle = " -> ".join(stack + [target])
                    raise SchemaError(f"foreign keys form a cycle: {cycle}")
                if color[target] == WHITE:
                    visit(target, stack)
            stack.pop()
            color[name] = BLACK

        for name in self._relations:
            if color[name] == WHITE:
                visit(name, [])

    # -- accessors ------------------------------------------------------------

    @property
    def relations(self) -> Tuple[Relation, ...]:
        return tuple(self._relations.values())

    @property
    def relation_names(self) -> Tuple[str, ...]:
        return tuple(self._relations)

    def relation(self, name: str) -> Relation:
        try:
            return self._relations[name]
        except KeyError:
            raise KeyError(f"unknown relation {name!r}") from None

    def has_relation(self, name: str) -> bool:
        return name in self._relations

    def attribute_type(self, relation_name: str, attribute_name: str) -> VarType:
        """Type of ``relation.attribute`` (ValueType or target relation's IdType)."""
        return self.relation(relation_name).attribute(attribute_name).type_in(self)

    def navigation_depth(self) -> int:
        """Length of the longest foreign-key chain in the schema.

        This bounds the length of navigation expressions (Section 3.2).
        """
        memo: Dict[str, int] = {}

        def depth(name: str) -> int:
            if name in memo:
                return memo[name]
            relation = self._relations[name]
            best = 0
            for attr in relation.foreign_keys:
                assert attr.target is not None
                best = max(best, 1 + depth(attr.target))
            memo[name] = best
            return best

        return max((depth(name) for name in self._relations), default=0)

    def __eq__(self, other: object) -> bool:
        """Structural equality: same relations with the same attributes, in order."""
        if not isinstance(other, DatabaseSchema):
            return NotImplemented
        return tuple(self._relations.values()) == tuple(other._relations.values())

    #: Schemas are compared structurally but hashed by identity (they are
    #: never used as dict keys across instances).
    __hash__ = object.__hash__

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and name in self._relations

    def __len__(self) -> int:
        return len(self._relations)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DatabaseSchema({list(self._relations)})"

    def describe(self) -> str:
        """A human-readable, multi-line description of the schema."""
        lines = []
        for relation in self.relations:
            parts = ["ID"]
            for attr in relation.attributes:
                if attr.is_foreign_key:
                    parts.append(f"{attr.name} -> {attr.target}")
                else:
                    parts.append(attr.name)
            lines.append(f"{relation.name}({', '.join(parts)})")
        return "\n".join(lines)
