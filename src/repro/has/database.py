"""Concrete database instances of a :class:`~repro.has.schema.DatabaseSchema`.

A :class:`Database` is a finite instance of the read-only database: for each
relation a finite set of tuples, satisfying the key constraint (one tuple per
id) and all foreign-key inclusion dependencies.  It is used by the concrete
run simulator and by the differential tests; the symbolic verifier itself
never materialises a database.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.has.schema import DatabaseSchema, Relation


class DatabaseError(ValueError):
    """Raised when a concrete database violates key or foreign-key constraints."""


class Database:
    """A finite, constraint-satisfying instance of a database schema."""

    def __init__(
        self,
        schema: DatabaseSchema,
        tuples: Mapping[str, Iterable[Sequence[object]]] = (),
    ):
        self.schema = schema
        self._rows: Dict[str, Dict[object, Tuple[object, ...]]] = {
            name: {} for name in schema.relation_names
        }
        if tuples:
            for relation_name, rows in dict(tuples).items():
                for row in rows:
                    self.insert(relation_name, row)
        self.validate()

    # -- mutation --------------------------------------------------------------

    def insert(self, relation_name: str, row: Sequence[object]) -> None:
        """Insert ``row = (id, attr1, ..., attrK)`` into *relation_name*."""
        relation = self.schema.relation(relation_name)
        row = tuple(row)
        if len(row) != relation.arity:
            raise DatabaseError(
                f"tuple {row!r} has arity {len(row)}, relation {relation_name!r} expects "
                f"{relation.arity}"
            )
        key = row[0]
        if key is None:
            raise DatabaseError("database tuples may not have a null id")
        existing = self._rows[relation_name].get(key)
        if existing is not None and existing != row:
            raise DatabaseError(
                f"key violation in {relation_name!r}: id {key!r} already maps to {existing!r}"
            )
        self._rows[relation_name][key] = row

    # -- validation ------------------------------------------------------------

    def validate(self) -> None:
        """Check all foreign-key inclusion dependencies."""
        for relation_name, rows in self._rows.items():
            relation = self.schema.relation(relation_name)
            for row in rows.values():
                for position, attr in enumerate(relation.attributes, start=1):
                    if attr.is_foreign_key and row[position] is not None:
                        target = attr.target
                        assert target is not None
                        if row[position] not in self._rows[target]:
                            raise DatabaseError(
                                f"foreign key violation: {relation_name}.{attr.name} value "
                                f"{row[position]!r} has no matching {target} id"
                            )

    # -- queries ---------------------------------------------------------------

    def contains_tuple(self, relation: str, values: Sequence[object]) -> bool:
        """Whether the relation contains exactly this tuple (id first)."""
        rows = self._rows.get(relation)
        if rows is None:
            return False
        key = values[0]
        row = rows.get(key)
        return row is not None and row == tuple(values)

    def lookup(self, relation: str, key: object) -> Optional[Tuple[object, ...]]:
        """The tuple with the given id, or ``None``."""
        return self._rows.get(relation, {}).get(key)

    def attribute_of(self, relation: str, key: object, attribute: str) -> object:
        """Value of ``relation.attribute`` for the tuple with the given id.

        Returns ``None`` when the id is not present (mirrors navigation to a
        dangling reference, which cannot happen for non-null foreign keys).
        """
        row = self.lookup(relation, key)
        if row is None:
            return None
        rel = self.schema.relation(relation)
        index = 1 + list(rel.attribute_names).index(attribute)
        return row[index]

    def rows(self, relation: str) -> Tuple[Tuple[object, ...], ...]:
        return tuple(self._rows[relation].values())

    def ids(self, relation: str) -> Tuple[object, ...]:
        return tuple(self._rows[relation].keys())

    def active_domain(self) -> Set[object]:
        """All values occurring anywhere in the database."""
        domain: Set[object] = set()
        for rows in self._rows.values():
            for row in rows.values():
                domain.update(v for v in row if v is not None)
        return domain

    def values_of_type(self, relation: Optional[str]) -> Tuple[object, ...]:
        """Candidate values for a variable: ids of *relation*, or all data values."""
        if relation is not None:
            return self.ids(relation)
        values: List[object] = []
        for rel_name, rows in self._rows.items():
            rel = self.schema.relation(rel_name)
            for row in rows.values():
                for position, attr in enumerate(rel.attributes, start=1):
                    if not attr.is_foreign_key and row[position] is not None:
                        values.append(row[position])
        return tuple(dict.fromkeys(values))

    def __len__(self) -> int:
        return sum(len(rows) for rows in self._rows.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sizes = {name: len(rows) for name, rows in self._rows.items()}
        return f"Database({sizes})"
