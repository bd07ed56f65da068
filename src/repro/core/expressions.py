"""Navigation expressions (Section 3.2).

An *expression* is either a constant occurring in the specification or the
property, or a navigation chain ``x.F1.F2...A`` that starts at an id-typed
artifact variable (or artifact-relation attribute) and follows foreign keys of
the read-only database, optionally ending in a non-key attribute.  Because the
database schema is acyclic, the set ``E`` of all expressions is finite.

The :class:`ExpressionUniverse` materialises this finite set for one task
(plus the global variables of the property under verification) and interns
it: every expression is numbered by its position in the universe, its *id*.
Per-id tables give the child navigation ids (for congruence closure: if
``e ~ e'`` then ``e.A ~ e'.A``), a kind tag (null, data value, or id of a
relation), the constant flag and the root variable, so the
partial-isomorphism-type machinery works on ints and never renders an
expression as a string.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple, Union

from repro.has.schema import DatabaseSchema
from repro.has.types import IdType, VALUE, ValueType, VarType


@dataclass(frozen=True)
class ConstExpr:
    """A constant expression (``None`` is the ``null`` constant)."""

    value: Union[str, int, float, None]

    @property
    def is_null(self) -> bool:
        return self.value is None

    def __str__(self) -> str:
        if self.value is None:
            return "null"
        if isinstance(self.value, str):
            return f'"{self.value}"'
        return str(self.value)


@dataclass(frozen=True)
class NavExpr:
    """A navigation expression: a root variable name plus a path of attribute names.

    ``NavExpr("cust_id", ())`` is the variable itself;
    ``NavExpr("cust_id", ("record", "status"))`` navigates the ``record``
    foreign key and then reads the ``status`` attribute.
    """

    root: str
    path: Tuple[str, ...] = ()

    def child(self, attribute: str) -> "NavExpr":
        return NavExpr(self.root, self.path + (attribute,))

    @property
    def is_variable(self) -> bool:
        return not self.path

    def __str__(self) -> str:
        return ".".join((self.root,) + self.path)


Expression = Union[ConstExpr, NavExpr]

#: The null constant expression.
NULL_EXPR = ConstExpr(None)


#: Kind tag of the ``null`` constant (compatible with every kind).
NULL_KIND = 0
#: Kind tag of data values: non-null constants and value-typed navigations.
#: Ids of the k-th relation met by a universe get the tag ``VALUE_KIND + 1 + k``.
VALUE_KIND = 1
#: The largest id: partial isomorphism types pack an edge's two ids into one int.
MAX_ID = (1 << 16) - 1


class ExpressionUniverse:
    """The finite, interned set of expressions for one collection of typed roots.

    ``roots`` maps a root name (artifact variable, global property variable or
    artifact-relation attribute) to its type.  The universe contains, for each
    id-typed root, every navigation expression obtainable by following foreign
    keys of the (acyclic) schema, plus every constant registered with
    :meth:`add_constant`.  Ids are assigned in registration order: the
    navigations of each root depth-first, then ``null``, then the constants.
    """

    def __init__(self, schema: DatabaseSchema, roots: Dict[str, VarType]):
        self.schema = schema
        self._roots = dict(roots)
        self._expressions: List[Expression] = []
        self._types: List[VarType] = []
        self._relation_kinds: Dict[str, int] = {}
        self._renamings: Dict[tuple, List[int]] = {}
        #: Expression -> id.
        self.ids: Dict[Expression, int] = {}
        #: id -> ``((attribute, child id), ...)``, its single-step navigations.
        self.children: List[Tuple[Tuple[str, int], ...]] = []
        #: id -> kind tag (``NULL_KIND``, ``VALUE_KIND`` or an id-of-relation tag).
        self.kinds: List[int] = []
        #: id -> whether the expression is a constant.
        self.is_constant: List[bool] = []
        #: id -> root variable of a navigation (``None`` for constants).
        self.root_of: List[Optional[str]] = []
        for root, var_type in self._roots.items():
            self._add_navigations(NavExpr(root), var_type)
        self.null_id = self.ids[self.add_constant(None)]

    # -- construction ------------------------------------------------------------

    def _register(self, expression: Expression, var_type: VarType, kind: int) -> int:
        index = len(self._expressions)
        if index > MAX_ID:
            raise ValueError(f"expression universe exceeds {MAX_ID + 1} expressions")
        self.ids[expression] = index
        self._expressions.append(expression)
        self._types.append(var_type)
        self.kinds.append(kind)
        self.is_constant.append(isinstance(expression, ConstExpr))
        self.root_of.append(expression.root if isinstance(expression, NavExpr) else None)
        self.children.append(())
        return index

    def _add_navigations(self, expression: NavExpr, var_type: VarType) -> int:
        if not isinstance(var_type, IdType):
            return self._register(expression, var_type, VALUE_KIND)
        kind = self._relation_kinds.setdefault(
            var_type.relation, VALUE_KIND + 1 + len(self._relation_kinds)
        )
        index = self._register(expression, var_type, kind)
        relation = self.schema.relation(var_type.relation)
        self.children[index] = tuple(
            (
                attribute.name,
                self._add_navigations(
                    expression.child(attribute.name), attribute.type_in(self.schema)
                ),
            )
            for attribute in relation.attributes
        )
        return index

    def add_constant(self, value: Union[str, int, float, None]) -> ConstExpr:
        """Register a constant and return its expression (idempotent)."""
        expression = ConstExpr(value)
        if expression not in self.ids:
            self._register(expression, VALUE, NULL_KIND if value is None else VALUE_KIND)
        return expression

    # -- accessors ----------------------------------------------------------------

    @property
    def expressions(self) -> Tuple[Expression, ...]:
        return tuple(self._expressions)

    @property
    def constants(self) -> Tuple[ConstExpr, ...]:
        return tuple(e for e in self._expressions if isinstance(e, ConstExpr))

    @property
    def root_names(self) -> Tuple[str, ...]:
        return tuple(self._roots)

    def root_type(self, root: str) -> VarType:
        return self._roots[root]

    def has_root(self, root: str) -> bool:
        return root in self._roots

    def variable(self, root: str) -> NavExpr:
        """The expression denoting the root variable itself."""
        if root not in self._roots:
            raise KeyError(f"unknown root {root!r} in expression universe")
        return NavExpr(root)

    def contains(self, expression: Expression) -> bool:
        return expression in self.ids

    def expression(self, index: int) -> Expression:
        """The expression with the given id."""
        return self._expressions[index]

    def intern(self, expression: Expression) -> Optional[int]:
        """The id of an expression, registering constants on first sight.

        ``None`` for a navigation outside the universe.
        """
        if isinstance(expression, ConstExpr):
            self.add_constant(expression.value)
        return self.ids.get(expression)

    def type_of(self, expression: Expression) -> VarType:
        """The type of an expression (constants are value-typed)."""
        return self._types[self.ids[expression]]

    def navigate(self, expression: Expression, attribute: str) -> Optional[Expression]:
        """``expression.attribute`` if it exists in the universe, else ``None``."""
        return self.navigations_of(expression).get(attribute)

    def navigations_of(self, expression: Expression) -> Dict[str, Expression]:
        """All single-step navigations from *expression* (attribute -> expression)."""
        index = self.ids.get(expression)
        if index is None:
            return {}
        return {attribute: self._expressions[child] for attribute, child in self.children[index]}

    def renaming(self, mapping: Mapping[str, str], target: "ExpressionUniverse") -> List[int]:
        """Per id, the id in *target* after renaming roots by *mapping* (cached).

        Constants map to themselves (registered in *target* if needed);
        navigations whose root is unmapped, or whose renamed form is not in
        *target*, map to ``-1``.
        """
        key = (target, tuple(sorted(mapping.items())))
        table = self._renamings.get(key)
        if table is None or len(table) < len(self._expressions):
            table = []
            for expression in self._expressions:
                if isinstance(expression, NavExpr):
                    if expression.root not in mapping:
                        table.append(-1)
                        continue
                    expression = NavExpr(mapping[expression.root], expression.path)
                index = target.intern(expression)
                table.append(-1 if index is None else index)
            self._renamings[key] = table
        return table

    def __len__(self) -> int:
        return len(self._expressions)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ExpressionUniverse(roots={list(self._roots)}, size={len(self)})"
