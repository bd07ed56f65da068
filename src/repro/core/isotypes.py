"""Partial isomorphism types (Definition 17).

A partial isomorphism type τ is a graph over the expression universe whose
edges are labelled ``=`` or ``≠``, closed under

1. congruence: if ``e ~ e'`` (connected by =-edges) and both ``e.A`` and
   ``e'.A`` exist, then ``e.A ~ e'.A``;
2. consistency of ≠: no ≠-edge inside an equivalence class, and ≠ is lifted
   to whole classes.

A type works on the int ids of its :class:`ExpressionUniverse`.  It stores
``rep``, which maps every mentioned id straight to the root of its class (a
class holding a constant has that constant as its root), the sorted member
tuple of each class, and ``neq``, the ≠-edges as sorted pairs of roots.
Types are immutable: :meth:`PartialIsoType.extend` returns a new type (or
``None`` when the added constraints contradict the existing ones).
Consistency also enforces that two distinct constants are never identified
and that navigation expressions of incompatible kinds (ids of different
relations, or an id vs a data value) are only identified as ``null``.

The canonical key is a frozenset of ints: the =-edge between ids ``i < j`` is
``(i << 16) | j`` (ids are at most ``MAX_ID``, 16 bits), and a ≠-edge is
encoded the same way with ``NEQ_BIT`` set.
Keys list every entailed edge, so for closed types entailment is mostly set
inclusion of keys.

The operations used by the verifier are:

* ``extend`` / ``extend_ids`` -- add constraints (condition evaluation),
* ``project``       -- keep only expressions rooted at a set of variables
  (variable propagation and child-task returns),
* ``entails``       -- ``τ |= τ'`` iff every constraint of τ' holds in τ
  (with closed representations this is exactly τ' ⊆ τ of the paper),
* ``rename_roots``  -- translate between a task's variables and an artifact
  relation's attributes (insertions and retrievals),
* ``canonical_key`` -- hashing / equality.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.core.expressions import MAX_ID, Expression, ExpressionUniverse, NULL_KIND

#: A single constraint between two expressions: ``(left, right, op)`` with op "=" or "!=".
Constraint = Tuple[Expression, Expression, str]
#: The same over expression ids.
IdConstraint = Tuple[int, int, str]

EQ = "="
NEQ = "!="

_ID_BITS = MAX_ID.bit_length()
_ID_MASK = MAX_ID
#: Flag bit of ≠-edges in canonical keys.
NEQ_BIT = 1 << (2 * _ID_BITS)


class PartialIsoType:
    """An immutable partial isomorphism type over an expression universe."""

    __slots__ = ("universe", "_rep", "_classes", "_neq", "_eq_key", "_neq_key", "_key",
                 "_hash", "_sorted_key")

    def __init__(
        self,
        universe: ExpressionUniverse,
        rep: Optional[Dict[int, int]] = None,
        classes: Optional[Dict[int, Tuple[int, ...]]] = None,
        neq: Optional[Set[Tuple[int, int]]] = None,
    ):
        self.universe = universe
        self._rep: Dict[int, int] = rep if rep is not None else {}
        self._classes: Dict[int, Tuple[int, ...]] = classes if classes is not None else {}
        self._neq: Set[Tuple[int, int]] = neq if neq is not None else set()
        self._eq_key: Optional[FrozenSet[int]] = None
        self._neq_key: Optional[FrozenSet[int]] = None
        self._key: Optional[FrozenSet[int]] = None
        self._hash: Optional[int] = None
        self._sorted_key: Optional[Tuple[int, ...]] = None

    # -------------------------------------------------------------- expression-level queries

    def _root(self, expression: Expression) -> int:
        index = self.universe.intern(expression)
        if index is None:
            raise KeyError(f"{expression} is not in the expression universe")
        return self._rep.get(index, index)

    def _distinct_roots(self, left: int, right: int) -> bool:
        """Whether two different class roots are known distinct (edge or two constants)."""
        pair = (left, right) if left < right else (right, left)
        is_constant = self.universe.is_constant
        return pair in self._neq or (is_constant[left] and is_constant[right])

    def same_class(self, left: Expression, right: Expression) -> bool:
        """Whether the two expressions are known to be equal."""
        return self._root(left) == self._root(right)

    def known_distinct(self, left: Expression, right: Expression) -> bool:
        """Whether the two expressions are known to be distinct."""
        left_root, right_root = self._root(left), self._root(right)
        return left_root != right_root and self._distinct_roots(left_root, right_root)

    def members(self) -> Set[Expression]:
        """All expressions mentioned by at least one constraint."""
        expression = self.universe.expression
        return {expression(index) for index in self._rep}

    def id_constraints(self) -> List[IdConstraint]:
        """All (closed) constraints over ids, in key order: = pairs within classes, ≠ pairs."""
        return [
            ((edge >> _ID_BITS) & _ID_MASK, edge & _ID_MASK, NEQ if edge & NEQ_BIT else EQ)
            for edge in self.sorted_key()
        ]

    def constraints(self) -> List[Constraint]:
        """:meth:`id_constraints` as expressions."""
        expression = self.universe.expression
        return [(expression(i), expression(j), op) for i, j, op in self.id_constraints()]

    # -------------------------------------------------------------- hashing

    def _build_keys(self) -> None:
        eq: List[int] = []
        for members in self._classes.values():
            for k in range(len(members) - 1):
                high = members[k] << _ID_BITS
                eq.extend(high | j for j in members[k + 1:])
        neq: List[int] = []
        classes = self._classes
        for left, right in self._neq:
            for i in classes[left]:
                for j in classes[right]:
                    neq.append(NEQ_BIT | ((i << _ID_BITS) | j if i < j else (j << _ID_BITS) | i))
        self._eq_key = frozenset(eq)
        self._neq_key = frozenset(neq)

    def eq_key(self) -> FrozenSet[int]:
        """The equality edges of :meth:`canonical_key` (cached)."""
        if self._eq_key is None:
            self._build_keys()
        return self._eq_key

    def neq_key(self) -> FrozenSet[int]:
        """The disequality edges of :meth:`canonical_key` (cached)."""
        if self._neq_key is None:
            self._build_keys()
        return self._neq_key

    def canonical_key(self) -> FrozenSet[int]:
        """Every entailed edge as an int: an order-independent encoding of the type."""
        if self._key is None:
            self._key = self.eq_key() | self.neq_key()
        return self._key

    def sorted_key(self) -> Tuple[int, ...]:
        """The canonical key as a sorted tuple: a total order on types (cached)."""
        if self._sorted_key is None:
            self._sorted_key = tuple(sorted(self.canonical_key()))
        return self._sorted_key

    def edge_set(self) -> FrozenSet[int]:
        """The edges used by the index structures (the canonical key)."""
        return self.canonical_key()

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.canonical_key())
        return self._hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PartialIsoType):
            return NotImplemented
        return self.canonical_key() == other.canonical_key()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [f"{l}{'=' if op == EQ else '!='}{r}" for l, r, op in self.constraints()]
        return "τ{" + ", ".join(sorted(parts)) + "}"

    # -------------------------------------------------------------- extension

    def extend(self, constraints: Iterable[Constraint]) -> Optional["PartialIsoType"]:
        """A new type with the added constraints, or ``None`` if inconsistent.

        Constants are registered in the universe on first sight; a navigation
        outside the universe makes the extension inconsistent.
        """
        intern = self.universe.intern
        interned: List[IdConstraint] = []
        for left, right, op in constraints:
            if op not in (EQ, NEQ):
                raise ValueError(f"unknown constraint operator {op!r}")
            left_id, right_id = intern(left), intern(right)
            if left_id is None or right_id is None:
                return None
            interned.append((left_id, right_id, op))
        return self.extend_ids(interned)

    def extend_ids(self, constraints: Iterable[IdConstraint]) -> Optional["PartialIsoType"]:
        """:meth:`extend` over expression ids.

        A scan against the current roots settles two common cases before
        anything is copied.  Merging never makes distinct roots equal nor
        splits a class, so an ``=`` between known-distinct roots or a ``≠``
        inside one class fails whatever else is added: ``None``.  When every
        ``=`` joins mentioned members of one class and every ``≠`` is already
        an explicit edge, nothing changes: ``self``.  (A ≠ that holds only
        implicitly, between two constants, still adds an edge to the key.)
        """
        pending = list(constraints)
        if not pending:
            return self
        rep, neq = self._rep, self._neq
        unchanged = True
        for left, right, op in pending:
            # An unmentioned id is its own root; no ≠-edge names it.
            left_root, right_root = rep.get(left, left), rep.get(right, right)
            if op == EQ:
                if left_root != right_root:
                    if self._distinct_roots(left_root, right_root):
                        return None
                    unchanged = False
                elif left not in rep:  # ``e = e`` mentions e
                    unchanged = False
            elif left_root == right_root:
                return None
            elif unchanged and (
                (left_root, right_root) if left_root < right_root else (right_root, left_root)
            ) not in neq:
                unchanged = False
        if unchanged:
            return self
        extended = PartialIsoType(
            self.universe, dict(self._rep), dict(self._classes), set(self._neq)
        )
        while pending:
            left, right, op = pending.pop()
            if op == EQ:
                if not extended._union(left, right, pending):
                    return None
            elif not extended._add_neq(left, right):
                return None
        return extended

    def _mention(self, index: int) -> int:
        root = self._rep.get(index)
        if root is None:
            self._rep[index] = root = index
            self._classes[index] = (index,)
        return root

    def _union(self, left: int, right: int, pending: List[IdConstraint]) -> bool:
        left_root, right_root = self._mention(left), self._mention(right)
        if left_root == right_root:
            return True
        if self._distinct_roots(left_root, right_root):
            return False
        universe = self.universe
        kinds = universe.kinds
        left_kind, right_kind = kinds[left], kinds[right]
        if left_kind != right_kind and left_kind != NULL_KIND and right_kind != NULL_KIND:
            # Ids of different relations, or an id and a data value, draw
            # their non-null values from disjoint domains: they can only be
            # equal as null.  A non-null constant never can.
            if universe.is_constant[left] or universe.is_constant[right]:
                return False
            pending.append((left, universe.null_id, EQ))
        if universe.is_constant[right_root]:
            # Keep a class's constant as its root.
            left_root, right_root = right_root, left_root
        rep, classes = self._rep, self._classes
        absorbed = classes.pop(right_root)
        kept = classes[left_root]
        for member in absorbed:
            rep[member] = left_root
        classes[left_root] = tuple(sorted(kept + absorbed))
        # Re-target the ≠-edges of the absorbed root (none joins the two
        # merged roots: that was ruled out above).
        neq = self._neq
        for pair in [pair for pair in neq if right_root in pair]:
            neq.discard(pair)
            other = pair[0] if pair[1] == right_root else pair[1]
            neq.add((other, left_root) if other < left_root else (left_root, other))
        # Congruence closure: each class is already congruent (or has the
        # equalities pending), so one edge per attribute joins the two.
        children = universe.children
        kept_children: Dict[str, int] = {}
        for member in kept:
            for attribute, child in children[member]:
                kept_children.setdefault(attribute, child)
        if kept_children:
            for member in absorbed:
                for attribute, child in children[member]:
                    other = kept_children.get(attribute)
                    if other is not None and rep.get(other, other) != rep.get(child, child):
                        pending.append((other, child, EQ))
        return True

    def _add_neq(self, left: int, right: int) -> bool:
        left_root, right_root = self._mention(left), self._mention(right)
        if left_root == right_root:
            return False
        if left_root > right_root:
            left_root, right_root = right_root, left_root
        self._neq.add((left_root, right_root))
        return True

    # -------------------------------------------------------------- projection

    def project(self, roots: Iterable[str]) -> "PartialIsoType":
        """The restriction of the type to expressions rooted at *roots* (and constants).

        The kept ids are closed under navigation, so the restriction of a
        closed type is closed: no union or congruence work is needed.
        """
        wanted = set(roots)
        root_of, is_constant = self.universe.root_of, self.universe.is_constant
        neq_roots = {root for pair in self._neq for root in pair}
        rep: Dict[int, int] = {}
        classes: Dict[int, Tuple[int, ...]] = {}
        renamed: Dict[int, int] = {}
        for root, members in self._classes.items():
            kept = tuple(m for m in members if root_of[m] is None or root_of[m] in wanted)
            if len(kept) > 1 or (kept and root in neq_roots):
                new_root = root if is_constant[root] else kept[0]
                renamed[root] = new_root
                classes[new_root] = kept
                for member in kept:
                    rep[member] = new_root
        neq: Set[Tuple[int, int]] = set()
        for left, right in self._neq:
            if left in renamed and right in renamed:
                left, right = renamed[left], renamed[right]
                neq.add((left, right) if left < right else (right, left))
        return PartialIsoType(self.universe, rep, classes, neq)

    # -------------------------------------------------------------- renaming

    def rename_roots(
        self, mapping: Dict[str, str], target_universe: ExpressionUniverse
    ) -> Optional["PartialIsoType"]:
        """Rename root variables according to *mapping* into another universe.

        Expressions whose root is not in the mapping are dropped; constants
        are preserved.  Returns ``None`` when the renamed constraints are
        inconsistent in the target universe (which cannot happen for
        type-correct specifications, but is handled defensively).
        """
        table = self.universe.renaming(mapping, target_universe)
        firsts: Dict[int, int] = {}
        constraints: List[IdConstraint] = []
        for root, members in self._classes.items():
            mapped = [table[m] for m in members if table[m] >= 0]
            if mapped:
                firsts[root] = mapped[0]
                constraints.extend((mapped[0], other, EQ) for other in mapped[1:])
        for left, right in self._neq:
            if left in firsts and right in firsts:
                constraints.append((firsts[left], firsts[right], NEQ))
        return PartialIsoType(target_universe).extend_ids(constraints)

    # -------------------------------------------------------------- entailment

    def entails(self, other: "PartialIsoType") -> bool:
        """``self |= other``: every constraint of *other* holds in *self* (τ' ⊆ τ)."""
        # Both representations are closed, so for the equality part
        # entailment is exactly edge-set inclusion.
        if not other.eq_key() <= self.eq_key():
            return False
        if other.neq_key() <= self.neq_key():
            return True
        # Slow path only for ≠-edges that may be entailed implicitly
        # (via two distinct constants in the respective classes).
        rep = self._rep
        for left, right in other._neq:
            left_root, right_root = rep.get(left, left), rep.get(right, right)
            if left_root == right_root or not self._distinct_roots(left_root, right_root):
                return False
        return True


def empty_type(universe: ExpressionUniverse) -> PartialIsoType:
    """The fully unconstrained partial isomorphism type."""
    return PartialIsoType(universe)
