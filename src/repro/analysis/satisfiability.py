"""Sound static unsatisfiability of quantifier-free FO conditions.

:func:`statically_unsatisfiable` decides a *sound under-approximation* of
unsatisfiability: it returns ``True`` only when the condition is genuinely
unsatisfiable under the equality theory the symbolic search itself
implements (distinct constants are distinct; equality is a congruence).
That soundness is what keeps the analyzer's diagnostics consistent with
the search: a child task whose opening guard is statically unsatisfiable
produces no symbolic moves, so reporting it unreachable never contradicts
the explored state space.

The check works per DNF disjunct with a small union-find:

* an empty DNF (structural ``false``) is unsatisfiable;
* a disjunct is contradictory when its ``=`` literals merge two distinct
  constants into one equivalence class, or a ``!=`` literal relates two
  terms already in the same class.

Deliberately *not* used: the null-semantics of relational atoms
(``R(..., null, ...)`` is false at run time) and any relation-level
reasoning -- those involve machinery beyond plain equality, so flagging
them here could disagree with the symbolic evaluator.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from repro.has.conditions import Condition, Const, Eq, Neq, Term, Var


def _term_key(term: Term) -> Hashable:
    if isinstance(term, Var):
        return ("var", term.name)
    return ("const", term.value)


class _UnionFind:
    def __init__(self) -> None:
        self._parent: Dict[Hashable, Hashable] = {}

    def find(self, item: Hashable) -> Hashable:
        parent = self._parent.setdefault(item, item)
        if parent == item:
            return item
        root = self.find(parent)
        self._parent[item] = root
        return root

    def union(self, a: Hashable, b: Hashable) -> None:
        self._parent[self.find(a)] = self.find(b)


def analyse_disjunct(literals: Sequence[Condition]) -> Optional[Dict[str, Any]]:
    """Congruence analysis of one DNF conjunct.

    Returns ``None`` when the conjunct is contradictory under equality
    reasoning (its ``=`` literals merge two distinct constants into one
    equivalence class, or a ``!=`` literal relates two terms already in the
    same class); otherwise the variable -> constant bindings *forced* by the
    conjunct (every variable whose equivalence class contains a constant).
    The forced bindings use the same union-find congruence the symbolic
    evaluator implements, so ``x = y ∧ y = "a"`` forces ``x = "a"``.
    """
    uf = _UnionFind()
    disequalities: List[Tuple[Hashable, Hashable]] = []
    for literal in literals:
        if isinstance(literal, Eq):
            uf.union(_term_key(literal.left), _term_key(literal.right))
        elif isinstance(literal, Neq):
            disequalities.append((_term_key(literal.left), _term_key(literal.right)))
    # Two distinct constants in one equivalence class.
    constant_of: Dict[Hashable, Const] = {}
    for literal in literals:
        if not isinstance(literal, (Eq, Neq)):
            continue
        for term in (literal.left, literal.right):
            if isinstance(term, Const):
                root = uf.find(_term_key(term))
                seen = constant_of.get(root)
                if seen is not None and seen.value != term.value:
                    return None
                constant_of[root] = term
    # A disequality whose sides were merged by the equalities.
    for left, right in disequalities:
        if uf.find(left) == uf.find(right):
            return None
    bindings: Dict[str, Any] = {}
    for literal in literals:
        if not isinstance(literal, (Eq, Neq)):
            continue
        for term in (literal.left, literal.right):
            if isinstance(term, Var):
                constant = constant_of.get(uf.find(_term_key(term)))
                if constant is not None:
                    bindings[term.name] = constant.value
    return bindings


def _disjunct_contradictory(literals: Sequence[Condition]) -> bool:
    """Whether one DNF conjunct is contradictory under equality reasoning."""
    return analyse_disjunct(literals) is None


def binding_literals(bindings: Mapping[str, Any]) -> List[Condition]:
    """The ``var = const`` literals of an abstract constant environment, in
    deterministic (name-sorted) order."""
    return [Eq(Var(name), Const(bindings[name])) for name in sorted(bindings)]


def statically_unsatisfiable(condition: Condition) -> bool:
    """``True`` only if *condition* provably has no satisfying valuation."""
    disjuncts = condition.dnf()
    if not disjuncts:
        return True
    return all(_disjunct_contradictory(d) for d in disjuncts)


def statically_unsatisfiable_under(
    condition: Condition, bindings: Mapping[str, Any]
) -> bool:
    """``True`` only if ``condition ∧ (var = const for every binding)`` has no
    satisfying valuation.

    This is the env-aware variant used by :mod:`repro.analysis.dataflow`: when
    *bindings* are invariants of every reachable symbolic state (constraints
    literally present in every reachable partial isomorphism type), a ``True``
    here means the symbolic evaluator's ``extend`` fails on every reachable
    state, so the condition can never fire -- the soundness argument of the
    dataflow pass's dead-service facts.
    """
    disjuncts = condition.dnf()
    if not disjuncts:
        return True
    extra = binding_literals(bindings)
    return all(analyse_disjunct(list(d) + extra) is None for d in disjuncts)
