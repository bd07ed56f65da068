"""LTL to Büchi automaton translation (Gerth–Peled–Vardi–Wolper, CAV'95).

The construction first builds a *generalized* Büchi automaton from the NNF of
the formula using the classic tableau expansion, then degeneralizes it with
the usual counter construction, and finally merges forward-bisimilar states.
Transition labels are pairs of proposition sets ``(must_hold,
must_not_hold)``; any truth assignment that contains every proposition of the
first set and none of the second satisfies the label.

The automata produced here drive the product construction of the verifier
(Section 3.2 of the paper): the verifier explores symbolic runs of the HAS*
specification synchronised with the Büchi automaton of the *negated* LTL-FO
property, and searches for (repeatedly) reachable accepting states.  Every
product state pairs a symbolic state with an automaton state, so the quotient
shrinks the product directly: the negated Table 4 templates have 43 states in
all instead of 109 (``compassion`` 27 → 7, ``fair-response`` 21 → 5).

The result is the same automaton, state numbers and transition order
included, under every ``PYTHONHASHSEED``.  The tableau expands the formulas of
a node in a fixed order (their position in the NNF's ``subformulas()``), not
in the iteration order of a set, whose order for strings changes with the hash
seed; the quotient numbers its blocks by their first state and keeps the
transitions in the order the degeneralisation made them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.ltl.syntax import (
    And,
    Formula,
    LFalse,
    LTrue,
    Next,
    Not,
    Or,
    Prop,
    Release,
    Until,
)


@dataclass(frozen=True)
class TransitionLabel:
    """A conjunction of literals over propositions.

    A truth assignment ``A`` (a set of propositions that hold) satisfies the
    label iff ``required ⊆ A`` and ``forbidden ∩ A = ∅``.
    """

    required: FrozenSet[str] = frozenset()
    forbidden: FrozenSet[str] = frozenset()

    def satisfied_by(self, assignment: Set[str]) -> bool:
        return self.required <= assignment and not (self.forbidden & assignment)

    def is_consistent(self) -> bool:
        return not (self.required & self.forbidden)

    def __str__(self) -> str:
        parts = [p for p in sorted(self.required)] + [f"!{p}" for p in sorted(self.forbidden)]
        return " & ".join(parts) if parts else "true"


@dataclass(frozen=True)
class BuchiTransition:
    source: int
    label: TransitionLabel
    target: int


class BuchiAutomaton:
    """A (non-generalized) Büchi automaton over propositional labels."""

    def __init__(
        self,
        states: Sequence[int],
        initial_states: Iterable[int],
        transitions: Sequence[BuchiTransition],
        accepting_states: Iterable[int],
        propositions: Iterable[str] = (),
    ):
        self.states: Tuple[int, ...] = tuple(states)
        self.initial_states: FrozenSet[int] = frozenset(initial_states)
        self.transitions: Tuple[BuchiTransition, ...] = tuple(transitions)
        self.accepting_states: FrozenSet[int] = frozenset(accepting_states)
        self.propositions: FrozenSet[str] = frozenset(propositions)
        self._outgoing: Dict[int, List[BuchiTransition]] = {s: [] for s in self.states}
        for transition in self.transitions:
            self._outgoing[transition.source].append(transition)

    def outgoing(self, state: int) -> Tuple[BuchiTransition, ...]:
        return tuple(self._outgoing.get(state, ()))

    def successors(self, state: int, assignment: Set[str]) -> Set[int]:
        """Büchi states reachable from *state* by reading *assignment*."""
        return {
            t.target for t in self._outgoing.get(state, ()) if t.label.satisfied_by(assignment)
        }

    # -- language queries (used by tests) -----------------------------------------

    def accepts_lasso(self, prefix: Sequence[Set[str]], cycle: Sequence[Set[str]]) -> bool:
        """Whether the automaton accepts the ultimately periodic word prefix·cycleʷ.

        The check runs the automaton over the prefix, then searches for a
        cycle over the periodic part that visits an accepting state, using the
        product of automaton states with positions in the periodic word.
        """
        if not cycle:
            raise ValueError("the periodic part of a lasso must be non-empty")
        current = set(self.initial_states)
        for assignment in prefix:
            current = {q for state in current for q in self.successors(state, assignment)}
            if not current:
                return False
        # Product nodes: (state, index into cycle).  An accepting run exists
        # iff some reachable product node lies on a cycle through an accepting
        # automaton state.
        period = len(cycle)
        edges: Dict[Tuple[int, int], Set[Tuple[int, int]]] = {}
        reachable: Set[Tuple[int, int]] = set()
        frontier = [(q, 0) for q in current]
        while frontier:
            node = frontier.pop()
            if node in reachable:
                continue
            reachable.add(node)
            state, index = node
            next_nodes = {
                (q, (index + 1) % period)
                for q in self.successors(state, set(cycle[index]))
            }
            edges[node] = next_nodes
            frontier.extend(next_nodes - reachable)
        # Search for a reachable cycle through an accepting state: for each
        # accepting product node, check whether it can reach itself.
        for start in [n for n in reachable if n[0] in self.accepting_states]:
            seen: Set[Tuple[int, int]] = set()
            stack = list(edges.get(start, ()))
            while stack:
                node = stack.pop()
                if node == start:
                    return True
                if node in seen:
                    continue
                seen.add(node)
                stack.extend(edges.get(node, ()))
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BuchiAutomaton(states={len(self.states)}, transitions={len(self.transitions)}, "
            f"accepting={sorted(self.accepting_states)})"
        )


# ---------------------------------------------------------------------------
# GPVW tableau construction
# ---------------------------------------------------------------------------


@dataclass
class _Node:
    """A tableau node.  Its formula sets hold *ranks*: positions in the NNF's
    ``subformulas()``, so comparing nodes never hashes a formula tree."""

    node_id: int
    incoming: Set[int] = field(default_factory=set)
    new: Set[int] = field(default_factory=set)
    old: Set[int] = field(default_factory=set)
    next: Set[int] = field(default_factory=set)


_INIT = 0  # virtual initial node id


def _is_literal(formula: Formula) -> bool:
    if isinstance(formula, (Prop, LTrue, LFalse)):
        return True
    return isinstance(formula, Not) and isinstance(formula.operand, Prop)


def _negate_literal(formula: Formula) -> Formula:
    if isinstance(formula, Not):
        return formula.operand
    if isinstance(formula, LTrue):
        return LFalse()
    if isinstance(formula, LFalse):
        return LTrue()
    return Not(formula)


def _expand(subformulas: Sequence[Formula], should_stop: Callable[[], bool]) -> List[_Node]:
    """The `expand` procedure of the GPVW construction from the first of
    *subformulas* (the NNF itself); returns the nodes.

    A stack of the nodes still to expand stands in for the recursion, in the
    same depth-first order, so the tableau's size is not bounded by Python's
    recursion limit.  Each step takes the formula of ``node.new`` with the
    lowest rank, so the tableau does not depend on the iteration order of a
    set of formulas.
    """
    rank = {f: position for position, f in enumerate(subformulas)}
    operands = [tuple(rank[child] for child in f._children()) for f in subformulas]
    counter = itertools.count(1)
    nodes: List[_Node] = []
    stack = [_Node(node_id=next(counter), incoming={_INIT}, new={0})]
    while stack:
        if should_stop():
            raise ConstructionStopped
        node = stack.pop()
        if not node.new:
            for existing in nodes:
                if existing.old == node.old and existing.next == node.next:
                    existing.incoming |= node.incoming
                    break
            else:
                nodes.append(node)
                stack.append(
                    _Node(node_id=next(counter), incoming={node.node_id}, new=set(node.next))
                )
            continue

        index = min(node.new)
        node.new.discard(index)
        formula = subformulas[index]

        if isinstance(formula, LFalse):
            continue  # contradiction: drop the node
        if _is_literal(formula):
            if rank.get(_negate_literal(formula)) in node.old:
                continue  # contradiction
            node.old.add(index)
        elif isinstance(formula, And):
            node.new |= set(operands[index]) - node.old
            node.old.add(index)
        elif isinstance(formula, Next):
            node.old.add(index)
            node.next.add(operands[index][0])
        elif isinstance(formula, (Or, Until, Release)):
            left_new, left_next, right_new = _split(formula, index, *operands[index])
            first = _Node(
                node_id=next(counter),
                incoming=set(node.incoming),
                new=node.new | (left_new - node.old),
                old=node.old | {index},
                next=node.next | left_next,
            )
            second = _Node(
                node_id=next(counter),
                incoming=set(node.incoming),
                new=node.new | (right_new - node.old),
                old=node.old | {index},
                next=set(node.next),
            )
            stack.append(second)
            node = first  # expanded before *second*
        else:
            raise TypeError(f"formula not in NNF or unsupported: {formula}")
        stack.append(node)
    return nodes


def _split(
    formula: Formula, index: int, left: int, right: int
) -> Tuple[Set[int], Set[int], Set[int]]:
    """The `new1 / next1 / new2` decomposition of the GPVW construction, over
    the ranks of *formula* (*index*) and of its operands."""
    if isinstance(formula, Until):
        return {left}, {index}, {right}
    if isinstance(formula, Release):
        return {right}, {index}, {left, right}
    if isinstance(formula, Or):
        return {left}, set(), {right}
    raise TypeError(f"unexpected formula {formula}")


class ConstructionStopped(Exception):
    """The *should_stop* of :func:`ltl_to_buchi` fired mid-construction."""


def ltl_to_buchi(
    formula: Formula,
    extra_propositions: Iterable[str] = (),
    should_stop: Callable[[], bool] = lambda: False,
) -> BuchiAutomaton:
    """Translate an LTL formula into an equivalent Büchi automaton.

    The input is converted to NNF first, so any formula (including ``G``,
    ``F``, ``->``) is accepted.  The resulting automaton accepts exactly the
    infinite words over truth assignments that satisfy the formula.

    The GPVW tableau produces a *state-labelled generalized* Büchi automaton;
    we convert it to a transition-labelled one by adding a fresh initial state
    (so that the first letter is checked against the label of the first
    tableau node), degeneralize with the standard counter construction and
    return its forward-bisimulation quotient, whose initial state is 0.
    Chained ``U`` and nested ``F`` blow both up: the construction polls
    *should_stop* once per tableau node and refinement round, and raises
    :class:`ConstructionStopped` when it fires.
    """
    nnf = formula.nnf()
    subformulas = nnf.subformulas()
    nodes = _expand(subformulas, should_stop)

    # Generalized acceptance: one set of nodes per until subformula.
    acceptance_sets: List[Set[int]] = []
    for until, until_formula in enumerate(subformulas):
        if isinstance(until_formula, Until):
            right = subformulas.index(until_formula.right)
            acceptance_sets.append(
                {n.node_id for n in nodes if right in n.old or until not in n.old}
            )
    if not acceptance_sets:
        acceptance_sets.append({n.node_id for n in nodes})
    n_sets = len(acceptance_sets)

    def label_of(node: _Node) -> Optional[TransitionLabel]:
        old = [subformulas[index] for index in node.old]
        required = {f.name for f in old if isinstance(f, Prop)}
        forbidden = {
            f.operand.name
            for f in old
            if isinstance(f, Not) and isinstance(f.operand, Prop)
        }
        if required & forbidden:
            return None
        return TransitionLabel(frozenset(required), frozenset(forbidden))

    labels: Dict[int, TransitionLabel] = {}
    for node in nodes:
        label = label_of(node)
        if label is not None:
            labels[node.node_id] = label
    usable_nodes = [n for n in nodes if n.node_id in labels]

    propositions = set(nnf.propositions()) | set(extra_propositions)

    # Degeneralized states are (node_id, level) plus the fresh initial state.
    state_index: Dict[Tuple[int, int], int] = {}

    def state_of(node_id: int, level: int) -> int:
        key = (node_id, level)
        if key not in state_index:
            state_index[key] = len(state_index) + 1  # 0 is reserved for init
        return state_index[key]

    INIT_STATE = 0

    def next_level(level: int, source_node: Optional[int]) -> int:
        # Counter construction with source-based increments (Baier & Katoen):
        # the counter advances from i to i+1 when a transition *leaves* a node
        # of F_i at level i.  A run then visits level 0 on a node of F_0
        # infinitely often iff the counter cycles infinitely often iff every
        # F_i is visited infinitely often.
        if source_node is not None and source_node in acceptance_sets[level]:
            return (level + 1) % n_sets
        return level

    transitions: List[BuchiTransition] = []
    for node in usable_nodes:
        label = labels[node.node_id]
        for source_id in node.incoming:
            if source_id == _INIT:
                # The fresh initial state has level 0 and belongs to no F_i.
                transitions.append(
                    BuchiTransition(INIT_STATE, label, state_of(node.node_id, 0))
                )
            else:
                if source_id not in labels:
                    continue
                for level in range(n_sets):
                    source_state = state_of(source_id, level)
                    target_state = state_of(node.node_id, next_level(level, source_id))
                    transitions.append(BuchiTransition(source_state, label, target_state))

    # Accepting states: level 0 states whose node belongs to F_0.
    accepting = {
        state
        for (node_id, level), state in state_index.items()
        if level == 0 and node_id in acceptance_sets[0]
    }

    states = [INIT_STATE] + sorted(set(state_index.values()))
    return _bisimulation_quotient(states, transitions, accepting, propositions, should_stop)


def _bisimulation_quotient(
    states: Sequence[int],
    transitions: Sequence[BuchiTransition],
    accepting: Set[int],
    propositions: Iterable[str],
    should_stop: Callable[[], bool],
) -> BuchiAutomaton:
    """Merge forward-bisimilar states; the first of *states* is the initial one.

    The partition {accepting, non-accepting} is refined by each state's set of
    (label, target block) pairs until it is stable.  Two states in one block
    then accept the same words, so the quotient keeps one transition per
    (block, label, block) and accepts the same language.  Blocks are numbered
    in the order of their first state, so the initial block is 0.
    """
    outgoing: Dict[int, List[BuchiTransition]] = {s: [] for s in states}
    for transition in transitions:
        outgoing[transition.source].append(transition)
    block = {s: int(s in accepting) for s in states}
    n_blocks = len(set(block.values()))
    while True:
        if should_stop():
            raise ConstructionStopped
        signatures: Dict[object, int] = {}
        refined = {
            s: signatures.setdefault(
                (block[s], frozenset((t.label, block[t.target]) for t in outgoing[s])),
                len(signatures),
            )
            for s in states
        }
        block = refined
        if len(signatures) == n_blocks:
            break
        n_blocks = len(signatures)
    quotient = dict.fromkeys(
        BuchiTransition(block[t.source], t.label, block[t.target]) for t in transitions
    )
    return BuchiAutomaton(
        range(n_blocks),
        [0],
        list(quotient),
        {block[s] for s in accepting},
        propositions,
    )
