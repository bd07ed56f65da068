"""Explicit-state LTL checking: the product with a Büchi automaton and its lassos.

Spin-Opt (:mod:`repro.baseline.spinlike`) and the concrete oracle
(:mod:`repro.has.runs`) both call :func:`search_product` with a transition
system given as its initial ``(step, state)`` pairs and ``successors(state)``.
A step is a ``(service, valuation)`` pair, or ``None`` for a silent move that
the Büchi automaton does not read.  A condition proposition holds when
``evaluate(condition, valuation)`` says so; left undecided (``None``, as
Spin-Opt leaves relational atoms), it may take either truth value.

The product with ``ltl_to_buchi(¬φ)`` is explored breadth-first, so a budget
stop leaves every state near the initial ones explored, however far one
branch (a growing relation, say) runs on.  Before each expansion the search
stops once more than ``max_states`` product states are known or the deadline
has passed.  :func:`find_lasso` then looks for an accepting lasso in what was
explored: a real run that violates φ, even when the exploration stopped early.
"""

from __future__ import annotations

import time
from collections import deque
from typing import AbstractSet, Any, Callable, Dict, Hashable, Iterable, List, Mapping
from typing import NamedTuple, Optional, Sequence, Set, Tuple

from repro.has.conditions import Condition
from repro.ltl.buchi import ltl_to_buchi
from repro.ltl.ltlfo import LTLFOProperty

_DONE = object()


class Lasso(NamedTuple):
    """The run ``stem · loop^ω`` as its observed steps: the stem starts with an
    initial step, and the loop returns to the state the stem ends in."""

    stem: Tuple[Any, ...]
    loop: Tuple[Any, ...]


class ProductResult(NamedTuple):
    """What :func:`search_product` found, as ``(lasso | None, states, complete)``."""

    lasso: Optional[Lasso]
    states: int  # product states known when the exploration ended
    complete: bool  # whether it ended because nothing was left to expand


def search_product(
    ltl_property: LTLFOProperty,
    initial: Sequence[Tuple[Any, Any]],
    successors: Callable[[Any], Iterable[Tuple[Any, Any]]],
    evaluate: Callable[[Condition, Dict[str, object]], Optional[bool]],
    max_states: int,
    deadline: Optional[float] = None,
    key: Callable[[Any], Hashable] = lambda state: state,
) -> ProductResult:
    """Search the product of a transition system with the Büchi automaton of
    the negated property; states are identified by ``key(state)``."""
    automaton = ltl_to_buchi(ltl_property.formula.negated())
    services = ltl_property.service_propositions
    # A vertex is (state, Büchi state, entered by an observed step).  Only
    # observed vertices accept, so every accepting loop reads a letter.
    vertices: List[Tuple[Any, int, bool]] = []
    ids: Dict[Tuple[Hashable, int, bool], int] = {}
    edges: Dict[int, Dict[int, None]] = {}
    accepting: Set[int] = set()

    def buchi_successors(buchi_state: int, step: Any) -> List[int]:
        """Targets of the transitions whose literals the step's letter allows."""
        if step is None:
            return [buchi_state]
        service, valuation = step
        true, false = {service} & services, services - {service}
        for proposition, condition in ltl_property.conditions.items():
            verdict = evaluate(condition, valuation)
            if verdict is not None:
                (true if verdict else false).add(proposition)
        targets: List[int] = []
        for transition in automaton.outgoing(buchi_state):
            label = transition.label
            if not (label.required & false or label.forbidden & true):
                if transition.target not in targets:
                    targets.append(transition.target)
        return targets

    def moves(source: Optional[int]) -> Iterable[Tuple[Any, Any, List[int]]]:
        """``(step, state, Büchi targets)`` leaving vertex *source* (``None``: the start)."""
        pairs, buchi_states = initial, automaton.initial_states
        if source is not None:
            state, buchi_state, _ = vertices[source]
            pairs, buchi_states = successors(state), (buchi_state,)
        for step, state in pairs:
            for buchi_state in buchi_states:
                yield step, state, buchi_successors(buchi_state, step)

    def expand(source: Optional[int]) -> Dict[int, None]:
        targets: Dict[int, None] = {}
        for step, state, buchi_states in moves(source):
            for buchi_state in buchi_states:
                vertex_key = (key(state), buchi_state, step is not None)
                if vertex_key not in ids:
                    ids[vertex_key] = len(vertices)
                    vertices.append((state, buchi_state, step is not None))
                    if step is not None and buchi_state in automaton.accepting_states:
                        accepting.add(ids[vertex_key])
                targets[ids[vertex_key]] = None
        return targets

    def steps_along(source: Optional[int], path: List[int]) -> Tuple[Any, ...]:
        """The observed steps along a product path, re-derived from the system."""
        steps = []
        for target in path:
            state, buchi_state, observed = vertices[target]
            if observed:
                steps.append(next(
                    step
                    for step, successor, buchi_states in moves(source)
                    if step is not None and buchi_state in buchi_states
                    and key(successor) == key(state)
                ))
            source = target
        return tuple(steps)

    roots = expand(None)
    complete = True
    while len(edges) < len(vertices):  # vertex ids are in breadth-first order
        if (deadline is not None and time.monotonic() > deadline) or len(vertices) > max_states:
            complete = False
            break
        source = len(edges)
        edges[source] = expand(source)
    found = find_lasso(roots, edges, accepting)
    if found is None:
        return ProductResult(None, len(vertices), complete)
    stem, loop = found
    return ProductResult(
        Lasso(steps_along(None, stem), steps_along(stem[-1], loop)), len(vertices), complete
    )


def find_lasso(
    initial: Iterable[Any], edges: Mapping[Any, Iterable[Any]], accepting: AbstractSet[Any]
) -> Optional[Tuple[List[Any], List[Any]]]:
    """``(stem, loop)`` of an accepting lasso of a graph, or ``None``.

    An iterative nested depth-first search (Courcoubetis, Vardi, Wolper and
    Yannakakis, 1992): the outer search starts the inner one on each
    accepting vertex as it leaves it, and the inner searches share one
    visited set, so the whole search is linear.  The inner search runs
    breadth-first, so ``loop`` is a shortest non-empty path from the
    accepting vertex back to it among the vertices it may visit; ``stem`` is
    a shortest path from an initial vertex to it.  Both end with it.
    """
    initial = list(initial)
    visited: Set[Any] = set()
    flagged: Set[Any] = set()
    for root in initial:
        if root in visited:
            continue
        visited.add(root)
        stack = [(root, iter(edges.get(root, ())))]
        while stack:
            vertex, children = stack[-1]
            child = next(children, _DONE)
            if child is _DONE:
                stack.pop()
                if vertex in accepting:
                    loop = _path(edges, edges.get(vertex, ()), vertex, flagged)
                    if loop is not None:
                        return _path(edges, initial, vertex, set()), loop
            elif child not in visited:
                visited.add(child)
                stack.append((child, iter(edges.get(child, ()))))
    return None


def _path(
    edges: Mapping[Any, Iterable[Any]], sources: Iterable[Any], target: Any, seen: Set[Any]
) -> Optional[List[Any]]:
    """A shortest path from one of *sources* to *target* whose other vertices
    are not in *seen*, or ``None``; the vertices it passes join *seen*."""
    parents: Dict[Any, Any] = {}
    frontier = deque((source, _DONE) for source in sources)
    while frontier:
        vertex, parent = frontier.popleft()
        if vertex == target:
            path = [vertex]
            while parent is not _DONE:
                path.append(parent)
                parent = parents[parent]
            return path[::-1]
        if vertex not in seen:
            seen.add(vertex)
            parents[vertex] = parent
            frontier.extend((child, vertex) for child in edges.get(vertex, ()))
    return None
