"""A Spin-like explicit-state baseline verifier.

This verifier mirrors the Spin-based implementation of [33] (the paper's
comparison point, "Spin-Opt") in spirit:

* the unbounded data domain is abstracted into a small finite domain per
  variable type: ``null``, every constant of the specification, and a few
  fresh symbolic values;
* the read-only database is abstracted away entirely -- relational atoms are
  treated as non-deterministic tests (both outcomes are explored), which is
  what a control-flow-level Promela encoding without foreign-key support does;
* updatable artifact relations are **not** supported: insertions and
  retrievals are ignored, exactly like the restricted model the Spin-based
  verifier of [33] handles;
* verification is classic explicit-state LTL model checking: the reachable
  product of the bounded-state system with the Büchi automaton of the negated
  property is built breadth-first and searched for reachable accepting cycles.

Because states are concrete valuations, the state space grows exponentially
with the number of artifact variables; this is the behaviour the Table 2
comparison demonstrates.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.repeated import states_on_cycles
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
    TrueCond,
    Var,
)
from repro.has.services import TERMINATED_SERVICE
from repro.has.types import IdType
from repro.ltl.buchi import BuchiAutomaton, ltl_to_buchi
from repro.ltl.ltlfo import LTLFOProperty

#: How many fresh symbolic values each variable type contributes to the domain.
_FRESH_VALUES_PER_TYPE = 2


@dataclass
class SpinLikeResult:
    """Outcome of a baseline verification run."""

    outcome: str  # "satisfied", "violated" or "unknown"
    states_explored: int
    seconds: float
    failed: bool

    @property
    def violated(self) -> bool:
        return self.outcome == "violated"

    @property
    def satisfied(self) -> bool:
        return self.outcome == "satisfied"


#: A concrete baseline state: variable valuation, child activity, closed flag.
_State = Tuple[Tuple[Tuple[str, object], ...], Tuple[Tuple[str, bool], ...], bool]


class SpinLikeVerifier:
    """Explicit-state bounded-domain verifier for LTL-FO properties of a task."""

    def __init__(
        self,
        system: ArtifactSystem,
        timeout_seconds: Optional[float] = 30.0,
        max_states: int = 50_000,
    ):
        self.system = system
        self.timeout_seconds = timeout_seconds
        self.max_states = max_states

    # ------------------------------------------------------------------ domains

    def _constants(self, task_name: str) -> List[object]:
        constants: List[object] = []
        conditions: List[Condition] = [self.system.global_precondition]
        for service in self.system.internal_services(task_name):
            conditions.extend((service.pre, service.post))
        for child in self.system.children_of(task_name):
            conditions.append(self.system.opening_service(child).pre)
        conditions.append(self.system.closing_service(task_name).pre)
        for condition in conditions:
            for constant in condition.constants():
                if constant.value is not None and constant.value not in constants:
                    constants.append(constant.value)
        return constants

    def _domain(self, task_name: str, var_type, constants: Sequence[object]) -> List[object]:
        if isinstance(var_type, IdType):
            return [None] + [f"${var_type.relation}#{i}" for i in range(_FRESH_VALUES_PER_TYPE)]
        return [None] + list(constants) + [f"$val#{i}" for i in range(_FRESH_VALUES_PER_TYPE)]

    # ------------------------------------------------------------------ condition abstraction

    def _satisfiable(self, condition: Condition, valuation: Dict[str, object]) -> bool:
        """Three-valued satisfiability: relational atoms are non-deterministic."""
        verdict = self._evaluate3(condition, valuation)
        return verdict is not False

    def _evaluate3(self, condition: Condition, valuation: Dict[str, object]) -> Optional[bool]:
        if isinstance(condition, TrueCond):
            return True
        if isinstance(condition, FalseCond):
            return False
        if isinstance(condition, And):
            left = self._evaluate3(condition.left, valuation)
            right = self._evaluate3(condition.right, valuation)
            if left is False or right is False:
                return False
            if left is True and right is True:
                return True
            return None
        if isinstance(condition, Or):
            left = self._evaluate3(condition.left, valuation)
            right = self._evaluate3(condition.right, valuation)
            if left is True or right is True:
                return True
            if left is False and right is False:
                return False
            return None
        if isinstance(condition, Not):
            inner = self._evaluate3(condition.operand, valuation)
            if inner is None:
                return None
            return not inner
        if isinstance(condition, (Eq, Neq)):
            left = self._term_value(condition.left, valuation)
            right = self._term_value(condition.right, valuation)
            equal = left == right
            return equal if isinstance(condition, Eq) else not equal
        if isinstance(condition, RelationAtom):
            # The database is abstracted away: the atom may be true or false,
            # except that atoms with a null argument are definitely false.
            values = [self._term_value(term, valuation) for term in condition.args]
            if any(value is None for value in values):
                return False
            return None
        raise TypeError(f"unsupported condition {condition!r}")

    @staticmethod
    def _term_value(term, valuation: Dict[str, object]) -> object:
        if isinstance(term, Const):
            return term.value
        return valuation.get(term.name)

    # ------------------------------------------------------------------ transition system

    def _successors(
        self,
        task_name: str,
        valuation: Dict[str, object],
        children: Dict[str, bool],
        closed: bool,
        domains: Dict[str, List[object]],
    ) -> List[Tuple[str, Dict[str, object], Dict[str, bool], bool]]:
        if closed:
            return [(TERMINATED_SERVICE, dict(valuation), dict(children), True)]
        task = self.system.task(task_name)
        successors: List[Tuple[str, Dict[str, object], Dict[str, bool], bool]] = []

        def assignments(free_vars: Sequence[str]) -> Iterable[Dict[str, object]]:
            pools = [domains[name] for name in free_vars]
            for combo in itertools.product(*pools) if free_vars else [()]:
                yield dict(zip(free_vars, combo))

        any_child_active = any(children.values())

        # Internal services (artifact-relation updates are ignored, as in [33]).
        if not any_child_active:
            for service in self.system.internal_services(task_name):
                if not self._satisfiable(service.pre, valuation):
                    continue
                propagated = set(service.propagated)
                free_vars = [v.name for v in task.variables if v.name not in propagated]
                for assignment in assignments(free_vars):
                    successor = dict(valuation)
                    successor.update(assignment)
                    if self._satisfiable(service.post, successor):
                        successors.append((service.name, successor, dict(children), False))

        # Child openings.
        for child in self.system.children_of(task_name):
            if children.get(child):
                continue
            opening = self.system.opening_service(child)
            if self._satisfiable(opening.pre, valuation):
                updated = dict(children)
                updated[child] = True
                successors.append((opening.name, dict(valuation), updated, False))

        # Child closings: the returned variables take arbitrary domain values.
        for child in self.system.children_of(task_name):
            if not children.get(child):
                continue
            closing = self.system.closing_service(child)
            returned = sorted(set(closing.output_mapping().values()))
            updated_children = dict(children)
            updated_children[child] = False
            for assignment in assignments(returned):
                successor = dict(valuation)
                successor.update(assignment)
                successors.append((closing.name, successor, updated_children, False))

        # Own closing.
        if not any_child_active:
            closing = self.system.closing_service(task_name)
            if self._satisfiable(closing.pre, valuation):
                successors.append((closing.name, dict(valuation), dict(children), True))
        return successors

    # ------------------------------------------------------------------ LTL product

    def _proposition_assignment(
        self,
        ltl_property: LTLFOProperty,
        service: str,
        valuation: Dict[str, object],
    ) -> Tuple[Set[str], Set[str]]:
        """(definitely true, definitely false) propositions at a snapshot."""
        definitely_true: Set[str] = set()
        definitely_false: Set[str] = set()
        for proposition, condition in ltl_property.conditions.items():
            verdict = self._evaluate3(condition, valuation)
            if verdict is True:
                definitely_true.add(proposition)
            elif verdict is False:
                definitely_false.add(proposition)
        for proposition in ltl_property.service_propositions:
            if proposition == service:
                definitely_true.add(proposition)
            else:
                definitely_false.add(proposition)
        return definitely_true, definitely_false

    def _buchi_successors(
        self,
        automaton: BuchiAutomaton,
        buchi_state: int,
        definitely_true: Set[str],
        definitely_false: Set[str],
    ) -> Set[int]:
        """Büchi successors; unknown propositions may take either truth value."""
        result: Set[int] = set()
        for transition in automaton.outgoing(buchi_state):
            if transition.label.required & definitely_false:
                continue
            if transition.label.forbidden & definitely_true:
                continue
            result.add(transition.target)
        return result

    # ------------------------------------------------------------------ verification

    def verify(self, ltl_property: LTLFOProperty) -> SpinLikeResult:
        started = time.monotonic()
        deadline = started + self.timeout_seconds if self.timeout_seconds is not None else None
        task_name = ltl_property.task
        task = self.system.task(task_name)
        constants = self._constants(task_name)
        domains = {
            var.name: self._domain(task_name, var.type, constants) for var in task.variables
        }
        for global_var in ltl_property.global_variables:
            domains[global_var.name] = self._domain(task_name, global_var.type, constants)

        negated = ltl_property.formula.negated()
        automaton = ltl_to_buchi(negated)

        # Initial states: every variable null (plus every valuation of the
        # global variables), global pre-condition respected for the root task.
        initial_valuations: List[Dict[str, object]] = []
        base = {var.name: None for var in task.variables}
        global_names = list(ltl_property.global_variable_names)
        pools = [domains[name] for name in global_names]
        for combo in itertools.product(*pools) if global_names else [()]:
            valuation = dict(base)
            valuation.update(dict(zip(global_names, combo)))
            if task_name != self.system.root or self._satisfiable(
                self.system.global_precondition, valuation
            ):
                initial_valuations.append(valuation)

        opening_name = self.system.opening_service(task_name).name
        children0 = {child: False for child in self.system.children_of(task_name)}

        # Explicit product exploration.
        edges: Dict[int, Set[int]] = {}
        accepting: Set[int] = set()
        state_ids: Dict[Tuple[_State, int], int] = {}
        work: List[Tuple[_State, int]] = []
        failed = False

        def state_key(valuation: Dict[str, object], children: Dict[str, bool], closed: bool) -> _State:
            return (tuple(sorted(valuation.items(), key=lambda kv: kv[0])),
                    tuple(sorted(children.items())), closed)

        def intern(state: Tuple[_State, int]) -> int:
            if state not in state_ids:
                state_ids[state] = len(state_ids)
                edges[state_ids[state]] = set()
                if state[1] in automaton.accepting_states:
                    accepting.add(state_ids[state])
                work.append(state)
            return state_ids[state]

        for valuation in initial_valuations:
            true_props, false_props = self._proposition_assignment(
                ltl_property, opening_name, valuation
            )
            for initial in automaton.initial_states:
                for target in self._buchi_successors(automaton, initial, true_props, false_props):
                    intern((state_key(valuation, children0, False), target))

        explored = 0
        while work:
            if deadline is not None and time.monotonic() > deadline:
                failed = True
                break
            if len(state_ids) > self.max_states:
                failed = True
                break
            state = work.pop()
            state_id = state_ids[state]
            (valuation_items, children_items, closed), buchi_state = state
            valuation = dict(valuation_items)
            children = dict(children_items)
            explored += 1
            for service, next_valuation, next_children, next_closed in self._successors(
                task_name, valuation, children, closed, domains
            ):
                true_props, false_props = self._proposition_assignment(
                    ltl_property, service, next_valuation
                )
                for target in self._buchi_successors(
                    automaton, buchi_state, true_props, false_props
                ):
                    successor = (state_key(next_valuation, next_children, next_closed), target)
                    successor_id = intern(successor)
                    edges[state_id].add(successor_id)

        seconds = time.monotonic() - started
        if failed:
            return SpinLikeResult("unknown", len(state_ids), seconds, failed=True)

        violated = _has_accepting_cycle(edges, accepting)
        outcome = "violated" if violated else "satisfied"
        return SpinLikeResult(outcome, len(state_ids), seconds, failed=False)


def _has_accepting_cycle(edges: Dict[int, Set[int]], accepting: Set[int]) -> bool:
    """Whether some accepting vertex lies on a cycle (Tarjan SCC over the product graph)."""
    return not accepting.isdisjoint(states_on_cycles(edges))
