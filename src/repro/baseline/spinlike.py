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
  property is built breadth-first and searched for an accepting lasso by
  :mod:`repro.baseline.explicit`, which the concrete oracle shares.  The
  answer is ``unknown`` whenever the state budget or the deadline stops it.

Because states are concrete valuations, the state space grows exponentially
with the number of artifact variables; this is the behaviour the Table 2
comparison demonstrates.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.baseline.explicit import search_product
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
)
from repro.has.services import TERMINATED_SERVICE
from repro.has.types import IdType
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

    def _evaluate3(self, condition: Condition, valuation: Dict[str, object]) -> Optional[bool]:
        """Three-valued evaluation: ``None`` when the abstract database cannot decide."""
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
        self, task_name: str, state: _State, domains: Dict[str, List[object]]
    ) -> List[Tuple[Tuple[str, Dict[str, object]], _State]]:
        """``((service, valuation), successor)`` for every move of the task."""
        valuation_items, children_items, closed = state
        valuation, children = dict(valuation_items), dict(children_items)
        if closed:
            return [((TERMINATED_SERVICE, valuation), state)]
        task = self.system.task(task_name)
        successors: List[Tuple[Tuple[str, Dict[str, object]], _State]] = []

        def add(service: str, after: Dict[str, object], active: Dict[str, bool], closes=False):
            successors.append(((service, after), _state_key(after, active, closes)))

        def assignments(free_vars: Sequence[str]) -> Iterable[Dict[str, object]]:
            pools = [domains[name] for name in free_vars]
            for combo in itertools.product(*pools) if free_vars else [()]:
                yield dict(zip(free_vars, combo))

        any_child_active = any(children.values())

        # Internal services (artifact-relation updates are ignored, as in [33]).
        if not any_child_active:
            for service in self.system.internal_services(task_name):
                if self._evaluate3(service.pre, valuation) is False:
                    continue
                propagated = set(service.propagated)
                free_vars = [v.name for v in task.variables if v.name not in propagated]
                for assignment in assignments(free_vars):
                    successor = dict(valuation)
                    successor.update(assignment)
                    if self._evaluate3(service.post, successor) is not False:
                        add(service.name, successor, children)

        # Child openings.
        for child in self.system.children_of(task_name):
            if children.get(child):
                continue
            opening = self.system.opening_service(child)
            if self._evaluate3(opening.pre, valuation) is not False:
                updated = dict(children)
                updated[child] = True
                add(opening.name, dict(valuation), updated)

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
                add(closing.name, successor, updated_children)

        # Own closing.
        if not any_child_active:
            closing = self.system.closing_service(task_name)
            if self._evaluate3(closing.pre, valuation) is not False:
                add(closing.name, dict(valuation), children, True)
        return successors

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

        # Initial states: every variable null (plus every valuation of the
        # global variables), global pre-condition respected for the root task.
        opening_name = self.system.opening_service(task_name).name
        children0 = {child: False for child in self.system.children_of(task_name)}
        initial = []
        base = {var.name: None for var in task.variables}
        global_names = list(ltl_property.global_variable_names)
        pools = [domains[name] for name in global_names]
        for combo in itertools.product(*pools) if global_names else [()]:
            valuation = dict(base)
            valuation.update(dict(zip(global_names, combo)))
            pre = self._evaluate3(self.system.global_precondition, valuation)
            if task_name != self.system.root or pre is not False:
                initial.append(((opening_name, valuation), _state_key(valuation, children0, False)))

        result = search_product(
            ltl_property,
            initial,
            lambda state: self._successors(task_name, state, domains),
            self._evaluate3,
            self.max_states,
            deadline,
        )
        seconds = time.monotonic() - started
        if not result.complete:
            return SpinLikeResult("unknown", result.states, seconds, failed=True)
        outcome = "violated" if result.lasso is not None else "satisfied"
        return SpinLikeResult(outcome, result.states, seconds, failed=False)


def _state_key(valuation: Dict[str, object], children: Dict[str, bool], closed: bool) -> _State:
    return (tuple(sorted(valuation.items())), tuple(sorted(children.items())), closed)
