"""LTL-FO properties of a task (Definition 29).

An LTL-FO property ``∀ȳ φ_f`` of a task ``T`` consists of

* an LTL formula ``φ`` over propositions ``P ∪ Σ^obs_T``,
* an interpretation ``f`` of the propositions in ``P`` as quantifier-free FO
  conditions over ``x̄_T ∪ ȳ``, and
* a tuple ``ȳ`` of *global variables*, universally quantified over the whole
  property, which connect the task's state at different moments of the run
  (for example the item id in the paper's running-example property (†)).

Propositions of the LTL skeleton whose names are *not* interpreted by ``f``
are treated as service propositions: they hold at a snapshot exactly when the
snapshot was produced by the service of that name.  The verifier checks that
every such name is observable in local runs of the task.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional, Sequence, Set, Tuple

from repro.has.conditions import Condition
from repro.has.types import IdType, VALUE, VarType
from repro.ltl.syntax import Formula


@dataclass(frozen=True)
class GlobalVariable:
    """A universally quantified global variable of an LTL-FO property."""

    name: str
    type: VarType = VALUE

    @property
    def is_id(self) -> bool:
        return isinstance(self.type, IdType)


class LTLFOProperty:
    """An LTL-FO property ``∀ȳ φ_f`` of a single task."""

    def __init__(
        self,
        task: str,
        formula: Formula,
        conditions: Mapping[str, Condition] = (),
        global_variables: Sequence[GlobalVariable] = (),
        name: Optional[str] = None,
    ):
        self.task = task
        self.formula = formula
        self.conditions: Dict[str, Condition] = dict(conditions) if conditions else {}
        self.global_variables: Tuple[GlobalVariable, ...] = tuple(global_variables)
        self.name = name or str(formula)
        duplicate = {v.name for v in self.global_variables}
        if len(duplicate) != len(self.global_variables):
            raise ValueError("duplicate global variable names in LTL-FO property")

    # -- structural queries ---------------------------------------------------

    @property
    def service_propositions(self) -> Set[str]:
        """Propositions interpreted as observable service occurrences."""
        return self.formula.propositions() - set(self.conditions)

    @property
    def global_variable_names(self) -> Tuple[str, ...]:
        return tuple(v.name for v in self.global_variables)

    def validate_against(self, task_variables: Iterable[str], observable_services: Iterable[str]) -> None:
        """Check the property only refers to the task's variables and observable services.

        Raises ``ValueError`` when a condition mentions an unknown variable or
        a service proposition does not name an observable service.
        """
        allowed = set(task_variables) | set(self.global_variable_names)
        for proposition, condition in self.conditions.items():
            unknown = condition.variables() - allowed
            if unknown:
                raise ValueError(
                    f"condition for proposition {proposition!r} mentions unknown variables "
                    f"{sorted(unknown)}"
                )
        services = set(observable_services)
        unknown_services = self.service_propositions - services
        if unknown_services:
            raise ValueError(
                f"propositions {sorted(unknown_services)} are neither interpreted conditions "
                f"nor observable services of task {self.task!r}"
            )

    def __eq__(self, other: object) -> bool:
        """Structural equality (used by spec round-trips and the result cache)."""
        if not isinstance(other, LTLFOProperty):
            return NotImplemented
        return (
            self.task == other.task
            and self.formula == other.formula
            and self.conditions == other.conditions
            and self.global_variables == other.global_variables
            and self.name == other.name
        )

    __hash__ = object.__hash__

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LTLFOProperty(task={self.task!r}, formula={self.formula})"
