"""Services: internal services and opening / closing services (Definitions 10 and 26).

* An :class:`InternalService` of a task updates the task's artifact variables
  (guarded by a pre-condition, constrained by a post-condition) and may insert
  a tuple into, or retrieve a tuple from, one of the task's artifact
  relations.
* An :class:`OpeningService` activates a child task, passing a tuple of the
  parent's variables as the child's input variables.
* A :class:`ClosingService` closes a child task (guarded by a condition on the
  child's variables) and copies the child's output variables back into
  variables of the parent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Optional, Sequence, Tuple, Union

from repro.has.conditions import Condition, TrueCond


#: Reserved service name used for the terminal stutter step after a task closes.
TERMINATED_SERVICE = "__terminated__"


@dataclass(frozen=True)
class Insert:
    """Insert the current value of ``variables`` as a tuple into ``relation``.

    ``variables[i]`` provides the value of the relation's i-th attribute.
    """

    relation: str
    variables: Tuple[str, ...]

    def __init__(self, relation: str, variables: Iterable[str]):
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "variables", tuple(variables))

    def __str__(self) -> str:
        return f"+{self.relation}({', '.join(self.variables)})"


@dataclass(frozen=True)
class Retrieve:
    """Remove a nondeterministically chosen tuple from ``relation``.

    The removed tuple's components become the next values of ``variables``.
    """

    relation: str
    variables: Tuple[str, ...]

    def __init__(self, relation: str, variables: Iterable[str]):
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "variables", tuple(variables))

    def __str__(self) -> str:
        return f"-{self.relation}({', '.join(self.variables)})"


Update = Union[Insert, Retrieve]


@dataclass(frozen=True)
class InternalService:
    """An internal service ``σ = (π, ψ, ȳ, δ)`` of a task (Definition 10).

    * ``pre`` (π) guards applicability (evaluated on the current instance).
    * ``post`` (ψ) constrains the next values of the task's variables.
    * ``propagated`` (ȳ) lists the variables whose values are preserved; the
      task's input variables are always propagated.
    * ``update`` (δ) is an optional insertion into / retrieval from one of the
      task's artifact relations.  When present, only the input variables may
      be propagated (the model's restriction).
    """

    name: str
    task: str
    pre: Condition = TrueCond()
    post: Condition = TrueCond()
    propagated: FrozenSet[str] = frozenset()
    update: Optional[Update] = None

    def __init__(
        self,
        name: str,
        task: str,
        pre: Condition = TrueCond(),
        post: Condition = TrueCond(),
        propagated: Iterable[str] = (),
        update: Optional[Update] = None,
    ):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "task", task)
        object.__setattr__(self, "pre", pre)
        object.__setattr__(self, "post", post)
        object.__setattr__(self, "propagated", frozenset(propagated))
        object.__setattr__(self, "update", update)

    def __str__(self) -> str:
        return f"{self.task}.{self.name}"


@dataclass(frozen=True)
class OpeningService:
    """The opening service ``σ^o_T`` of a task (Definition 26(i)).

    ``pre`` is a condition over the *parent's* variables; ``input_map`` sends
    each input variable of the child to the parent variable whose value it
    receives.  For the root task the pre-condition is the system's global
    pre-condition and the input map is empty.
    """

    task: str
    pre: Condition = TrueCond()
    input_map: Tuple[Tuple[str, str], ...] = ()

    def __init__(
        self,
        task: str,
        pre: Condition = TrueCond(),
        input_map: Union[Dict[str, str], Iterable[Tuple[str, str]]] = (),
    ):
        object.__setattr__(self, "task", task)
        object.__setattr__(self, "pre", pre)
        if isinstance(input_map, dict):
            pairs = tuple(sorted(input_map.items()))
        else:
            pairs = tuple(input_map)
        object.__setattr__(self, "input_map", pairs)

    @property
    def name(self) -> str:
        return f"open_{self.task}"

    def input_mapping(self) -> Dict[str, str]:
        """Child input variable -> parent variable."""
        return dict(self.input_map)

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class ClosingService:
    """The closing service ``σ^c_T`` of a task (Definition 26(ii)).

    ``pre`` is a condition over the *child's* variables; ``output_map`` sends
    each output variable of the child to the parent variable that receives its
    value when the child returns.  For the root task the pre-condition is
    ``false`` (the root never returns).
    """

    task: str
    pre: Condition = TrueCond()
    output_map: Tuple[Tuple[str, str], ...] = ()

    def __init__(
        self,
        task: str,
        pre: Condition = TrueCond(),
        output_map: Union[Dict[str, str], Iterable[Tuple[str, str]]] = (),
    ):
        object.__setattr__(self, "task", task)
        object.__setattr__(self, "pre", pre)
        if isinstance(output_map, dict):
            pairs = tuple(sorted(output_map.items()))
        else:
            pairs = tuple(output_map)
        object.__setattr__(self, "output_map", pairs)

    @property
    def name(self) -> str:
        return f"close_{self.task}"

    def output_mapping(self) -> Dict[str, str]:
        """Child output variable -> parent variable."""
        return dict(self.output_map)

    def __str__(self) -> str:
        return self.name


Service = Union[InternalService, OpeningService, ClosingService]
