"""A concrete oracle: the LTL product search over concrete local runs of a task.

A *local run* of a task is the subsequence of a global run made of its
observable services Σ^obs_T: its internal services, its own opening and
closing, and its children's openings and closings.  :class:`ConcreteOracle`
searches them on one small database for a lasso that violates an LTL-FO
property, with the product search of :mod:`repro.baseline.explicit`.

Every step is a :class:`repro.has.instance.TransitionEngine` move (Definition
27) of the task or of a descendant, so artifact relations hold real tuples
and a child returns only what its own run produced.  Descendants' moves are
silent: they fold into the task's next observable step and count against
``max_states``.  A closed task stutters on ``TERMINATED_SERVICE``.  A run
that reaches a state with no observable move ever after (say, the task waits
on a child that cannot return) yields no lasso.

Values come from the engine's finite candidate pools, so the oracle sees a
subset of the real runs.  What :meth:`ConcreteOracle.check` proves:

* a lasso is a real violating run;
* a complete search without a lasso means no violation on this one database
  within the candidate pools and ``SUCCESSOR_LIMIT``, not that the property
  holds;
* a search the budget stopped without a lasso proves nothing.
"""

from __future__ import annotations

import itertools
from typing import Dict, Hashable, Iterable, List, NamedTuple, Optional, Tuple

from repro.baseline.explicit import ProductResult, search_product
from repro.has.artifact_system import ArtifactSystem
from repro.has.database import Database
from repro.has.instance import SUCCESSOR_LIMIT, Instance, TransitionEngine, initial_instance
from repro.has.services import TERMINATED_SERVICE
from repro.ltl.ltlfo import LTLFOProperty


class LocalSnapshot(NamedTuple):
    """One step of a local run: the service applied and the resulting valuation."""

    service: str
    valuation: Dict[str, object]


#: A move of the oracle's system: its step (``None`` if silent) and the successor.
_Move = Tuple[Optional[LocalSnapshot], Instance]


class ConcreteOracle:
    """Searches the concrete local runs of a task on one database for a violation."""

    def __init__(
        self, system: ArtifactSystem, database: Database, extra_constants: Iterable[object] = ()
    ):
        self.system = system
        self.database = database
        self.engine = TransitionEngine(system, database, extra_constants)

    def check(self, ltl_property: LTLFOProperty, max_states: int) -> ProductResult:
        """``(lasso | None, states, complete)`` for the property's task; the
        lasso's steps are :class:`LocalSnapshot` s.  Letters are exact: each
        condition is evaluated on the snapshot's valuation and the database.
        ``max_states`` bounds the product states, as for Spin-Opt.  Properties
        with global variables raise ``ValueError``."""
        if ltl_property.global_variables:
            raise ValueError("the concrete oracle does not support global variables")
        task = ltl_property.task
        opening = self.system.opening_service(task).name
        initial = [
            (LocalSnapshot(opening, instance.valuation(task)), instance)
            for instance in self._initial_instances(task)
        ]
        return search_product(
            ltl_property,
            initial,
            lambda instance: self._moves(task, instance),
            lambda condition, valuation: condition.evaluate(valuation, self.database),
            max_states,
            key=_instance_key,
        )

    def _initial_instances(self, task_name: str) -> List[Instance]:
        """Instances right after the task opens, every other task inactive.
        The root's variables in the global pre-condition take the candidate
        values that satisfy it; a non-root task's inputs take any candidates."""
        task = self.system.task(task_name)
        is_root = task_name == self.system.root
        if is_root:
            variables = sorted(self.system.global_precondition.variables())
        else:
            variables = list(task.input_variables)
        pools = [self.engine.candidate_values(task, v) for v in variables]
        base = initial_instance(self.system).with_updates(
            stages={name: name == task_name for name in self.system.task_names}
        )
        instances = []
        for combo in itertools.islice(itertools.product(*pools), SUCCESSOR_LIMIT):
            valuation = {var.name: None for var in task.variables}
            valuation.update(zip(variables, combo))
            if is_root and not self.system.global_precondition.evaluate(valuation, self.database):
                continue
            instances.append(base.with_updates(valuations={task_name: valuation}))
        return instances

    def _moves(self, task: str, instance: Instance) -> List[_Move]:
        """Every move of the task's subtree; a descendant's move is silent
        (``None``).  The task's own closing leaves it inactive; then it stutters."""
        system, engine = self.system, self.engine
        valuation = instance.valuation(task)
        if not instance.is_active(task):
            return [(LocalSnapshot(TERMINATED_SERVICE, valuation), instance)]
        moves: List[_Move] = []
        for mover in (task,) + system.descendants_of(task):
            if not instance.is_active(mover):
                continue
            enabled = [
                (service.name, engine.internal_successors(instance, service))
                for service in system.internal_services(mover)
            ]
            for child in system.children_of(mover):
                opening, closing = system.opening_service(child), system.closing_service(child)
                enabled.append((opening.name, engine.opening_successors(instance, child)))
                enabled.append((closing.name, engine.closing_successors(instance, child)))
            for service, successors in enabled:
                for successor in successors:
                    snapshot = LocalSnapshot(service, successor.valuation(task))
                    moves.append((snapshot if mover == task else None, successor))
        closing = system.closing_service(task)
        if not any(
            instance.is_active(child) for child in system.children_of(task)
        ) and closing.pre.evaluate(valuation, self.database):
            closed = instance.with_updates(stages={task: False})
            moves.append((LocalSnapshot(closing.name, valuation), closed))
        return moves


def _instance_key(instance: Instance) -> Hashable:
    """A hashable key of an instance; relation multisets are sorted."""
    return (
        tuple(sorted((task, tuple(sorted(v.items()))) for task, v in instance.valuations.items())),
        tuple(sorted(instance.stages.items())),
        tuple(sorted((k, tuple(sorted(r, key=repr))) for k, r in instance.relations.items())),
    )
