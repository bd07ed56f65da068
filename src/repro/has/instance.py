"""Concrete instances of an artifact system and the concrete transition relation.

An :class:`Instance` (Definition 7) is a tuple ``(ν, stg, D, S)``: a valuation
of all tasks' artifact variables, the active/inactive stage of every task, a
read-only database and the contents of every artifact relation.  The module
implements the concrete transition relation of Definition 27 (Appendix A):
internal services, opening services and closing services.

The concrete semantics is independent of the symbolic verifier, which it
grades: it is the only concrete step relation in the package, and the
concrete oracle in :mod:`repro.has.runs` searches its runs for violating
lassos to cross-check the symbolic search on small databases.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.has.artifact_system import ArtifactSystem
from repro.has.database import Database
from repro.has.services import ClosingService, Insert, InternalService, OpeningService, Retrieve
from repro.has.tasks import TaskSchema
from repro.has.types import IdType

#: The most valuations one enumeration of candidate values tries.
SUCCESSOR_LIMIT = 2000


@dataclass(frozen=True)
class Instance:
    """A concrete snapshot of an artifact system run.

    ``valuations[task][var]`` is the current value of an artifact variable
    (``None`` encodes ``null``); ``stages[task]`` is ``True`` when the task is
    active; ``relations[(task, relation)]`` is the multiset (stored as a
    tuple) of tuples currently in an artifact relation.
    """

    valuations: Mapping[str, Mapping[str, object]]
    stages: Mapping[str, bool]
    relations: Mapping[Tuple[str, str], Tuple[Tuple[object, ...], ...]]

    def valuation(self, task: str) -> Dict[str, object]:
        return dict(self.valuations[task])

    def is_active(self, task: str) -> bool:
        return bool(self.stages[task])

    def relation_contents(self, task: str, relation: str) -> Tuple[Tuple[object, ...], ...]:
        return self.relations.get((task, relation), ())

    def with_updates(
        self,
        valuations: Optional[Mapping[str, Mapping[str, object]]] = None,
        stages: Optional[Mapping[str, bool]] = None,
        relations: Optional[Mapping[Tuple[str, str], Tuple[Tuple[object, ...], ...]]] = None,
    ) -> "Instance":
        new_valuations = {t: dict(v) for t, v in self.valuations.items()}
        if valuations:
            for task, vals in valuations.items():
                new_valuations[task] = dict(vals)
        new_stages = dict(self.stages)
        if stages:
            new_stages.update(stages)
        new_relations = dict(self.relations)
        if relations:
            new_relations.update(relations)
        return Instance(new_valuations, new_stages, new_relations)


def initial_instance(system: ArtifactSystem) -> Instance:
    """The initial instance: root active, everything null, relations empty."""
    valuations = {
        task.name: {var.name: None for var in task.variables} for task in system.tasks
    }
    stages = {task.name: task.name == system.root for task in system.tasks}
    relations: Dict[Tuple[str, str], Tuple[Tuple[object, ...], ...]] = {}
    for task in system.tasks:
        for rel in task.artifact_relations:
            relations[(task.name, rel.name)] = ()
    return Instance(valuations, stages, relations)


class TransitionEngine:
    """Enumerates concrete successors of an instance under each service.

    Because variable domains are infinite, non-propagated variables are
    re-assigned from a finite candidate pool: the database's values of the
    right type, the constants mentioned in the specification, and ``null``.
    This bounded-domain semantics is sufficient for differential testing.
    """

    def __init__(self, system: ArtifactSystem, database: Database, extra_constants: Iterable[object] = ()):
        self.system = system
        self.database = database
        self._extra_constants = tuple(extra_constants)

    # -- candidate values -------------------------------------------------------

    def candidate_values(self, task: TaskSchema, var_name: str) -> Tuple[object, ...]:
        var = task.variable(var_name)
        if isinstance(var.type, IdType):
            values: Tuple[object, ...] = self.database.ids(var.type.relation)
        else:
            constants = [c for c in self._spec_constants() if isinstance(c, (str, int, float))]
            values = tuple(dict.fromkeys(tuple(self.database.values_of_type(None)) + tuple(constants)))
        return (None,) + values

    def _spec_constants(self) -> Tuple[object, ...]:
        constants: List[object] = list(self._extra_constants)
        for service in self.system.all_internal_services():
            for condition in (service.pre, service.post):
                constants.extend(c.value for c in condition.constants() if c.value is not None)
        for task_name in self.system.task_names:
            for condition in (
                self.system.opening_service(task_name).pre,
                self.system.closing_service(task_name).pre,
            ):
                constants.extend(c.value for c in condition.constants() if c.value is not None)
        constants.extend(
            c.value for c in self.system.global_precondition.constants() if c.value is not None
        )
        return tuple(dict.fromkeys(constants))

    # -- successor enumeration ---------------------------------------------------

    def internal_successors(
        self, instance: Instance, service: InternalService, limit: int = SUCCESSOR_LIMIT
    ) -> List[Instance]:
        """All successors of *instance* under an internal service (bounded)."""
        task = self.system.task(service.task)
        if not instance.is_active(task.name):
            return []
        if any(instance.is_active(child) for child in self.system.children_of(task.name)):
            return []
        valuation = instance.valuation(task.name)
        if not service.pre.evaluate(valuation, self.database):
            return []

        propagated = set(service.propagated)
        free_vars = [v.name for v in task.variables if v.name not in propagated]
        pools = [self.candidate_values(task, v) for v in free_vars]
        successors: List[Instance] = []
        count = 0
        for combo in itertools.product(*pools) if free_vars else [()]:
            count += 1
            if count > limit:
                break
            next_valuation = dict(valuation)
            for var_name, value in zip(free_vars, combo):
                next_valuation[var_name] = value
            if not service.post.evaluate(next_valuation, self.database):
                continue
            successors.extend(
                self._apply_update(instance, task, service, valuation, next_valuation)
            )
        return successors

    def _apply_update(
        self,
        instance: Instance,
        task: TaskSchema,
        service: InternalService,
        old_valuation: Dict[str, object],
        new_valuation: Dict[str, object],
    ) -> List[Instance]:
        if service.update is None:
            return [instance.with_updates(valuations={task.name: new_valuation})]
        key = (task.name, service.update.relation)
        contents = list(instance.relation_contents(task.name, service.update.relation))
        if isinstance(service.update, Insert):
            inserted = tuple(old_valuation[v] for v in service.update.variables)
            return [
                instance.with_updates(
                    valuations={task.name: new_valuation},
                    relations={key: tuple(contents) + (inserted,)},
                )
            ]
        assert isinstance(service.update, Retrieve)
        successors = []
        for index, row in enumerate(contents):
            retrieved_valuation = dict(new_valuation)
            for var_name, value in zip(service.update.variables, row):
                retrieved_valuation[var_name] = value
            if not service.post.evaluate(retrieved_valuation, self.database):
                continue
            remaining = tuple(contents[:index] + contents[index + 1 :])
            successors.append(
                instance.with_updates(
                    valuations={task.name: retrieved_valuation},
                    relations={key: remaining},
                )
            )
        return successors

    def opening_successors(self, instance: Instance, child: str) -> List[Instance]:
        """Successors that open the child task *child*."""
        parent_name = self.system.parent_of(child)
        if parent_name is None:
            return []
        if instance.is_active(child) or not instance.is_active(parent_name):
            return []
        opening = self.system.opening_service(child)
        parent_valuation = instance.valuation(parent_name)
        if not opening.pre.evaluate(parent_valuation, self.database):
            return []
        child_task = self.system.task(child)
        child_valuation = {var.name: None for var in child_task.variables}
        for child_var, parent_var in opening.input_mapping().items():
            child_valuation[child_var] = parent_valuation[parent_var]
        relations = {
            (child, rel.name): () for rel in child_task.artifact_relations
        }
        return [
            instance.with_updates(
                valuations={child: child_valuation},
                stages={child: True},
                relations=relations,
            )
        ]

    def closing_successors(self, instance: Instance, child: str) -> List[Instance]:
        """Successors that close the (currently active) child task *child*."""
        parent_name = self.system.parent_of(child)
        if parent_name is None:
            return []
        if not instance.is_active(child):
            return []
        if any(instance.is_active(grandchild) for grandchild in self.system.children_of(child)):
            return []
        closing = self.system.closing_service(child)
        child_valuation = instance.valuation(child)
        if not closing.pre.evaluate(child_valuation, self.database):
            return []
        parent_valuation = instance.valuation(parent_name)
        for child_var, parent_var in closing.output_mapping().items():
            parent_valuation[parent_var] = child_valuation[child_var]
        child_task = self.system.task(child)
        relations = {
            (child, rel.name): () for rel in child_task.artifact_relations
        }
        return [
            instance.with_updates(
                valuations={parent_name: parent_valuation},
                stages={child: False},
                relations=relations,
            )
        ]
