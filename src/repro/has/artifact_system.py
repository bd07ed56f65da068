"""Artifact systems: a hierarchy of tasks over a database schema (Definitions 5, 13).

An :class:`ArtifactSystem` bundles

* an acyclic :class:`~repro.has.schema.DatabaseSchema`,
* a rooted tree of :class:`~repro.has.tasks.TaskSchema` objects,
* the internal services of each task and the opening / closing services of
  every task, and
* the global pre-condition Π over the root task's variables.

Construction validates the definitional restrictions of the HAS* model: the
hierarchy is a tree, conditions only mention variables of the right task,
input variables are always propagated, services with an artifact-relation
update propagate exactly the input variables, update tuples are type-correct,
and opening/closing maps are type-correct 1-1 mappings.

Note on variable names: the paper formally requires variable names to be
pairwise disjoint across tasks but reuses names in its examples "for
convenience".  We follow the examples: every task is its own namespace, so the
same name may appear in several tasks without ambiguity (conditions are always
interpreted relative to a single task).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.has.conditions import Condition, FalseCond, TrueCond
from repro.has.schema import DatabaseSchema
from repro.has.services import (
    ClosingService,
    Insert,
    InternalService,
    OpeningService,
    Retrieve,
)
from repro.has.tasks import TaskSchema, Variable
from repro.has.types import IdType, VarType


class SpecificationError(ValueError):
    """Raised when an artifact system violates the HAS* well-formedness rules."""


class ArtifactSystem:
    """A HAS* specification ``Γ = (A, Σ, Π)`` (Definition 13)."""

    def __init__(
        self,
        schema: DatabaseSchema,
        tasks: Sequence[TaskSchema],
        hierarchy: Mapping[str, Optional[str]],
        internal_services: Sequence[InternalService],
        opening_services: Sequence[OpeningService] = (),
        closing_services: Sequence[ClosingService] = (),
        global_precondition: Condition = TrueCond(),
        name: str = "artifact-system",
    ):
        self.name = name
        self.schema = schema
        self._tasks: Dict[str, TaskSchema] = {}
        for task in tasks:
            if task.name in self._tasks:
                raise SpecificationError(f"duplicate task name {task.name!r}")
            self._tasks[task.name] = task

        self._parent: Dict[str, Optional[str]] = dict(hierarchy)
        self._children: Dict[str, List[str]] = {name: [] for name in self._tasks}
        self._root = self._build_hierarchy()

        self._internal: Dict[str, List[InternalService]] = {name: [] for name in self._tasks}
        for service in internal_services:
            if service.task not in self._tasks:
                raise SpecificationError(
                    f"internal service {service.name!r} refers to unknown task {service.task!r}"
                )
            self._internal[service.task].append(service)

        self._opening: Dict[str, OpeningService] = {}
        for service in opening_services:
            if service.task not in self._tasks:
                raise SpecificationError(
                    f"opening service refers to unknown task {service.task!r}"
                )
            if service.task in self._opening:
                raise SpecificationError(f"duplicate opening service for task {service.task!r}")
            self._opening[service.task] = service

        self._closing: Dict[str, ClosingService] = {}
        for service in closing_services:
            if service.task not in self._tasks:
                raise SpecificationError(
                    f"closing service refers to unknown task {service.task!r}"
                )
            if service.task in self._closing:
                raise SpecificationError(f"duplicate closing service for task {service.task!r}")
            self._closing[service.task] = service

        # Default opening/closing services where omitted: the root opens with
        # the global pre-condition and never closes; other tasks open and close
        # unconditionally with empty variable maps.
        for task_name in self._tasks:
            if task_name not in self._opening:
                if task_name == self._root:
                    self._opening[task_name] = OpeningService(task_name, TrueCond())
                else:
                    self._opening[task_name] = OpeningService(task_name, TrueCond())
            if task_name not in self._closing:
                if task_name == self._root:
                    self._closing[task_name] = ClosingService(task_name, FalseCond())
                else:
                    self._closing[task_name] = ClosingService(task_name, TrueCond())

        self.global_precondition = global_precondition
        self._validate()

    # ------------------------------------------------------------------ tree

    def _build_hierarchy(self) -> str:
        roots = []
        for task_name in self._tasks:
            if task_name not in self._parent:
                raise SpecificationError(f"task {task_name!r} missing from the hierarchy mapping")
            parent = self._parent[task_name]
            if parent is None:
                roots.append(task_name)
            else:
                if parent not in self._tasks:
                    raise SpecificationError(
                        f"task {task_name!r} has unknown parent {parent!r}"
                    )
                self._children[parent].append(task_name)
        for extra in self._parent:
            if extra not in self._tasks:
                raise SpecificationError(f"hierarchy mentions unknown task {extra!r}")
        if len(roots) != 1:
            raise SpecificationError(
                f"the task hierarchy must have exactly one root, found {roots!r}"
            )
        root = roots[0]
        # Check the hierarchy is a tree (every task reachable from the root,
        # no cycles).
        visited: Set[str] = set()
        stack = [root]
        while stack:
            current = stack.pop()
            if current in visited:
                raise SpecificationError("the task hierarchy contains a cycle")
            visited.add(current)
            stack.extend(self._children[current])
        if visited != set(self._tasks):
            missing = set(self._tasks) - visited
            raise SpecificationError(f"tasks unreachable from the root: {sorted(missing)}")
        return root

    # -------------------------------------------------------------- validation

    def _validate(self) -> None:
        self._validate_variable_types()
        for task_name, services in self._internal.items():
            task = self._tasks[task_name]
            names = [s.name for s in services]
            if len(set(names)) != len(names):
                raise SpecificationError(f"duplicate internal service names in task {task_name!r}")
            for service in services:
                self._validate_internal(task, service)
        for task_name, opening in self._opening.items():
            self._validate_opening(task_name, opening)
        for task_name, closing in self._closing.items():
            self._validate_closing(task_name, closing)
        self._validate_condition(self.global_precondition, self._tasks[self._root], "global pre-condition")

    def _validate_variable_types(self) -> None:
        for task in self._tasks.values():
            for var in task.variables:
                if isinstance(var.type, IdType) and var.type.relation not in self.schema:
                    raise SpecificationError(
                        f"variable {task.name}.{var.name} has id type of unknown relation "
                        f"{var.type.relation!r}"
                    )
            for rel in task.artifact_relations:
                for attr in rel.attributes:
                    if isinstance(attr.type, IdType) and attr.type.relation not in self.schema:
                        raise SpecificationError(
                            f"artifact relation {task.name}.{rel.name} attribute {attr.name!r} "
                            f"has id type of unknown relation {attr.type.relation!r}"
                        )

    def _validate_condition(self, condition: Condition, task: TaskSchema, context: str) -> None:
        unknown = condition.variables() - set(task.variable_names)
        if unknown:
            raise SpecificationError(
                f"{context} mentions variables {sorted(unknown)} that are not variables of "
                f"task {task.name!r}"
            )
        for atom in condition.atoms():
            relation = getattr(atom, "relation", None)
            if relation is None:
                continue
            if not self.schema.has_relation(relation):
                raise SpecificationError(
                    f"{context} uses unknown database relation {relation!r}"
                )
            expected = self.schema.relation(relation).arity
            if len(atom.args) != expected:
                raise SpecificationError(
                    f"{context}: atom {atom} has {len(atom.args)} arguments, "
                    f"relation {relation!r} has arity {expected}"
                )

    def _validate_internal(self, task: TaskSchema, service: InternalService) -> None:
        context = f"service {task.name}.{service.name}"
        self._validate_condition(service.pre, task, f"{context} pre-condition")
        self._validate_condition(service.post, task, f"{context} post-condition")
        unknown = service.propagated - set(task.variable_names)
        if unknown:
            raise SpecificationError(
                f"{context} propagates unknown variables {sorted(unknown)}"
            )
        if not set(task.input_variables) <= service.propagated | set():
            # Input variables are always propagated; tolerate specifications
            # that omit them by adding them implicitly would hide errors, so
            # we require them to be listed only when the task has inputs.
            missing = set(task.input_variables) - service.propagated
            if missing:
                raise SpecificationError(
                    f"{context} must propagate the input variables {sorted(missing)}"
                )
        if service.update is not None:
            if service.propagated != frozenset(task.input_variables):
                raise SpecificationError(
                    f"{context} has an artifact-relation update, so its propagated set must "
                    f"equal the task's input variables"
                )
            update = service.update
            if not task.has_artifact_relation(update.relation):
                raise SpecificationError(
                    f"{context} updates unknown artifact relation {update.relation!r}"
                )
            relation = task.artifact_relation(update.relation)
            if len(update.variables) != relation.arity:
                raise SpecificationError(
                    f"{context}: update {update} has {len(update.variables)} variables, "
                    f"artifact relation {relation.name!r} has arity {relation.arity}"
                )
            for var_name, attr in zip(update.variables, relation.attributes):
                if not task.has_variable(var_name):
                    raise SpecificationError(
                        f"{context}: update uses unknown variable {var_name!r}"
                    )
                if task.variable_type(var_name) != attr.type:
                    raise SpecificationError(
                        f"{context}: update variable {var_name!r} has type "
                        f"{task.variable_type(var_name)} but attribute {attr.name!r} has type "
                        f"{attr.type}"
                    )

    def _validate_opening(self, task_name: str, service: OpeningService) -> None:
        task = self._tasks[task_name]
        context = f"opening service of {task_name!r}"
        if task_name == self._root:
            if service.input_map:
                raise SpecificationError(f"{context}: the root task takes no input variables")
            self._validate_condition(service.pre, task, f"{context} pre-condition")
            return
        parent = self._tasks[self.parent_of(task_name)]
        self._validate_condition(service.pre, parent, f"{context} pre-condition")
        mapping = service.input_mapping()
        if set(mapping) != set(task.input_variables):
            raise SpecificationError(
                f"{context}: input map must cover exactly the input variables "
                f"{list(task.input_variables)}, got {sorted(mapping)}"
            )
        if len(set(mapping.values())) != len(mapping):
            raise SpecificationError(f"{context}: input map must be 1-1")
        for child_var, parent_var in mapping.items():
            if not parent.has_variable(parent_var):
                raise SpecificationError(
                    f"{context}: parent variable {parent_var!r} does not exist"
                )
            if parent.variable_type(parent_var) != task.variable_type(child_var):
                raise SpecificationError(
                    f"{context}: type mismatch passing {parent_var!r} to {child_var!r}"
                )

    def _validate_closing(self, task_name: str, service: ClosingService) -> None:
        task = self._tasks[task_name]
        context = f"closing service of {task_name!r}"
        self._validate_condition(service.pre, task, f"{context} pre-condition")
        if task_name == self._root:
            if service.output_map:
                raise SpecificationError(f"{context}: the root task returns no output variables")
            return
        parent = self._tasks[self.parent_of(task_name)]
        mapping = service.output_mapping()
        if set(mapping) != set(task.output_variables):
            raise SpecificationError(
                f"{context}: output map must cover exactly the output variables "
                f"{list(task.output_variables)}, got {sorted(mapping)}"
            )
        if len(set(mapping.values())) != len(mapping):
            raise SpecificationError(f"{context}: output map must be 1-1")
        returned_parent_vars = set(mapping.values())
        if returned_parent_vars & set(parent.input_variables):
            raise SpecificationError(
                f"{context}: returned variables may not overlap the parent's input variables"
            )
        for child_var, parent_var in mapping.items():
            if not parent.has_variable(parent_var):
                raise SpecificationError(
                    f"{context}: parent variable {parent_var!r} does not exist"
                )
            if parent.variable_type(parent_var) != task.variable_type(child_var):
                raise SpecificationError(
                    f"{context}: type mismatch returning {child_var!r} into {parent_var!r}"
                )

    # -------------------------------------------------------------- accessors

    @property
    def root(self) -> str:
        """Name of the root task T1."""
        return self._root

    @property
    def task_names(self) -> Tuple[str, ...]:
        return tuple(self._tasks)

    @property
    def tasks(self) -> Tuple[TaskSchema, ...]:
        return tuple(self._tasks.values())

    def task(self, name: str) -> TaskSchema:
        try:
            return self._tasks[name]
        except KeyError:
            raise KeyError(f"unknown task {name!r}") from None

    def has_task(self, name: str) -> bool:
        return name in self._tasks

    def parent_of(self, task_name: str) -> Optional[str]:
        return self._parent[task_name]

    def children_of(self, task_name: str) -> Tuple[str, ...]:
        return tuple(self._children[task_name])

    def descendants_of(self, task_name: str) -> Tuple[str, ...]:
        """All strict descendants of *task_name* in pre-order."""
        result: List[str] = []
        stack = list(self._children[task_name])
        while stack:
            current = stack.pop(0)
            result.append(current)
            stack = list(self._children[current]) + stack
        return tuple(result)

    def internal_services(self, task_name: str) -> Tuple[InternalService, ...]:
        return tuple(self._internal[task_name])

    def all_internal_services(self) -> Tuple[InternalService, ...]:
        return tuple(s for services in self._internal.values() for s in services)

    def opening_service(self, task_name: str) -> OpeningService:
        return self._opening[task_name]

    def closing_service(self, task_name: str) -> ClosingService:
        return self._closing[task_name]

    def observable_service_names(self, task_name: str) -> Tuple[str, ...]:
        """Names of the services observable in local runs of *task_name* (Σ^obs_T).

        These are the task's internal services, its own opening and closing
        services, and the opening and closing services of its children.
        """
        names = [s.name for s in self._internal[task_name]]
        names.append(self._opening[task_name].name)
        names.append(self._closing[task_name].name)
        for child in self._children[task_name]:
            names.append(self._opening[child].name)
            names.append(self._closing[child].name)
        return tuple(names)

    # -------------------------------------------------------------- statistics

    def statistics(self) -> Dict[str, float]:
        """Size statistics in the format of Table 1 of the paper."""
        n_services = sum(len(s) for s in self._internal.values()) + 2 * len(self._tasks)
        n_variables = sum(len(t.variables) for t in self._tasks.values())
        return {
            "relations": len(self.schema),
            "tasks": len(self._tasks),
            "variables": n_variables,
            "services": n_services,
        }

    def __eq__(self, other: object) -> bool:
        """Structural equality over all declared components (used by spec round-trips)."""
        if not isinstance(other, ArtifactSystem):
            return NotImplemented
        return (
            self.name == other.name
            and self.schema == other.schema
            and self.tasks == other.tasks
            and self._parent == other._parent
            and self._internal == other._internal
            and self._opening == other._opening
            and self._closing == other._closing
            and self.global_precondition == other.global_precondition
        )

    __hash__ = object.__hash__

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ArtifactSystem({self.name!r}, tasks={list(self._tasks)})"
