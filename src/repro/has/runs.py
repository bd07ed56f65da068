"""Random concrete local runs of a task, stepped through the concrete semantics.

The verifier reasons about *local runs* of a task: the subsequence of a global
run made of the task's observable services Σ^obs_T (its internal services, its
own opening and closing, and its children's openings and closings).  For
testing we sample local runs directly on a small concrete database.

Every step is a move of :class:`repro.has.instance.TransitionEngine`
(Definition 27) by the verified task or one of its descendants, so artifact
relations hold real tuples and children run concretely: a child returns its
output variables only when its closing guard holds, with the values its own
run produced.  Only the verified task's observable moves are recorded; the
descendants' internal moves run silently, at most :data:`SILENT_STEP_LIMIT`
of them per run.

The engine draws non-propagated values from a finite candidate pool, so the
sampled runs are a subset of the real runs: a sampled run that violates a
property is a genuine violation, while the absence of one proves nothing.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.has.artifact_system import ArtifactSystem
from repro.has.database import Database
from repro.has.instance import SUCCESSOR_LIMIT, Instance, TransitionEngine, initial_instance

#: Internal moves of descendant tasks one sampled run may take.
SILENT_STEP_LIMIT = 200


@dataclass(frozen=True)
class LocalSnapshot:
    """One snapshot of a local run: the service applied and the resulting valuation."""

    service: str
    valuation: Dict[str, object]

    def value(self, variable: str) -> object:
        return self.valuation[variable]


@dataclass
class LocalRun:
    """A finite prefix of a local run of the verified task."""

    task: str
    snapshots: List[LocalSnapshot]
    closed: bool = False

    def services(self) -> List[str]:
        return [s.service for s in self.snapshots]

    def __len__(self) -> int:
        return len(self.snapshots)


class ConcreteRunner:
    """Samples concrete local runs of one task on a concrete database."""

    def __init__(
        self,
        system: ArtifactSystem,
        database: Database,
        task: Optional[str] = None,
        extra_constants: Iterable[object] = (),
    ):
        self.system = system
        self.database = database
        self.task_name = task or system.root
        self.task = system.task(self.task_name)
        self.engine = TransitionEngine(system, database, extra_constants)
        self._subtree = (self.task_name,) + system.descendants_of(self.task_name)
        self._initials = self._initial_instances()

    def _initial_instances(self) -> List[Instance]:
        """Instances right after the verified task opens, everything else inactive.

        The root's variables mentioned by the global pre-condition range over
        their candidate values, subject to the pre-condition.  A non-root
        task's input variables come from its parent: any candidate values.
        """
        is_root = self.task_name == self.system.root
        if is_root:
            variables = sorted(self.system.global_precondition.variables())
        else:
            variables = list(self.task.input_variables)
        pools = [self.engine.candidate_values(self.task, v) for v in variables]
        base = initial_instance(self.system).with_updates(
            stages={name: name == self.task_name for name in self.system.task_names}
        )
        instances = []
        for combo in itertools.islice(itertools.product(*pools), SUCCESSOR_LIMIT):
            valuation = {var.name: None for var in self.task.variables}
            valuation.update(zip(variables, combo))
            if is_root and not self.system.global_precondition.evaluate(valuation, self.database):
                continue
            instances.append(base.with_updates(valuations={self.task_name: valuation}))
        return instances

    def _moves(self, instance: Instance) -> List[Tuple[str, bool, Instance]]:
        """``(service, observable, successor)`` for every move of the subtree."""
        moves = []
        for task_name in self._subtree:
            if not instance.is_active(task_name):
                continue
            observable = task_name == self.task_name
            for service in self.system.internal_services(task_name):
                for successor in self.engine.internal_successors(instance, service):
                    moves.append((service.name, observable, successor))
            for child in self.system.children_of(task_name):
                open_name = self.system.opening_service(child).name
                close_name = self.system.closing_service(child).name
                for successor in self.engine.opening_successors(instance, child):
                    moves.append((open_name, observable, successor))
                for successor in self.engine.closing_successors(instance, child):
                    moves.append((close_name, observable, successor))
        closing = self.system.closing_service(self.task_name)
        if not any(
            instance.is_active(child) for child in self.system.children_of(self.task_name)
        ) and closing.pre.evaluate(instance.valuation(self.task_name), self.database):
            moves.append((closing.name, True, instance))
        return moves

    def random_local_run(self, rng: random.Random, max_length: int = 12) -> LocalRun:
        """Sample one local run prefix, choosing uniformly among the moves at each step."""
        run = LocalRun(self.task_name, [])
        if not self._initials:
            return run
        instance = rng.choice(self._initials)
        opening = self.system.opening_service(self.task_name).name
        closing = self.system.closing_service(self.task_name).name
        run.snapshots.append(LocalSnapshot(opening, instance.valuation(self.task_name)))
        silent_steps = 0
        while len(run) < max_length and not run.closed:
            moves = self._moves(instance)
            if not moves:
                break
            service, observable, instance = rng.choice(moves)
            if observable:
                run.snapshots.append(LocalSnapshot(service, instance.valuation(self.task_name)))
                run.closed = service == closing
            else:
                silent_steps += 1
                if silent_steps > SILENT_STEP_LIMIT:
                    break
        return run
