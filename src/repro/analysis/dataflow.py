"""Forward dataflow analysis over the task/service graph.

A forward abstract-interpretation pass computing, per task, the facts
behind lint rules VA302 and VA504:

* an abstract **constant environment**: variable -> constant bindings that
  hold in *every* reachable symbolic state of the task's own verification
  search.  Seeded from the forced constant bindings of the global
  pre-condition (root) / the null-initialisation of non-input variables
  (non-root, Definition 26), and propagated through service pre- and
  post-conditions with the same union-find equality congruence the symbolic
  evaluator implements (:func:`repro.analysis.satisfiability.analyse_disjunct`);
* the **dead services** (never fire in any run) and **dead child openings**;
* the **written-never-read variables**: task variables some service or
  child output mapping stores to and nothing reads.

Soundness contract (what keeps the diagnostics built on these facts
consistent with the search, which does not consume them):

* every binding ``v = c`` of a task's ``constant_env`` is a constraint
  literally present in every reachable partial isomorphism type of that
  task's search: the initial types establish it (forced by the global
  pre-condition / the null initialisation), projections preserve it
  (``PartialIsoType.project`` keeps var = const constraints among kept
  roots, and a variable only survives in the environment if it is
  propagated -- i.e. kept -- by every possibly-enabled service), and every
  post-condition extension re-establishes it (the environment drops any
  variable some possibly-enabled writer does not definitely pin back);
* a service is reported **dead** only when, for every reachable state, the
  symbolic ``extend`` of its pre-condition (or, under the propagated-subset
  of the environment, its post-condition) fails on *every* DNF disjunct by
  plain equality reasoning -- it produces zero symbolic moves in the
  search.

Determinism: every fact is computed with sorted / declaration-order
iteration only -- the summaries feed diagnostics and (indirectly) result
fingerprints, so iteration-order-dependent output would be a bug.  The
``DF001`` rule of ``tools/lint_invariants.py`` gates this module on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Set, Tuple

from repro.analysis.satisfiability import (
    analyse_disjunct,
    binding_literals,
    statically_unsatisfiable_under,
)
from repro.has.artifact_system import ArtifactSystem
from repro.has.conditions import Condition, Eq, Neq
from repro.has.conditions import Const as CondConst
from repro.has.services import Insert, InternalService, Retrieve

#: Sentinel distinguishing "no forced binding" from a forced ``null`` binding.
_MISSING: Any = object()


# ---------------------------------------------------------------------------
# Condition-level helpers
# ---------------------------------------------------------------------------


def satisfiable_disjunct_bindings(
    condition: Condition, assumptions: Mapping[str, Any]
) -> List[Dict[str, Any]]:
    """Per-disjunct forced bindings of ``condition ∧ assumptions``.

    One entry per DNF disjunct that is *satisfiable* under the assumed
    ``var = const`` bindings; an empty list means the condition can never
    hold while the assumptions do.
    """
    extra = binding_literals(assumptions)
    result: List[Dict[str, Any]] = []
    for disjunct in condition.dnf():
        forced = analyse_disjunct(list(disjunct) + extra)
        if forced is not None:
            result.append(forced)
    return result


def forced_bindings_under(
    condition: Condition, assumptions: Mapping[str, Any]
) -> Dict[str, Any]:
    """Variable -> constant bindings forced by *every* satisfiable disjunct
    of ``condition ∧ assumptions`` (congruence-closed, unlike the plain
    literal intersection of PR 9's ``_forced_constant_bindings``)."""
    per_disjunct = satisfiable_disjunct_bindings(condition, assumptions)
    if not per_disjunct:
        return {}
    forced = dict(per_disjunct[0])
    for bindings in per_disjunct[1:]:
        for name in sorted(forced):
            if bindings.get(name, _MISSING) != forced[name]:
                del forced[name]
    return forced


# ---------------------------------------------------------------------------
# Facts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TaskDataflow:
    """The dataflow summary of one task's local symbolic runs."""

    task: str
    #: Variable -> constant bindings holding in every reachable symbolic
    #: state of this task's own verification search (see module docstring).
    constant_env: Mapping[str, Any]
    #: Internal services of this task that can never fire (zero symbolic
    #: moves in every reachable state).
    dead_services: Tuple[str, ...]
    #: Children whose opening guard can never fire from this task.
    dead_child_openings: Tuple[str, ...]
    #: Task variables some service or child output mapping writes but no
    #: condition, update or mapping ever reads (the VA504 fact).
    written_never_read: Tuple[str, ...]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "task": self.task,
            "constant_env": {name: self.constant_env[name] for name in sorted(self.constant_env)},
            "dead_services": list(self.dead_services),
            "dead_child_openings": list(self.dead_child_openings),
            "written_never_read": list(self.written_never_read),
        }


@dataclass(frozen=True)
class DataflowFacts:
    """Per-task dataflow summaries for one specification."""

    tasks: Mapping[str, TaskDataflow]

    def for_task(self, task_name: str) -> Optional[TaskDataflow]:
        return self.tasks.get(task_name)

    def as_dict(self) -> Dict[str, Any]:
        return {name: self.tasks[name].as_dict() for name in sorted(self.tasks)}


# ---------------------------------------------------------------------------
# Per-task analysis
# ---------------------------------------------------------------------------


def _propagated_assumptions(
    env: Mapping[str, Any], service: InternalService
) -> Dict[str, Any]:
    """The environment restricted to the service's propagated variables --
    the only bindings guaranteed to survive the mid-transition projection,
    hence the only ones sound to assume while evaluating the post."""
    return {name: env[name] for name in sorted(service.propagated) if name in env}


def _initial_env(system: ArtifactSystem, task_name: str) -> Dict[str, Any]:
    task = system.task(task_name)
    if task_name == system.root:
        # Definition 14: every initial instance satisfies the global
        # pre-condition, so its forced bindings hold in every initial type.
        task_vars = set(task.variable_names)
        seeded = forced_bindings_under(system.global_precondition, {})
        return {name: seeded[name] for name in sorted(seeded) if name in task_vars}
    # Definition 26: a non-root opening initialises every non-input variable
    # to null; the inputs come from the parent and are left unconstrained by
    # the verified-task search (every possible call is covered lazily), so
    # they contribute nothing -- even if every parent call site would pass a
    # constant.
    inputs = set(task.input_variables)
    return {name: None for name in task.variable_names if name not in inputs}


def _env_fixpoint(system: ArtifactSystem, task_name: str) -> Dict[str, Any]:
    """The greatest constant environment stable under every possibly-enabled
    transition (monotone-decreasing fixpoint; terminates in <= |vars| + 1
    rounds because each round either removes a binding or is the last)."""
    env = _initial_env(system, task_name)
    services = system.internal_services(task_name)
    children = system.children_of(task_name)
    while True:
        changed = False
        for service in services:
            if statically_unsatisfiable_under(service.pre, env):
                continue  # dead under the current env; rechecked every round
            assumptions = _propagated_assumptions(env, service)
            per_disjunct = satisfiable_disjunct_bindings(service.post, assumptions)
            if not per_disjunct:
                continue  # the post can never extend: zero moves
            forced = dict(per_disjunct[0])
            for bindings in per_disjunct[1:]:
                for name in sorted(forced):
                    if bindings.get(name, _MISSING) != forced[name]:
                        del forced[name]
            for name in sorted(env):
                if name in service.propagated:
                    continue
                if forced.get(name, _MISSING) != env[name]:
                    del env[name]
                    changed = True
        for child in children:
            if statically_unsatisfiable_under(system.opening_service(child).pre, env):
                continue  # the child can never open: its closing never fires
            returned = system.closing_service(child).output_mapping().values()
            for target in sorted(set(returned)):
                if target in env:
                    del env[target]
                    changed = True
        if not changed:
            return env


def _dead_services(
    system: ArtifactSystem, task_name: str, env: Mapping[str, Any]
) -> List[str]:
    dead: List[str] = []
    for service in system.internal_services(task_name):
        if statically_unsatisfiable_under(service.pre, env):
            dead.append(service.name)
            continue
        assumptions = _propagated_assumptions(env, service)
        if not satisfiable_disjunct_bindings(service.post, assumptions):
            dead.append(service.name)
    return dead


def _dead_child_openings(
    system: ArtifactSystem, task_name: str, env: Mapping[str, Any]
) -> List[str]:
    return [
        child
        for child in system.children_of(task_name)
        if statically_unsatisfiable_under(system.opening_service(child).pre, env)
    ]


def _reads_and_writes(system: ArtifactSystem, task_name: str) -> Tuple[Set[str], Set[str]]:
    """The task-wide (reads, explicit-writes) variable sets feeding the
    write-only-variable fact."""
    task = system.task(task_name)
    task_vars = set(task.variable_names)
    reads: Set[str] = set()
    writes: Set[str] = set()
    for service in system.internal_services(task_name):
        propagated = set(service.propagated)
        # A service reads its pre-condition, the post-condition constraints
        # over propagated variables and its insertion sources.
        reads |= service.pre.variables() & task_vars
        reads |= service.post.variables() & propagated
        if isinstance(service.update, Insert):
            reads |= set(service.update.variables)
        # Only variable-vs-constant (dis)equality literals count as explicit
        # *stores*, and only for variables not also bound by a relation atom
        # of the same post: a variable-to-variable equality is a copy (both
        # operands are sources), and an atom occurrence is a navigation
        # binding (the idiomatic HAS* database lookup, with equalities
        # acting as lookup filters) -- neither is a dead store.
        explicit: Set[str] = set()
        atom_bound: Set[str] = set()
        for atom in service.post.atoms():
            if isinstance(atom, (Eq, Neq)):
                operands = (atom.left, atom.right)
                if any(isinstance(term, CondConst) for term in operands):
                    explicit |= atom.variables()
            else:
                atom_bound |= atom.variables()
        explicit = (explicit & task_vars) - propagated - atom_bound
        if isinstance(service.update, Retrieve):
            explicit |= set(service.update.variables)
        writes |= explicit
    # The global pre-condition is deliberately *not* a read: it constrains
    # the initial instance before any service writes, so a variable written
    # by a service but mentioned only there is still a dead store.
    reads |= system.closing_service(task_name).pre.variables() & task_vars
    reads |= set(task.output_variables)
    for child in system.children_of(task_name):
        opening = system.opening_service(child)
        reads |= opening.pre.variables() & task_vars
        reads |= set(opening.input_mapping().values())
        writes |= set(system.closing_service(child).output_mapping().values())
    return reads, writes


def _task_dataflow(system: ArtifactSystem, task_name: str) -> TaskDataflow:
    env = _env_fixpoint(system, task_name)
    reads, writes = _reads_and_writes(system, task_name)
    return TaskDataflow(
        task=task_name,
        constant_env={name: env[name] for name in sorted(env)},
        dead_services=tuple(sorted(_dead_services(system, task_name, env))),
        dead_child_openings=tuple(sorted(_dead_child_openings(system, task_name, env))),
        written_never_read=tuple(sorted(writes - reads)),
    )


def compute_dataflow_facts(system: ArtifactSystem) -> DataflowFacts:
    """The per-task dataflow summaries of one specification.

    Cheap enough for the analyzer to call per lint/submit (a handful of DNF
    conversions per service, iterated to a <= |vars|-round fixpoint).
    """
    return DataflowFacts(
        tasks={name: _task_dataflow(system, name) for name in system.task_names}
    )
