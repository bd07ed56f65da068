"""The static analyzer over :class:`ArtifactSystem` + :class:`LTLFOProperty`.

Two entry points:

* :func:`analyze` -- full diagnostics pass (``python -m repro lint``, the
  submit path).  Returns an :class:`AnalysisReport`: severity-ranked
  :class:`Diagnostic` records plus the :class:`StaticFacts` summary.
* :func:`compute_static_facts` -- the facts alone, skipping the (slightly
  more expensive) hygiene checks: a handful of DNF conversions over the
  spec's guards.

The search does not consume the facts; they back the diagnostics.  Their
soundness contract (what keeps a diagnostic consistent with the search):

* a task appears in ``unsat_opening_tasks`` only when its opening guard is
  :func:`~repro.analysis.satisfiability.statically_unsatisfiable` -- the
  symbolic evaluator produces no moves for such a guard;
* a property gets a ``"satisfied"`` verdict only when every run trivially
  satisfies it: its formula is structurally ``true``, or it targets the
  root task and the global pre-condition is statically unsatisfiable
  (no initial instance, hence no runs, hence the ∀-property holds
  vacuously) -- both cases where the search also reports SATISFIED after
  exploring nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.diagnostics import (
    ERROR,
    WARNING,
    Diagnostic,
    sort_diagnostics,
)
from repro.analysis.dataflow import compute_dataflow_facts
from repro.analysis.satisfiability import statically_unsatisfiable
from repro.has.artifact_system import ArtifactSystem
from repro.has.conditions import Condition, Const, Eq, Neq, RelationAtom, TrueCond, Var
from repro.has.runs import TERMINATED_SERVICE
from repro.ltl.ltlfo import LTLFOProperty
from repro.ltl.syntax import LFalse, LTrue

#: The trivially-decided verdict value used in :attr:`StaticFacts.property_verdicts`.
SATISFIED = "satisfied"


@dataclass(frozen=True)
class StaticFacts:
    """What the analyzer could decide about the spec without searching."""

    #: Tasks reachable from the root through statically satisfiable opening
    #: guards (the root is always reachable).
    reachable_tasks: Tuple[str, ...] = ()
    #: Tasks whose *own* opening guard is statically unsatisfiable (such a
    #: task can never open; lint reports it).
    unsat_opening_tasks: Tuple[str, ...] = ()
    #: Whether the global pre-condition is statically unsatisfiable (the
    #: root task then has no initial instance).
    root_precondition_unsatisfiable: bool = False
    #: Variable -> constant bindings forced by the global pre-condition
    #: (holds in *every* initial instance), keyed by the root task's name.
    constant_bindings: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Property name -> trivially-decided verdict (currently only
    #: ``"satisfied"``; see the module docstring for the soundness rules).
    property_verdicts: Dict[str, str] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "reachable_tasks": list(self.reachable_tasks),
            "unsat_opening_tasks": list(self.unsat_opening_tasks),
            "root_precondition_unsatisfiable": self.root_precondition_unsatisfiable,
            "constant_bindings": {
                task: dict(bindings) for task, bindings in self.constant_bindings.items()
            },
            "property_verdicts": dict(self.property_verdicts),
        }


@dataclass
class AnalysisReport:
    """Severity-ranked diagnostics plus the static facts of one spec."""

    diagnostics: List[Diagnostic]
    facts: StaticFacts

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == WARNING]

    @property
    def has_errors(self) -> bool:
        return any(d.severity == ERROR for d in self.diagnostics)

    def as_dict(self) -> Dict[str, Any]:
        # "version" is the envelope contract of ``python -m repro lint
        # --json`` (and the 422 body): bumped only on breaking shape
        # changes, so consumers can parse defensively.
        return {
            "version": 1,
            "diagnostics": [d.as_dict() for d in self.diagnostics],
            "facts": self.facts.as_dict(),
            "summary": {
                "errors": len(self.errors),
                "warnings": len(self.warnings),
            },
        }


# ---------------------------------------------------------------------------
# Static facts
# ---------------------------------------------------------------------------


def _forced_constant_bindings(condition: Condition) -> Dict[str, Any]:
    """Variable -> constant bindings that hold in every model of *condition*.

    A binding is forced when **every** DNF disjunct contains the literal
    ``var = const`` with the same constant (a sound necessary-binding
    intersection; incomplete, which is fine for an informational fact).
    """
    disjuncts = condition.dnf()
    if not disjuncts:
        return {}
    forced: Optional[Dict[str, Any]] = None
    for disjunct in disjuncts:
        bindings: Dict[str, Any] = {}
        for literal in disjunct:
            if isinstance(literal, Eq):
                pairs = ((literal.left, literal.right), (literal.right, literal.left))
                for var, const in pairs:
                    if isinstance(var, Var) and isinstance(const, Const):
                        bindings.setdefault(var.name, const.value)
        if forced is None:
            forced = bindings
        else:
            forced = {
                name: value
                for name, value in forced.items()
                if name in bindings and bindings[name] == value
            }
        if not forced:
            return {}
    return forced or {}


def compute_static_facts(
    system: ArtifactSystem,
    properties: Sequence[LTLFOProperty] = (),
) -> StaticFacts:
    """The static facts alone, without the hygiene diagnostics."""
    unsat_openings = {
        task_name
        for task_name in system.task_names
        if task_name != system.root
        and statically_unsatisfiable(system.opening_service(task_name).pre)
    }
    root_unsat = statically_unsatisfiable(system.global_precondition)

    reachable: Set[str] = set()
    stack = [system.root]
    while stack:
        current = stack.pop()
        if current in reachable:
            continue
        reachable.add(current)
        for child in system.children_of(current):
            if child not in unsat_openings:
                stack.append(child)

    bindings = _forced_constant_bindings(system.global_precondition)
    constant_bindings = {system.root: bindings} if bindings else {}

    verdicts: Dict[str, str] = {}
    for ltl_property in properties:
        if ltl_property.formula.nnf() == LTrue():
            verdicts[ltl_property.name] = SATISFIED
        elif ltl_property.task == system.root and root_unsat:
            # No initial instance of the root: there are no runs at all, so
            # the universally quantified property holds vacuously -- exactly
            # what the search reports after exploring zero states.
            verdicts[ltl_property.name] = SATISFIED

    return StaticFacts(
        reachable_tasks=tuple(t for t in system.task_names if t in reachable),
        unsat_opening_tasks=tuple(sorted(unsat_openings)),
        root_precondition_unsatisfiable=root_unsat,
        constant_bindings=constant_bindings,
        property_verdicts=verdicts,
    )


# ---------------------------------------------------------------------------
# System diagnostics
# ---------------------------------------------------------------------------


def _constant_only(condition: Condition) -> bool:
    """Whether a post-condition only pins variables to constants: no
    relational atoms, and every (dis)equality compares against a constant."""
    atoms = condition.atoms()
    saw_binding = False
    for atom in atoms:
        if isinstance(atom, (TrueCond,)):
            continue
        if isinstance(atom, (Eq, Neq)):
            terms = (atom.left, atom.right)
            if all(isinstance(t, Var) for t in terms):
                return False
            if any(isinstance(t, Var) for t in terms):
                saw_binding = True
            continue
        return False  # relational atoms, FalseCond, ...
    return saw_binding


def _used_variables(system: ArtifactSystem, task_name: str) -> Set[str]:
    """Names of the task's variables referenced anywhere in the spec."""
    task = system.task(task_name)
    used: Set[str] = set(task.input_variables) | set(task.output_variables)
    for service in system.internal_services(task_name):
        used |= service.pre.variables() | service.post.variables()
        used |= set(service.propagated)
        if service.update is not None:
            used |= set(service.update.variables)
    used |= system.closing_service(task_name).pre.variables()
    if task_name == system.root:
        used |= system.global_precondition.variables()
    for child in system.children_of(task_name):
        # Child opening guards and input maps read *this* task's variables;
        # child closing output maps write into them.
        opening = system.opening_service(child)
        used |= opening.pre.variables()
        used |= set(opening.input_mapping().values())
        used |= set(system.closing_service(child).output_mapping().values())
    return used


def analyze_system(system: ArtifactSystem) -> Tuple[List[Diagnostic], StaticFacts]:
    """System-side diagnostics (dead guards, unreachable tasks, unused
    declarations) plus the static facts."""
    facts = compute_static_facts(system)
    diagnostics: List[Diagnostic] = []
    unsat_openings = set(facts.unsat_opening_tasks)
    reachable = set(facts.reachable_tasks)

    if facts.root_precondition_unsatisfiable:
        diagnostics.append(
            Diagnostic(
                "VA203",
                WARNING,
                "the global pre-condition is statically unsatisfiable: the root task "
                "has no initial instance and every property holds vacuously",
                where="global pre-condition",
            )
        )

    used_relations: Set[str] = set()

    def note_relations(condition: Condition) -> None:
        for atom in condition.atoms():
            if isinstance(atom, RelationAtom):
                used_relations.add(atom.relation)

    note_relations(system.global_precondition)

    for task_name in system.task_names:
        task = system.task(task_name)
        for service in system.internal_services(task_name):
            note_relations(service.pre)
            note_relations(service.post)
            where = f"task {task_name!r} / service {service.name!r}"
            if statically_unsatisfiable(service.pre):
                diagnostics.append(
                    Diagnostic(
                        "VA203",
                        WARNING,
                        f"pre-condition of service {service.name!r} is statically "
                        "unsatisfiable: the service can never fire",
                        where=f"{where} pre-condition",
                    )
                )
            elif _constant_only(service.post):
                diagnostics.append(
                    Diagnostic(
                        "VA503",
                        WARNING,
                        f"service {service.name!r} only assigns constants in its "
                        "post-condition (no variable-to-variable or database "
                        "constraints); possibly a stub",
                        where=where,
                    )
                )
        opening = system.opening_service(task_name)
        closing = system.closing_service(task_name)
        note_relations(opening.pre)
        note_relations(closing.pre)
        if task_name in unsat_openings:
            diagnostics.append(
                Diagnostic(
                    "VA203",
                    WARNING,
                    f"opening guard of task {task_name!r} is statically "
                    "unsatisfiable: the task can never be opened",
                    where=f"task {task_name!r} / opening guard",
                )
            )
        if task_name not in reachable:
            diagnostics.append(
                Diagnostic(
                    "VA301",
                    WARNING,
                    f"task {task_name!r} is statically unreachable from the root "
                    f"{system.root!r} (its opening guard, or an ancestor's, can "
                    "never hold)",
                    where=f"task {task_name!r}",
                )
            )
        if (
            task_name != system.root
            and task_name not in unsat_openings
            and statically_unsatisfiable(closing.pre)
        ):
            diagnostics.append(
                Diagnostic(
                    "VA203",
                    WARNING,
                    f"closing guard of task {task_name!r} is statically "
                    "unsatisfiable: once opened, the task can never close",
                    where=f"task {task_name!r} / closing guard",
                )
            )
        for unused in sorted(set(task.variable_names) - _used_variables(system, task_name)):
            diagnostics.append(
                Diagnostic(
                    "VA501",
                    WARNING,
                    f"variable {unused!r} of task {task_name!r} is never read by any "
                    "condition, propagation, update or input/output mapping",
                    where=f"task {task_name!r} / variable {unused!r}",
                )
            )

    # Dataflow-level facts: services dead only *under constant propagation*
    # (their guard is satisfiable in isolation, so VA203 stays silent, but no
    # reachable state of the task's search can ever enable them) and task
    # variables that are written but never read.  Computed without the
    # properties, like VA501: a property condition reading the variable does
    # not silence the system-level fact.
    dataflow = compute_dataflow_facts(system)
    for task_name in system.task_names:
        task_facts = dataflow.for_task(task_name)
        if task_facts is None:
            continue
        plainly_dead = {
            service.name
            for service in system.internal_services(task_name)
            if statically_unsatisfiable(service.pre)
        }
        for service_name in task_facts.dead_services:
            if service_name in plainly_dead:
                continue  # VA203 already reports it; don't double-fire
            diagnostics.append(
                Diagnostic(
                    "VA302",
                    WARNING,
                    f"service {service_name!r} can never fire: constant propagation "
                    f"over task {task_name!r} shows its pre- or post-condition is "
                    "unsatisfiable in every reachable state",
                    where=f"task {task_name!r} / service {service_name!r}",
                )
            )
        for child in task_facts.dead_child_openings:
            if child in unsat_openings:
                continue  # VA203 already reports the plain-unsat guard
            diagnostics.append(
                Diagnostic(
                    "VA302",
                    WARNING,
                    f"task {child!r} can never be opened: constant propagation over "
                    f"task {task_name!r} shows its opening guard is unsatisfiable "
                    "in every reachable state",
                    where=f"task {child!r} / opening guard",
                )
            )
        for variable in task_facts.written_never_read:
            diagnostics.append(
                Diagnostic(
                    "VA504",
                    WARNING,
                    f"variable {variable!r} of task {task_name!r} is written by a "
                    "post-condition, retrieval or child output mapping but never "
                    "read by any condition or mapping (dead store)",
                    where=f"task {task_name!r} / variable {variable!r}",
                )
            )

    # Relations referenced only through id-typed variables still count as used.
    for task in system.tasks:
        for var in task.variables:
            target = getattr(var.type, "relation", None)
            if target:
                used_relations.add(target)
        for artifact_relation in task.artifact_relations:
            for attr in artifact_relation.attributes:
                target = getattr(attr.type, "relation", None)
                if target:
                    used_relations.add(target)
    # A relation referenced by a used relation's foreign keys is reachable too.
    frontier = list(used_relations)
    while frontier:
        name = frontier.pop()
        if not system.schema.has_relation(name):
            continue
        for fk in system.schema.relation(name).foreign_keys:
            if fk.target and fk.target not in used_relations:
                used_relations.add(fk.target)
                frontier.append(fk.target)
    for relation in system.schema.relations:
        if relation.name not in used_relations:
            diagnostics.append(
                Diagnostic(
                    "VA502",
                    WARNING,
                    f"database relation {relation.name!r} is never referenced by any "
                    "condition, variable type or foreign key in use",
                    where=f"relation {relation.name!r}",
                )
            )

    return diagnostics, facts


# ---------------------------------------------------------------------------
# Property diagnostics
# ---------------------------------------------------------------------------


def _check_property_condition(
    system: ArtifactSystem,
    ltl_property: LTLFOProperty,
    proposition: str,
    condition: Condition,
    allowed_variables: Set[str],
) -> List[Diagnostic]:
    where = f"property {ltl_property.name!r} / condition {proposition!r}"
    diagnostics: List[Diagnostic] = []
    for unknown in sorted(condition.variables() - allowed_variables):
        diagnostics.append(
            Diagnostic(
                "VA101",
                ERROR,
                f"condition {proposition!r} mentions {unknown!r}, which is neither a "
                f"variable of task {ltl_property.task!r} nor a declared global "
                "variable of the property",
                where=where,
            )
        )
    for atom in condition.atoms():
        if not isinstance(atom, RelationAtom):
            continue
        if not system.schema.has_relation(atom.relation):
            diagnostics.append(
                Diagnostic(
                    "VA103",
                    ERROR,
                    f"condition {proposition!r} uses unknown database relation "
                    f"{atom.relation!r}",
                    where=where,
                )
            )
            continue
        expected = system.schema.relation(atom.relation).arity
        if len(atom.args) != expected:
            diagnostics.append(
                Diagnostic(
                    "VA104",
                    ERROR,
                    f"atom {atom} has {len(atom.args)} arguments but relation "
                    f"{atom.relation!r} has arity {expected}",
                    where=where,
                )
            )
    return diagnostics


def analyze_property(
    system: ArtifactSystem, ltl_property: LTLFOProperty
) -> List[Diagnostic]:
    """Property-side diagnostics against the system it will be verified on."""
    diagnostics: List[Diagnostic] = []
    name = ltl_property.name
    if not system.has_task(ltl_property.task):
        diagnostics.append(
            Diagnostic(
                "VA102",
                ERROR,
                f"property {name!r} targets unknown task {ltl_property.task!r} "
                f"(known tasks: {', '.join(system.task_names)})",
                where=f"property {name!r}",
            )
        )
        return diagnostics

    task = system.task(ltl_property.task)
    allowed = set(task.variable_names) | set(ltl_property.global_variable_names)
    for proposition, condition in sorted(ltl_property.conditions.items()):
        diagnostics.extend(
            _check_property_condition(system, ltl_property, proposition, condition, allowed)
        )

    observable = set(system.observable_service_names(ltl_property.task))
    observable.add(TERMINATED_SERVICE)
    for proposition in sorted(ltl_property.service_propositions - observable):
        diagnostics.append(
            Diagnostic(
                "VA105",
                ERROR,
                f"proposition {proposition!r} is neither an interpreted condition nor "
                f"an observable service of task {ltl_property.task!r}",
                where=f"property {name!r}",
            )
        )

    used_variables: Set[str] = set()
    for condition in ltl_property.conditions.values():
        used_variables |= condition.variables()
    for unused in sorted(set(ltl_property.global_variable_names) - used_variables):
        diagnostics.append(
            Diagnostic(
                "VA401",
                WARNING,
                f"global variable {unused!r} is universally quantified but never "
                "occurs in any condition of the property (vacuous quantifier; "
                "possibly a typo)",
                where=f"property {name!r}",
            )
        )

    formula_propositions = ltl_property.formula.propositions()
    for unused in sorted(set(ltl_property.conditions) - formula_propositions):
        diagnostics.append(
            Diagnostic(
                "VA403",
                WARNING,
                f"condition {unused!r} is interpreted but its proposition never "
                "occurs in the LTL formula",
                where=f"property {name!r}",
            )
        )

    nnf = ltl_property.formula.nnf()
    if nnf == LTrue() or nnf == LFalse():
        constant = "true" if nnf == LTrue() else "false"
        diagnostics.append(
            Diagnostic(
                "VA402",
                WARNING,
                f"the LTL formula of property {name!r} is constant {constant}; the "
                "verdict does not depend on the system",
                where=f"property {name!r}",
            )
        )
    return diagnostics


# ---------------------------------------------------------------------------
# Full analysis
# ---------------------------------------------------------------------------


def analyze(
    system: ArtifactSystem,
    properties: Sequence[LTLFOProperty] = (),
) -> AnalysisReport:
    """Run every check over a system and its properties."""
    diagnostics, _ = analyze_system(system)
    for ltl_property in properties:
        diagnostics.extend(analyze_property(system, ltl_property))
    facts = compute_static_facts(system, properties)
    return AnalysisReport(diagnostics=sort_diagnostics(diagnostics), facts=facts)
