"""Symbolic transitions over partial symbolic instances (Section 3.2, Appendix A).

The :class:`SymbolicTransitionSystem` generates, for the single task under
verification, the successors of a partial symbolic instance under

* the task's internal services (pre-condition extension, projection onto the
  propagated variables, post-condition extension, and insertion into /
  retrieval from the task's artifact relations),
* the opening services of the task's children (guarded by a condition on the
  task's variables),
* the closing services of the task's children (the returned variables are
  overwritten, so their accumulated constraints are projected away; the new
  values are left unconstrained and later condition evaluations extend them
  lazily, which covers every possible child behaviour),
* the task's own closing service, after which only the reserved
  ``__terminated__`` stutter step is applicable (this is how finite local runs
  are folded into the repeated-reachability machinery), and
* the global variables of the LTL-FO property, which behave like extra rigid
  variables: they survive every projection and are never overwritten.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.expressions import ExpressionUniverse
from repro.core.flatten import flatten_condition
from repro.core.isotypes import Constraint, PartialIsoType, empty_type
from repro.core.options import VerifierOptions
from repro.core.psi import PSI, counter_add
from repro.core.static_analysis import ConstraintFilter, conjunction_contradicts_bindings
from repro.has.artifact_system import ArtifactSystem
from repro.has.conditions import Condition, TrueCond
from repro.has.services import Insert, InternalService, Retrieve
from repro.has.runs import TERMINATED_SERVICE
from repro.ltl.ltlfo import LTLFOProperty
from repro.vass.vass import OMEGA

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (analysis is a sibling layer)
    from repro.analysis.analyzer import StaticFacts
    from repro.analysis.dataflow import DataflowFacts

#: Pseudo-child key marking that the verified task has executed its closing service.
CLOSED_MARKER = "__closed__"


@dataclass(frozen=True)
class SymbolicMove:
    """One symbolic transition: the observable service applied and the resulting PSI."""

    service: str
    psi: PSI


class SymbolicTransitionSystem:
    """Successor generation for local runs of one task of a HAS* specification."""

    def __init__(
        self,
        system: ArtifactSystem,
        task_name: str,
        ltl_property: Optional[LTLFOProperty] = None,
        options: Optional[VerifierOptions] = None,
        static_facts: Optional["StaticFacts"] = None,
        dataflow_facts: Optional["DataflowFacts"] = None,
    ):
        self.system = system
        self.task_name = task_name
        self.task = system.task(task_name)
        self.options = options or VerifierOptions()
        self.ltl_property = ltl_property

        # Pre-search pruning (repro.analysis): children whose opening guard is
        # statically unsatisfiable produce no symbolic moves anyway, so their
        # opening loop is skipped entirely.  Sound by construction -- the
        # unsat check under-approximates exactly the equality reasoning of
        # the iso-type machinery -- hence verdict-preserving.
        self._statically_closed_children: FrozenSet[str] = frozenset()
        if self.options.static_pruning:
            if static_facts is not None:
                unsat = set(static_facts.unsat_opening_tasks)
            else:
                from repro.analysis.satisfiability import statically_unsatisfiable

                unsat = {
                    child
                    for child in system.children_of(task_name)
                    if statically_unsatisfiable(system.opening_service(child).pre)
                }
            self._statically_closed_children = frozenset(
                child for child in system.children_of(task_name) if child in unsat
            )

        # In-search dataflow pruning (repro.analysis.dataflow): the task's
        # constant environment holds in every reachable iso-type of this
        # search, so (a) services whose guard or effect is unsatisfiable
        # under it produce zero symbolic moves and are skipped outright, and
        # (b) flattened conjunctions contradicting it fail every ``extend``
        # and are dropped at flatten time.  Post-conditions are exempt from
        # (b): they are evaluated mid-transition on *projected* types, where
        # only the propagated subset of the environment survives.
        self._dataflow_env: Optional[Dict[str, object]] = None
        self._dataflow_dead_services: FrozenSet[str] = frozenset()
        self._dataflow_closed_children: FrozenSet[str] = frozenset()
        self._dataflow_post_ids: FrozenSet[int] = frozenset()
        self.dataflow_services_skipped = 0
        self.dataflow_conjunctions_dropped = 0
        if self.options.dataflow_pruning:
            if dataflow_facts is None:
                from repro.analysis.dataflow import compute_dataflow_facts

                dataflow_facts = compute_dataflow_facts(system)
            task_facts = dataflow_facts.for_task(task_name)
            if task_facts is not None:
                self._dataflow_env = dict(task_facts.constant_env) or None
                self._dataflow_dead_services = frozenset(task_facts.dead_services)
                self._dataflow_closed_children = frozenset(
                    task_facts.dead_child_openings
                )
                self._dataflow_post_ids = frozenset(
                    id(service.post)
                    for service in system.internal_services(task_name)
                )

        # The expression universe of the task: its variables plus the global
        # variables of the property (rigid, propagated by every transition).
        roots = {var.name: var.type for var in self.task.variables}
        self._global_roots: Tuple[str, ...] = ()
        if ltl_property is not None:
            for global_var in ltl_property.global_variables:
                if global_var.name in roots:
                    raise ValueError(
                        f"global variable {global_var.name!r} clashes with a task variable"
                    )
                roots[global_var.name] = global_var.type
            self._global_roots = ltl_property.global_variable_names
        self.universe = ExpressionUniverse(system.schema, roots)

        # One expression universe per artifact relation (attributes as roots).
        self._relation_universes: Dict[str, ExpressionUniverse] = {}
        for relation in self.task.artifact_relations:
            relation_roots = {attr.name: attr.type for attr in relation.attributes}
            self._relation_universes[relation.name] = ExpressionUniverse(
                system.schema, relation_roots
            )

        # Register every constant appearing in the specification or property so
        # that constant expressions are shared.
        for condition in self._all_conditions():
            for constant in condition.constants():
                self.universe.add_constant(constant.value)

        # Pre-flatten every condition the search will evaluate.
        self._flattened: Dict[int, List[List[Constraint]]] = {}
        # Memos for the lifetime of this system (one verify): ``evaluate`` and
        # ``successors`` are pure functions of their arguments, so a hit
        # returns the very list the first call built, in the same order.
        # Callers must not mutate the returned lists.  ``evaluate`` is keyed
        # like ``flatten`` (by condition identity), so every condition it sees
        # must stay alive as long as the system -- hence the held ``true``.
        self._evaluated: Dict[Tuple[int, PartialIsoType], List[PartialIsoType]] = {}
        self._successors: Dict[PSI, List[SymbolicMove]] = {}
        self._true = TrueCond()

        # Static analysis: collect every constraint any transition could add.
        all_conjunctions: List[Sequence[Constraint]] = []
        for condition in self._all_conditions():
            for negated in (False, True):
                source = condition.nnf(negate=negated)
                try:
                    conjunctions = flatten_condition(source, self.universe, system.schema)
                except Exception:
                    continue
                all_conjunctions.extend(conjunctions)
        self.constraint_filter = ConstraintFilter.from_conditions(
            self.universe, all_conjunctions, enabled=self.options.static_analysis
        )

    # ------------------------------------------------------------------ helpers

    def _all_conditions(self) -> List[Condition]:
        """Every condition the verifier may evaluate for this task."""
        conditions: List[Condition] = [self.system.global_precondition]
        for service in self.system.internal_services(self.task_name):
            conditions.append(service.pre)
            conditions.append(service.post)
        conditions.append(self.system.closing_service(self.task_name).pre)
        for child in self.system.children_of(self.task_name):
            conditions.append(self.system.opening_service(child).pre)
        if self.ltl_property is not None:
            conditions.extend(self.ltl_property.conditions.values())
        return conditions

    def flatten(self, condition: Condition) -> List[List[Constraint]]:
        """Cached ``conj(φ)`` of a condition over the task universe.

        With dataflow pruning on, conjunctions contradicting the task's
        constant environment are dropped (order of the survivors is
        preserved): the environment holds in every reachable iso-type, so
        such a conjunction fails every ``extend`` anyway.  Post-conditions
        are exempt -- they are evaluated on projected types where only the
        propagated bindings survive.
        """
        key = id(condition)
        if key not in self._flattened:
            conjunctions = flatten_condition(condition, self.universe, self.system.schema)
            if self._dataflow_env is not None and key not in self._dataflow_post_ids:
                kept = [
                    conjunction
                    for conjunction in conjunctions
                    if not conjunction_contradicts_bindings(
                        conjunction, self._dataflow_env, self.universe
                    )
                ]
                self.dataflow_conjunctions_dropped += len(conjunctions) - len(kept)
                conjunctions = kept
            self._flattened[key] = conjunctions
        return self._flattened[key]

    def extend(self, tau: PartialIsoType, constraints: Sequence[Constraint]) -> Optional[PartialIsoType]:
        """Extend a type with constraints, after static-analysis filtering."""
        filtered = self.constraint_filter.filter_constraints(constraints)
        return tau.extend(filtered)

    def evaluate(self, tau: PartialIsoType, condition: Condition) -> List[PartialIsoType]:
        """``eval(τ, φ)`` with static-analysis filtering and de-duplication (memoised)."""
        memo_key = (id(condition), tau)
        cached = self._evaluated.get(memo_key)
        if cached is not None:
            return cached
        results: List[PartialIsoType] = []
        seen = set()
        for conjunction in self.flatten(condition):
            extended = self.extend(tau, conjunction)
            if extended is None:
                continue
            key = extended.canonical_key()
            if key not in seen:
                seen.add(key)
                results.append(extended)
        self._evaluated[memo_key] = results
        return results

    @property
    def observable_services(self) -> Tuple[str, ...]:
        """All service names observable in local runs, plus the stutter step."""
        return self.system.observable_service_names(self.task_name) + (TERMINATED_SERVICE,)

    def _kept_roots(self, propagated: Iterable[str]) -> Set[str]:
        return set(propagated) | set(self._global_roots)

    def _initial_children(self) -> Dict[str, bool]:
        children = {child: False for child in self.system.children_of(self.task_name)}
        children[CLOSED_MARKER] = False
        return children

    # ------------------------------------------------------------------ initial states

    def initial_moves(self) -> List[SymbolicMove]:
        """The PSIs produced by the opening service of the verified task.

        For the root task the opening evaluates the global pre-condition Π on
        the all-null artifact tuple; for a non-root task the input variables
        come from the parent and are left unconstrained (every possible call
        is covered lazily).
        """
        opening = self.system.opening_service(self.task_name)
        base = empty_type(self.universe)
        null = self.universe.add_constant(None)
        constraints: List[Constraint] = []
        if self.task_name != self.system.root:
            # Definition 26: the opening of a non-root task initialises every
            # non-input variable to null; the inputs come from the parent and
            # are left unconstrained (all possible calls are covered lazily).
            for var in self.task.variables:
                if var.name not in self.task.input_variables:
                    constraints.append((self.universe.variable(var.name), null, "="))
        start = base.extend(constraints)
        assert start is not None

        moves: List[SymbolicMove] = []
        # Definition 14: the initial artifact tuple of the root task is any
        # valuation satisfying the global pre-condition Π (the all-null
        # initialisation of the examples comes from Π itself).
        guard = (
            self.system.global_precondition
            if self.task_name == self.system.root
            else self._true
        )
        for tau in self.evaluate(start, guard):
            psi = PSI.make(tau, {}, self._initial_children())
            moves.append(SymbolicMove(opening.name, psi))
        return moves

    # ------------------------------------------------------------------ successors

    def successors(self, psi: PSI) -> List[SymbolicMove]:
        """All symbolic successors of a PSI, labelled by the applied service.

        Memoised per PSI; the dataflow skip counters therefore count each
        distinct expanded PSI once.
        """
        cached = self._successors.get(psi)
        if cached is not None:
            return cached
        if psi.child_active(CLOSED_MARKER):
            # The task has returned: only the terminal stutter step applies.
            moves = [SymbolicMove(TERMINATED_SERVICE, psi)]
        else:
            moves = []
            moves.extend(self._internal_moves(psi))
            moves.extend(self._child_opening_moves(psi))
            moves.extend(self._child_closing_moves(psi))
            moves.extend(self._own_closing_moves(psi))
        self._successors[psi] = moves
        return moves

    def _any_real_child_active(self, psi: PSI) -> bool:
        return any(active for child, active in psi.children if child != CLOSED_MARKER)

    # -- internal services ----------------------------------------------------------

    def _internal_moves(self, psi: PSI) -> List[SymbolicMove]:
        if self._any_real_child_active(psi):
            return []
        moves: List[SymbolicMove] = []
        for service in self.system.internal_services(self.task_name):
            if service.name in self._dataflow_dead_services:
                # Dead under constant propagation: the pre (or, after
                # projection, the post) fails on every reachable iso-type,
                # so the evaluation below would produce zero moves.
                self.dataflow_services_skipped += 1
                continue
            moves.extend(self._apply_internal(psi, service))
        return moves

    def _apply_internal(self, psi: PSI, service: InternalService) -> List[SymbolicMove]:
        update = service.update if self.options.use_artifact_relations else None
        kept = self._kept_roots(service.propagated)
        moves: List[SymbolicMove] = []
        for pre_extended in self.evaluate(psi.tau, service.pre):
            projected = pre_extended.project(kept)
            for post_extended in self.evaluate(projected, service.post):
                if update is None:
                    moves.append(SymbolicMove(service.name, psi.with_tau(post_extended)))
                elif isinstance(update, Insert):
                    moves.extend(
                        self._insert_moves(psi, service, pre_extended, post_extended, update)
                    )
                else:
                    moves.extend(
                        self._retrieve_moves(psi, service, post_extended, update)
                    )
        return moves

    def _insert_moves(
        self,
        psi: PSI,
        service: InternalService,
        pre_extended: PartialIsoType,
        post_extended: PartialIsoType,
        update: Insert,
    ) -> List[SymbolicMove]:
        relation = self.task.artifact_relation(update.relation)
        target_universe = self._relation_universes[update.relation]
        renaming = {
            variable: attribute.name
            for variable, attribute in zip(update.variables, relation.attributes)
        }
        stored_type = pre_extended.project(set(update.variables)).rename_roots(
            renaming, target_universe
        )
        if stored_type is None:  # pragma: no cover - defensive; renaming preserves consistency
            return []
        counters = psi.counter_map()
        key = (update.relation, stored_type)
        counters[key] = counter_add(counters.get(key, 0), 1)
        return [SymbolicMove(service.name, PSI.make(post_extended, counters, psi.child_map()))]

    def _retrieve_moves(
        self,
        psi: PSI,
        service: InternalService,
        post_extended: PartialIsoType,
        update: Retrieve,
    ) -> List[SymbolicMove]:
        relation = self.task.artifact_relation(update.relation)
        renaming = {
            attribute.name: variable
            for variable, attribute in zip(update.variables, relation.attributes)
        }
        moves: List[SymbolicMove] = []
        for (relation_name, stored_type), count in psi.counters:
            if relation_name != update.relation:
                continue
            retrieved = stored_type.rename_roots(renaming, self.universe)
            if retrieved is None:  # pragma: no cover - defensive
                continue
            merged = self.extend(post_extended, retrieved.constraints())
            if merged is None:
                continue
            successor = psi.with_tau(merged).with_counter_delta((relation_name, stored_type), -1)
            if successor is None:
                continue
            moves.append(SymbolicMove(service.name, successor))
        return moves

    # -- child opening / closing ---------------------------------------------------------

    def _child_opening_moves(self, psi: PSI) -> List[SymbolicMove]:
        moves: List[SymbolicMove] = []
        for child in self.system.children_of(self.task_name):
            if child in self._statically_closed_children:
                continue
            if child in self._dataflow_closed_children:
                # The opening guard is unsatisfiable under the constant
                # environment: zero symbolic moves on every reachable type.
                self.dataflow_services_skipped += 1
                continue
            if psi.child_active(child):
                continue
            opening = self.system.opening_service(child)
            for extended in self.evaluate(psi.tau, opening.pre):
                moves.append(SymbolicMove(opening.name, psi.with_tau(extended).with_child(child, True)))
        return moves

    def _child_closing_moves(self, psi: PSI) -> List[SymbolicMove]:
        moves: List[SymbolicMove] = []
        task_vars = set(self.task.variable_names)
        for child in self.system.children_of(self.task_name):
            if not psi.child_active(child):
                continue
            closing = self.system.closing_service(child)
            returned = set(closing.output_mapping().values())
            kept = self._kept_roots(task_vars - returned)
            # The returned variables are overwritten by the child's outputs:
            # drop their accumulated constraints; later condition evaluations
            # re-constrain them lazily, covering every child behaviour.
            projected = psi.tau.project(kept)
            moves.append(SymbolicMove(closing.name, psi.with_tau(projected).with_child(child, False)))
        return moves

    def _own_closing_moves(self, psi: PSI) -> List[SymbolicMove]:
        if self._any_real_child_active(psi):
            return []
        closing = self.system.closing_service(self.task_name)
        moves: List[SymbolicMove] = []
        for extended in self.evaluate(psi.tau, closing.pre):
            moves.append(
                SymbolicMove(closing.name, psi.with_tau(extended).with_child(CLOSED_MARKER, True))
            )
        return moves
