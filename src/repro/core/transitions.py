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
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.core.expressions import ExpressionUniverse
from repro.core.flatten import flatten_condition
from repro.core.isotypes import Constraint, IdConstraint, PartialIsoType, empty_type
from repro.core.psi import OMEGA, PSI, counter_add
from repro.core.static_analysis import ConstraintFilter
from repro.has.artifact_system import ArtifactSystem
from repro.has.conditions import Condition, TrueCond
from repro.has.services import TERMINATED_SERVICE, Insert, InternalService, Retrieve
from repro.ltl.ltlfo import LTLFOProperty

#: Pseudo-child key marking that the verified task has executed its closing service.
CLOSED_MARKER = "__closed__"
#: Marks a memo entry not computed yet (``None`` is a memoised result).
_UNSET = object()


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
        *,
        static_analysis: bool = True,
        use_artifact_relations: bool = True,
    ):
        self.system = system
        self.task_name = task_name
        self.task = system.task(task_name)
        self.ltl_property = ltl_property
        self.use_artifact_relations = use_artifact_relations

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

        # Register every constant of the specification and the property up
        # front, in a fixed order and in every universe, so that expression
        # ids depend on the spec and the property only.
        constants = sorted(
            (
                constant.value
                for condition in self._all_conditions()
                for constant in condition.constants()
            ),
            key=lambda value: (type(value).__name__, repr(value)),
        )
        for universe in (self.universe, *self._relation_universes.values()):
            for value in constants:
                universe.add_constant(value)

        # Flattened, filtered and interned conjunctions per condition.
        self._conjunctions: Dict[int, List[List[IdConstraint]]] = {}
        # Memos for the lifetime of this system (one verify): ``evaluate``,
        # ``project`` and ``successors`` are pure functions of their
        # arguments, so a hit returns the very object the first call built.
        # Callers must not mutate the returned lists.  ``evaluate`` is keyed
        # like ``conjunctions`` (by condition identity), so every condition it
        # sees must stay alive as long as the system -- hence the held ``true``.
        self._evaluated: Dict[Tuple[int, PartialIsoType], List[PartialIsoType]] = {}
        self._projected: Dict[Tuple[PartialIsoType, FrozenSet[str]], PartialIsoType] = {}
        self._successors: Dict[PSI, List[SymbolicMove]] = {}
        self._true = TrueCond()
        # Stored-tuple renamings, keyed by service: a service fixes the
        # renaming and its target universe, so ``rename_roots`` is then a
        # function of the type alone.  An insert maps the projected type to
        # the stored type; a retrieval maps a stored type to the filtered id
        # constraints it adds.  ``None`` (inconsistent) is memoised too.
        self._stored: Dict[Tuple[str, PartialIsoType], Optional[PartialIsoType]] = {}
        self._retrieved: Dict[Tuple[str, PartialIsoType], Optional[List[IdConstraint]]] = {}

        # The roots each projection keeps, fixed per service: an internal
        # service keeps its propagated variables and a child's closing
        # service every task variable it does not overwrite, both with the
        # global variables; a stored tuple keeps the inserted variables only.
        task_vars = set(self.task.variable_names)
        self._kept_by_service: Dict[str, FrozenSet[str]] = {
            service.name: self._kept_roots(service.propagated)
            for service in self.system.internal_services(task_name)
        }
        self._kept_by_child: Dict[str, FrozenSet[str]] = {
            child: self._kept_roots(
                task_vars - set(self.system.closing_service(child).output_mapping().values())
            )
            for child in self.system.children_of(task_name)
        }
        self._inserted_roots: Dict[str, FrozenSet[str]] = {
            service.name: frozenset(service.update.variables)
            for service in self.system.internal_services(task_name)
            if isinstance(service.update, Insert)
        }

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
            self.universe, all_conjunctions, enabled=static_analysis
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

    def conjunctions(self, condition: Condition) -> List[List[IdConstraint]]:
        """Cached ``conj(φ)`` of a condition, filtered and interned."""
        key = id(condition)
        cached = self._conjunctions.get(key)
        if cached is None:
            ids, keep = self.universe.ids, self.constraint_filter.filter_ids
            cached = self._conjunctions[key] = [
                keep([(ids[left], ids[right], op) for left, right, op in conjunction])
                for conjunction in flatten_condition(condition, self.universe, self.system.schema)
            ]
        return cached

    def evaluate(self, tau: PartialIsoType, condition: Condition) -> List[PartialIsoType]:
        """``eval(τ, φ)`` with static-analysis filtering and de-duplication (memoised)."""
        memo_key = (id(condition), tau)
        cached = self._evaluated.get(memo_key)
        if cached is not None:
            return cached
        results: List[PartialIsoType] = []
        seen = set()
        for conjunction in self.conjunctions(condition):
            extended = tau.extend_ids(conjunction)
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

    def _kept_roots(self, propagated: Iterable[str]) -> FrozenSet[str]:
        return frozenset(propagated) | frozenset(self._global_roots)

    def project(self, tau: PartialIsoType, kept: FrozenSet[str]) -> PartialIsoType:
        """``tau.project(kept)`` (memoised; *kept* is one of the fixed root sets)."""
        memo_key = (tau, kept)
        projected = self._projected.get(memo_key)
        if projected is None:
            projected = self._projected[memo_key] = tau.project(kept)
        return projected

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
        """All symbolic successors of a PSI, labelled by the applied service (memoised)."""
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
            moves.extend(self._apply_internal(psi, service))
        return moves

    def _apply_internal(self, psi: PSI, service: InternalService) -> List[SymbolicMove]:
        update = service.update if self.use_artifact_relations else None
        kept = self._kept_by_service[service.name]
        moves: List[SymbolicMove] = []
        for pre_extended in self.evaluate(psi.tau, service.pre):
            projected = self.project(pre_extended, kept)
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
        projected = self.project(pre_extended, self._inserted_roots[service.name])
        stored_type = self._stored_type(service, update, projected)
        if stored_type is None:  # pragma: no cover - defensive; renaming preserves consistency
            return []
        counters = psi.counter_map()
        key = (update.relation, stored_type)
        counters[key] = counter_add(counters.get(key, 0), 1)
        return [SymbolicMove(service.name, PSI.make(post_extended, counters, psi.child_map()))]

    def _stored_type(
        self, service: InternalService, update: Insert, projected: PartialIsoType
    ) -> Optional[PartialIsoType]:
        """The stored-tuple type inserting *projected* creates (memoised per service)."""
        memo_key = (service.name, projected)
        stored_type = self._stored.get(memo_key, _UNSET)
        if stored_type is _UNSET:
            relation = self.task.artifact_relation(update.relation)
            renaming = {
                variable: attribute.name
                for variable, attribute in zip(update.variables, relation.attributes)
            }
            stored_type = self._stored[memo_key] = projected.rename_roots(
                renaming, self._relation_universes[update.relation]
            )
        return stored_type

    def _retrieve_moves(
        self,
        psi: PSI,
        service: InternalService,
        post_extended: PartialIsoType,
        update: Retrieve,
    ) -> List[SymbolicMove]:
        moves: List[SymbolicMove] = []
        for (relation_name, stored_type), count in psi.counters:
            if relation_name != update.relation:
                continue
            constraints = self._retrieved_constraints(service, update, stored_type)
            if constraints is None:  # pragma: no cover - defensive
                continue
            merged = post_extended.extend_ids(constraints)
            if merged is None:
                continue
            successor = psi.with_tau(merged).with_counter_delta((relation_name, stored_type), -1)
            if successor is None:
                continue
            moves.append(SymbolicMove(service.name, successor))
        return moves

    def _retrieved_constraints(
        self, service: InternalService, update: Retrieve, stored_type: PartialIsoType
    ) -> Optional[List[IdConstraint]]:
        """The filtered id constraints retrieving *stored_type* adds (memoised per service)."""
        memo_key = (service.name, stored_type)
        constraints = self._retrieved.get(memo_key, _UNSET)
        if constraints is _UNSET:
            relation = self.task.artifact_relation(update.relation)
            renaming = {
                attribute.name: variable
                for variable, attribute in zip(update.variables, relation.attributes)
            }
            retrieved = stored_type.rename_roots(renaming, self.universe)
            constraints = self._retrieved[memo_key] = (
                None
                if retrieved is None
                else self.constraint_filter.filter_ids(retrieved.id_constraints())
            )
        return constraints

    # -- child opening / closing ---------------------------------------------------------

    def _child_opening_moves(self, psi: PSI) -> List[SymbolicMove]:
        moves: List[SymbolicMove] = []
        for child in self.system.children_of(self.task_name):
            if psi.child_active(child):
                continue
            opening = self.system.opening_service(child)
            for extended in self.evaluate(psi.tau, opening.pre):
                moves.append(SymbolicMove(opening.name, psi.with_tau(extended).with_child(child, True)))
        return moves

    def _child_closing_moves(self, psi: PSI) -> List[SymbolicMove]:
        moves: List[SymbolicMove] = []
        for child in self.system.children_of(self.task_name):
            if not psi.child_active(child):
                continue
            closing = self.system.closing_service(child)
            # The returned variables are overwritten by the child's outputs:
            # drop their accumulated constraints; later condition evaluations
            # re-constrain them lazily, covering every child behaviour.
            projected = self.project(psi.tau, self._kept_by_child[child])
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
