"""The Karp–Miller search over product states (Sections 3.3–3.6).

The search materialises the reachable product state space lazily, pruning
states covered by already-visited ones and accelerating counters to ω when a
strictly dominated ancestor is found.  It keeps the *active* set of monotone
pruning (Section 3.4, Reynier–Servais): a new state covered by an active
state is pruned, and active states (plus their descendants) covered by a new
state are deactivated.  The coverage relation is a parameter:

* the ⪯ relation of Section 3.5 (the default), tested via bipartite
  max-flow, which prunes more than ``≤``;
* the classic ``≤`` coverage, used by the repeated-reachability re-search
  (Section 3.8) and by the paper's state-pruning ablation.

Candidate look-ups over the active set use the bitset index of Section 3.6
(:mod:`repro.core.indexes`) unless the caller turns the index off, in which
case every active state is a candidate (linear scan).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Set, Tuple

from repro.core.control import STOP_CANCELLED, STOP_DEADLINE, SearchControl
# Both relations stay module attributes: perfbench's layer tracer wraps
# each one here to count coverage checks.
from repro.core.coverage import covers_leq, covers_preceq  # noqa: F401
from repro.core.indexes import ActiveStateIndex
from repro.core.isotypes import PartialIsoType
from repro.core.product import ProductMove, ProductState, ProductSystem
from repro.core.psi import PSI, CounterKey
from repro.core.stats import SearchStatistics
from repro.vass.vass import OMEGA


@dataclass
class SearchNode:
    """A node of the Karp–Miller tree."""

    node_id: int
    state: ProductState
    parent: Optional[int]
    service: Optional[str]
    active: bool = True
    children: List[int] = field(default_factory=list)


@dataclass
class KarpMillerResult:
    """Outcome of the coverability search."""

    nodes: List[SearchNode]
    active_ids: Set[int]
    stats: SearchStatistics
    completed: bool

    def node(self, node_id: int) -> SearchNode:
        return self.nodes[node_id]

    def active_nodes(self) -> List[SearchNode]:
        return [self.nodes[node_id] for node_id in sorted(self.active_ids)]

    def path_to(self, node_id: int) -> List[SearchNode]:
        """The tree path from the root to *node_id* (inclusive)."""
        path: List[SearchNode] = []
        current: Optional[int] = node_id
        while current is not None:
            node = self.nodes[current]
            path.append(node)
            current = node.parent
        path.reverse()
        return path


class StateMasks:
    """Index masks of product states, composed from per-component masks.

    A state's edge set ``E(I)`` (Section 3.6) is the union of three parts:

    * the edges of its isomorphism type;
    * for each stored-tuple counter key ``(relation, stored type)``, the stored
      type's edges tagged with the relation, plus a ``has-counter`` marker
      for the key;
    * the Büchi state and the child stages, as mandatory pseudo-edges, so
      that only states with identical control components are candidates.

    Each part's mask is computed once per search, keyed by its component, and
    a state's mask is the OR of its parts.  All parts number their bits in
    one index, so the OR is exactly the mask of ``E(I)``.
    """

    def __init__(self, index: ActiveStateIndex) -> None:
        self._index = index
        self._types: Dict[PartialIsoType, int] = {}
        self._counters: Dict[CounterKey, int] = {}
        self._controls: Dict[Tuple[int, Tuple[Tuple[str, bool], ...]], int] = {}

    def mask_of(self, state: ProductState) -> int:
        psi = state.psi
        tau = psi.tau
        mask = self._types.get(tau)
        if mask is None:
            mask = self._types[tau] = self._index.mask(tau.edge_set())
        counters = self._counters
        for key, _count in psi.counters:
            part = counters.get(key)
            if part is None:
                relation, stored_type = key
                edges: List[Hashable] = [(relation, edge) for edge in stored_type.edge_set()]
                edges.append(("has-counter", relation, stored_type.canonical_key()))
                part = counters[key] = self._index.mask(edges)
            mask |= part
        control = (state.buchi_state, psi.children)
        part = self._controls.get(control)
        if part is None:
            edges = [("buchi", state.buchi_state)]
            edges.extend(("child", child, active) for child, active in psi.children)
            part = self._controls[control] = self._index.mask(edges)
        return mask | part


class KarpMillerSearch:
    """Coverability search over the product system: *covers* is the coverage
    relation (``None``: ⪯), and *control* carries the cancellation token, the
    verify's deadline and the progress-event sink."""

    def __init__(
        self,
        product: ProductSystem,
        max_states: int,
        *,
        covers: Optional[Callable[[PSI, PSI], bool]] = None,
        use_index: bool = True,
        control: Optional[SearchControl] = None,
    ):
        self.product = product
        self.max_states = max_states
        self.use_index = use_index
        self.stats = SearchStatistics()
        self.control = control if control is not None else SearchControl()
        self._covers = covers_preceq if covers is None else covers

    # -- coverage helpers ----------------------------------------------------------

    def _state_covers(self, covered: ProductState, covering: ProductState) -> bool:
        if covered.buchi_state != covering.buchi_state:
            return False
        return self._covers(covered.psi, covering.psi)

    # -- acceleration -----------------------------------------------------------------

    def _accelerate(self, state: ProductState, ancestors: Iterable[SearchNode]) -> ProductState:
        """Replace counters by ω when a dominated ancestor witnesses a pumpable loop."""
        counters = state.psi.counter_map()
        if not counters:
            return state
        relevant = [
            node
            for node in ancestors
            if node.state.buchi_state == state.buchi_state
            and node.state.psi.children == state.psi.children
        ]
        if not relevant:
            return state
        changed = False
        for key, value in list(counters.items()):
            if value is OMEGA:
                continue
            reduced = state.psi.with_counter_delta(key, -1)
            if reduced is None:
                continue
            reduced_state = ProductState(reduced, state.buchi_state)
            for node in relevant:
                if self._state_covers(node.state, reduced_state) and node.state != state:
                    counters[key] = OMEGA
                    changed = True
                    self.stats.accelerations += 1
                    break
        if not changed:
            return state
        return ProductState(state.psi.with_counters(counters), state.buchi_state)

    # -- main search --------------------------------------------------------------------

    def run(self) -> KarpMillerResult:
        start_time = time.monotonic()
        control = self.control
        nodes: List[SearchNode] = []
        active: Set[int] = set()
        index: Optional[ActiveStateIndex] = (
            ActiveStateIndex() if self.use_index else None
        )
        mask_of: Callable[[ProductState], int] = (
            StateMasks(index).mask_of if index is not None else lambda _state: 0
        )
        worklist: List[int] = []
        completed = True

        def add_node(
            state: ProductState, parent: Optional[int], service: Optional[str], mask: int
        ) -> SearchNode:
            node = SearchNode(
                node_id=len(nodes),
                state=state,
                parent=parent,
                service=service,
            )
            nodes.append(node)
            if parent is not None:
                nodes[parent].children.append(node.node_id)
            active.add(node.node_id)
            if index is not None:
                index.add(node.node_id, mask)
            worklist.append(node.node_id)
            self.stats.states_explored += 1
            control.maybe_emit_progress(
                self.stats.states_explored, len(worklist), len(active)
            )
            return node

        def active_candidates_covering(mask: int) -> Iterable[int]:
            """Active nodes that might cover the state of *mask* (state ⪯ candidate)."""
            if index is not None:
                # Same members as the index's own set; the intersection only
                # fixes the order in which the first-hit loop meets them, and
                # so how many ⪯ checks it makes before it stops.
                return index.candidates_covering(mask) & active
            return set(active)

        def active_candidates_covered(mask: int) -> Iterable[int]:
            """Active nodes that might be covered by the state of *mask* (candidate ⪯ state)."""
            if index is not None:
                return index.candidates_covered_by(mask)
            return set(active)

        def deactivate_subtree(node_id: int) -> None:
            stack = [node_id]
            while stack:
                current = stack.pop()
                node = nodes[current]
                if node.active:
                    node.active = False
                    active.discard(current)
                    if index is not None:
                        index.remove(current)
                    self.stats.states_deactivated += 1
                stack.extend(node.children)

        def is_ancestor(candidate: int, descendant: int) -> bool:
            current: Optional[int] = descendant
            while current is not None:
                if current == candidate:
                    return True
                current = nodes[current].parent
            return False

        # Initial states.
        for move in self.product.initial_states():
            duplicate = any(
                nodes[node_id].state == move.state for node_id in active
            )
            if not duplicate:
                add_node(move.state, None, move.service, mask_of(move.state))

        while worklist:
            reason = control.stop_reason()
            if reason is not None:
                if reason == STOP_DEADLINE:
                    self.stats.timed_out = True
                elif reason == STOP_CANCELLED:
                    self.stats.cancelled = True
                completed = False
                break
            if len(nodes) > self.max_states:
                self.stats.state_limit_reached = True
                completed = False
                break
            node_id = worklist.pop()
            node = nodes[node_id]
            if not node.active:
                continue

            # Acceleration only considers ancestors that are still active
            # (Section 3.4: accel is applied on ancestors(I) ∩ act).
            active_ancestors = [
                nodes[ancestor_id]
                for ancestor_id in self._ancestor_ids(nodes, node_id)
                if nodes[ancestor_id].active
            ]

            # The phase hooks attribute hot-loop wall time for the trace
            # waterfall; an untraced control makes them shared no-ops.
            with control.phase("successor-generation"):
                moves = list(self.product.successors(node.state))
            for move in moves:
                self.stats.transitions_computed += 1
                with control.phase("acceleration"):
                    successor = self._accelerate(move.state, active_ancestors)
                mask = mask_of(successor)

                covered = False
                with control.phase("coverage-check"):
                    for candidate_id in active_candidates_covering(mask):
                        if self._state_covers(successor, nodes[candidate_id].state):
                            covered = True
                            break
                if covered:
                    self.stats.states_pruned += 1
                    continue

                new_node = add_node(successor, node_id, move.service, mask)

                # Deactivate every state (and its descendants) that the new
                # state covers, unless it is an inactive ancestor of the new
                # node (Reynier-Servais rule).
                with control.phase("coverage-check"):
                    for candidate_id in list(active_candidates_covered(mask)):
                        if candidate_id == new_node.node_id:
                            continue
                        candidate = nodes[candidate_id]
                        if not self._state_covers(candidate.state, successor):
                            continue
                        if candidate.active or not is_ancestor(
                            candidate_id, new_node.node_id
                        ):
                            deactivate_subtree(candidate_id)
                # The new node itself must stay active even if an ancestor
                # subtree containing it was deactivated.
                if not new_node.active:
                    new_node.active = True
                    active.add(new_node.node_id)
                    if index is not None:
                        index.add(new_node.node_id, mask)

        self.stats.search_seconds = time.monotonic() - start_time
        self.stats.coverability_set_size = len(active)
        return KarpMillerResult(nodes=nodes, active_ids=set(active), stats=self.stats, completed=completed)

    @staticmethod
    def _ancestor_ids(nodes: List[SearchNode], node_id: int) -> List[int]:
        result = []
        current = nodes[node_id].parent
        while current is not None:
            result.append(current)
            current = nodes[current].parent
        return result
