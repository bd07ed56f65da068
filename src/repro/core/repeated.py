"""Repeated reachability of accepting product states (Section 3.8, Appendix C).

Full LTL-FO verification needs to know whether some *accepting* product state
occurs infinitely often along a symbolic run (an infinite violating run exists
iff that is the case; finite violating runs are folded in by the terminal
stutter step, which turns them into self-loops).

The analysis is layered so that the expensive machinery only runs when needed:

1. If no accepting state is reachable at all, the property is satisfied --
   the ⪯-pruned coverability search of the main phase already answers this.
2. An accepting state whose PSI carries an ω counter is repeatedly reachable:
   the acceleration that produced the ω witnesses a pumpable loop through the
   same partial isomorphism type and Büchi state (Appendix C, step 1).
3. An accepting state of a *closed* local run (the ``__closed__`` marker is
   set) self-loops forever through the terminal stutter step, hence is
   repeatedly reachable.
4. Otherwise the question is decided exactly as in Section 3.8 for the
   monotone-pruning algorithm: a second Karp–Miller search using the classic
   ``≤`` coverage (which, unlike the ⪯-pruned one, yields a coverability set
   on which the standard cycle argument is valid) is run, and an accepting
   state is repeatedly reachable iff it carries an ω counter or lies on a
   cycle of the coverage-successor graph of that coverability set.  This
   replaces the ⪯⁺ re-exploration sketched in Appendix C, which does not
   terminate on specifications whose artifact relations can grow without
   bound; the ``≤``-based search always terminates thanks to acceleration.

Step 4 is preceded by a *violation fast path* (audited by a differential
stress test against the classic re-search): every active node of
the ⪯-pruned main search is a reachable symbolic state (or an ω limit of
reachable states), and the cycle argument is *sound* on any set of reachable
states -- a ≤-coverage cycle through an accepting state can be pumped
forever.  Only certifying satisfaction (no cycle anywhere) needs the complete
≤-coverability set, so the classic re-search runs only when the fast path
finds nothing.

Coverage-successor graphs are built lazily from the accepting states: a cycle
through an accepting state lies entirely inside the subgraph reachable from
it, so successors of states that no accepting state can reach are never
computed (and never counted in ``repeated_phase_states`` -- the Table 3
overhead numbers only reflect work the phase actually needed).

The analyzer reports which accepting nodes of the main search are repeatedly
reachable plus a witness tag ("omega", "terminated" or "cycle") used by the
counterexample builder.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.control import SearchControl
from repro.core.coverage import covers_leq
from repro.core.karp_miller import KarpMillerResult, KarpMillerSearch, SearchNode
from repro.core.product import ProductState, ProductSystem
from repro.core.stats import SearchStatistics
from repro.core.transitions import CLOSED_MARKER


@dataclass
class RepeatedReachabilityOutcome:
    """Result of the repeated-reachability analysis."""

    #: Node ids (of the main Karp–Miller tree) that are accepting and repeatedly reachable.
    repeated_node_ids: Set[int] = field(default_factory=set)
    #: Why each node is repeatedly reachable: "omega", "terminated" or "cycle".
    witnesses: Dict[int, str] = field(default_factory=dict)
    #: Whether the analysis ran to completion; when False the verdict is unknown.
    completed: bool = True

    @property
    def found_violation(self) -> bool:
        return bool(self.repeated_node_ids)


class RepeatedReachabilityAnalyzer:
    """Decides whether accepting states of the coverability set are repeatedly reachable."""

    def __init__(
        self,
        product: ProductSystem,
        max_states: int,
        *,
        use_index: bool = True,
        leq_main_search: bool = False,
        stats: Optional[SearchStatistics] = None,
        control: Optional[SearchControl] = None,
    ):
        # *leq_main_search*: the main search pruned with ``≤`` already, so
        # its active set is the coverability set a re-search would build.
        self.product = product
        self.max_states = max_states
        self.use_index = use_index
        self.leq_main_search = leq_main_search
        self.stats = stats or SearchStatistics()
        self.control = control if control is not None else SearchControl()

    def _out_of_time(self) -> bool:
        return self.control.should_stop()

    # ------------------------------------------------------------------ public API

    def analyse(self, result: KarpMillerResult) -> RepeatedReachabilityOutcome:
        start = time.monotonic()
        outcome = RepeatedReachabilityOutcome()
        accepting_nodes = [
            node for node in result.active_nodes() if self.product.is_accepting(node.state)
        ]
        if not accepting_nodes:
            self.stats.repeated_seconds = time.monotonic() - start
            return outcome
        self.control.emit_phase("repeated", accepting_candidates=len(accepting_nodes))

        # Cheap, sound witnesses first: pumpable ω counters and terminal stutter loops.
        remaining: List[SearchNode] = []
        for node in accepting_nodes:
            if node.state.psi.has_omega():
                outcome.repeated_node_ids.add(node.node_id)
                outcome.witnesses[node.node_id] = "omega"
            elif node.state.psi.child_active(CLOSED_MARKER):
                outcome.repeated_node_ids.add(node.node_id)
                outcome.witnesses[node.node_id] = "terminated"
            else:
                remaining.append(node)

        if remaining and not outcome.repeated_node_ids:
            completed = self._cycle_analysis(result, remaining, outcome)
            outcome.completed = completed and not self._out_of_time()
        self.stats.repeated_seconds = time.monotonic() - start
        return outcome

    # ------------------------------------------------------------------ cycle analysis

    def _cycle_analysis(
        self,
        result: KarpMillerResult,
        candidates: Sequence[SearchNode],
        outcome: RepeatedReachabilityOutcome,
    ) -> bool:
        """The classic Section 3.8 analysis over a ``≤``-coverability set."""
        if self.leq_main_search:
            leq_result = result
        else:
            if self._violation_fast_path(result):
                self._report_cycle(candidates, outcome)
                return True
            if self._out_of_time():
                return False
            self.control.emit_phase("repeated-classic-search")
            # The shared control's deadline/cancellation token bounds the
            # re-search, so it cannot extend the original deadline.
            search = KarpMillerSearch(
                self.product,
                self.max_states,
                covers=covers_leq,
                use_index=self.use_index,
                control=self.control,
            )
            with self.control.span("repeated.classic-search") as span:
                leq_result = search.run()
                span.set_attr("states_explored", search.stats.states_explored)
            self.stats.repeated_phase_states += search.stats.states_explored
        completed = leq_result.completed

        active_states = [node.state for node in leq_result.active_nodes()]
        accepting_present = {
            index
            for index, state in enumerate(active_states)
            if self.product.is_accepting(state)
        }
        if not accepting_present:
            # No accepting state survives in the ≤-coverability set; with a
            # completed search this means no accepting state is repeatedly
            # reachable.
            return completed

        # ω counters and terminal self-loops found by the classic search also
        # witness violations.
        trivially_repeated = any(
            active_states[index].psi.has_omega()
            or active_states[index].psi.child_active(CLOSED_MARKER)
            for index in accepting_present
        )
        if not trivially_repeated:
            trivially_repeated = self._accepting_on_cycle(active_states, accepting_present)

        if trivially_repeated:
            self._report_cycle(candidates, outcome)
        return completed

    def _violation_fast_path(self, result: KarpMillerResult) -> bool:
        """Whether a ≤-coverage cycle passes an accepting state of the main
        ⪯-pruned active set, which already witnesses a violation (see the
        module docstring)."""
        states = [node.state for node in result.active_nodes()]
        accepting = {
            index for index, state in enumerate(states) if self.product.is_accepting(state)
        }
        return bool(accepting) and self._accepting_on_cycle(states, accepting)

    @staticmethod
    def _report_cycle(
        candidates: Sequence[SearchNode], outcome: RepeatedReachabilityOutcome
    ) -> None:
        """Report the violation on the main search's first accepting
        candidate: it witnesses reachability of the accepting Büchi state,
        while the cycle itself lives in the ≤-coverability set."""
        node = candidates[0]
        outcome.repeated_node_ids.add(node.node_id)
        outcome.witnesses[node.node_id] = "cycle"

    def _accepting_on_cycle(
        self, states: Sequence[ProductState], accepting: Set[int]
    ) -> bool:
        """Whether some accepting state lies on a ≤-coverage cycle.

        Only the subgraph reachable from the accepting states is built (a
        cycle through an accepting state cannot leave it), so the graph/SCC
        pass -- and its ``repeated_phase_states`` counters -- stays
        proportional to the candidate cycles, not to the whole set.
        """
        with self.control.phase("cycle-detection"):
            graph = self._coverage_graph(states, roots=accepting)
            return bool(states_on_cycles(graph) & accepting)

    def _coverage_graph(
        self, states: Sequence[ProductState], roots: Optional[Iterable[int]] = None
    ) -> Dict[int, Set[int]]:
        """Edges i -> j when some successor of states[i] is ≤-covered by states[j].

        With *roots*, successors are computed on demand, exploring only the
        part of the graph reachable from the roots; without them the full
        graph is materialised.
        """
        # Bucket states by (Büchi state, tau, children) so that cover targets
        # of a successor are found without scanning the whole set.
        buckets: Dict[Tuple, List[int]] = {}
        for index, state in enumerate(states):
            key = (state.buchi_state, state.psi.tau.canonical_key(), state.psi.children)
            buckets.setdefault(key, []).append(index)

        pending: List[int] = list(range(len(states)) if roots is None else roots)
        seen: Set[int] = set(pending)
        graph: Dict[int, Set[int]] = {}
        while pending:
            if self._out_of_time():
                break
            i = pending.pop()
            edges = graph[i] = set()
            for move in self.product.successors(states[i]):
                self.stats.repeated_phase_states += 1
                successor = move.state
                key = (
                    successor.buchi_state,
                    successor.psi.tau.canonical_key(),
                    successor.psi.children,
                )
                for j in buckets.get(key, ()):  # same tau / Büchi state / children
                    if covers_leq(successor.psi, states[j].psi):
                        edges.add(j)
                        if j not in seen:
                            seen.add(j)
                            pending.append(j)
        return graph


def states_on_cycles(graph: Dict[int, Set[int]]) -> Set[int]:
    """Vertices lying on a (non-trivial or self-loop) cycle, via Tarjan's SCC.

    Iterative (explicit work stack): the graph can hold up to ``max_states``
    vertices, far past CPython's recursion limit.
    """
    index_counter = 0
    index: Dict[int, int] = {}
    lowlink: Dict[int, int] = {}
    stack: List[int] = []
    on_stack: Set[int] = set()
    result: Set[int] = set()

    for root in graph:
        if root in index:
            continue
        index[root] = lowlink[root] = index_counter
        index_counter += 1
        stack.append(root)
        on_stack.add(root)
        work: List[Tuple[int, Iterable[int]]] = [(root, iter(graph.get(root, ())))]
        while work:
            v, successors = work[-1]
            descended = False
            for w in successors:
                if w not in index:
                    index[w] = lowlink[w] = index_counter
                    index_counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(graph.get(w, ()))))
                    descended = True
                    break
                if w in on_stack:
                    lowlink[v] = min(lowlink[v], index[w])
            if descended:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
            if lowlink[v] == index[v]:
                component = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    component.append(w)
                    if w == v:
                        break
                if len(component) > 1:
                    result.update(component)
                elif component[0] in graph.get(component[0], ()):
                    result.add(component[0])
    return result
