"""Static analysis of the constraint graph (Section 3.7).

Some constraints occurring in the specification and the property can never
participate in a contradiction during symbolic runs; storing them in partial
isomorphism types only blows up the number of distinct symbolic states.  The
*constraint graph* ``G`` of (Γ, φ) collects every =/≠ edge that any symbolic
transition or property check could add.  An edge is **non-violating** when
adding it to any consistent subgraph of ``G`` keeps the subgraph consistent:

* a ≠-edge ``(u, v)`` is non-violating iff ``u`` and ``v`` lie in different
  connected components of the =-edges;
* an =-edge is non-violating iff it lies on no simple =-path connecting the
  endpoints of a ≠-edge or two distinct constants.  Edges lying on such a
  path are exactly the edges of the biconnected blocks along the block-cut
  tree path between the two conflict endpoints, so the check reduces to a
  biconnected-component computation (Tarjan).

The verifier uses :class:`ConstraintFilter` to drop non-violating constraints
before they are added to partial isomorphism types.  Dropping an =-edge also
suppresses its congruence-derived edges, so an =-constraint is only dropped
when *every* derived edge ``(e.w, e'.w)`` is non-violating as well.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.expressions import ConstExpr, Expression, ExpressionUniverse, NavExpr
from repro.core.isotypes import Constraint, EQ, NEQ


Node = str  # expressions are identified by their canonical string form
Edge = FrozenSet[Node]


def _edge(u: Node, v: Node) -> Edge:
    return frozenset((u, v))


@dataclass
class ConstraintGraph:
    """The constraint graph ``G`` of Definition 24 plus conflict pairs."""

    eq_edges: Set[Edge] = field(default_factory=set)
    neq_edges: Set[Edge] = field(default_factory=set)
    constant_nodes: Set[Node] = field(default_factory=set)

    def add_constraint(self, left: Expression, right: Expression, op: str) -> None:
        u, v = str(left), str(right)
        if u == v:
            return
        if isinstance(left, ConstExpr):
            self.constant_nodes.add(u)
        if isinstance(right, ConstExpr):
            self.constant_nodes.add(v)
        if op == EQ:
            self.eq_edges.add(_edge(u, v))
        else:
            self.neq_edges.add(_edge(u, v))

    # -- connectivity over =-edges ---------------------------------------------

    def _adjacency(self) -> Dict[Node, Set[Node]]:
        adjacency: Dict[Node, Set[Node]] = {}
        for edge in self.eq_edges:
            u, v = tuple(edge)
            adjacency.setdefault(u, set()).add(v)
            adjacency.setdefault(v, set()).add(u)
        return adjacency

    def eq_components(self) -> Dict[Node, int]:
        """Node -> id of its connected component in the =-edge graph."""
        adjacency = self._adjacency()
        component: Dict[Node, int] = {}
        current = 0
        for start in adjacency:
            if start in component:
                continue
            stack = [start]
            while stack:
                node = stack.pop()
                if node in component:
                    continue
                component[node] = current
                stack.extend(adjacency.get(node, ()))
            current += 1
        return component

    def conflict_pairs(self) -> Set[Edge]:
        """Pairs of nodes that must never be connected by =-paths."""
        pairs: Set[Edge] = set(self.neq_edges)
        constants = sorted(self.constant_nodes)
        for i in range(len(constants)):
            for j in range(i + 1, len(constants)):
                pairs.add(_edge(constants[i], constants[j]))
        return pairs

    # -- biconnected components -------------------------------------------------

    def _block_cut_structure(self):
        """Tarjan's biconnected components (blocks) of the =-edge graph.

        Returns ``(blocks, blocks_of_node)`` where ``blocks`` is a list of edge
        sets (one per biconnected block) and ``blocks_of_node`` maps a node to
        the indices of the blocks containing it.  Constraint graphs are small
        (bounded by the expression universe), so a recursive DFS is fine.
        """
        import sys

        adjacency = self._adjacency()
        sys.setrecursionlimit(max(sys.getrecursionlimit(), 4 * len(adjacency) + 100))

        index: Dict[Node, int] = {}
        lowlink: Dict[Node, int] = {}
        blocks: List[Set[Edge]] = []
        edge_stack: List[Edge] = []
        counter = [0]

        def dfs(node: Node, parent: Optional[Node]) -> None:
            index[node] = lowlink[node] = counter[0]
            counter[0] += 1
            parent_skipped = False
            for neighbour in sorted(adjacency[node]):
                if neighbour == parent and not parent_skipped:
                    # Skip the tree edge back to the parent exactly once
                    # (parallel edges cannot occur: edges are sets).
                    parent_skipped = True
                    continue
                edge = _edge(node, neighbour)
                if neighbour not in index:
                    edge_stack.append(edge)
                    dfs(neighbour, node)
                    lowlink[node] = min(lowlink[node], lowlink[neighbour])
                    if lowlink[neighbour] >= index[node]:
                        # node is an articulation point (or the DFS root):
                        # pop one biconnected block ending with this tree edge.
                        block: Set[Edge] = set()
                        while edge_stack:
                            popped = edge_stack.pop()
                            block.add(popped)
                            if popped == edge:
                                break
                        if block:
                            blocks.append(block)
                elif index[neighbour] < index[node]:
                    # Back edge.
                    edge_stack.append(edge)
                    lowlink[node] = min(lowlink[node], index[neighbour])

        for node in adjacency:
            if node not in index:
                dfs(node, None)
                if edge_stack:  # pragma: no cover - defensive; blocks are popped eagerly
                    blocks.append(set(edge_stack))
                    edge_stack.clear()

        blocks_of_node: Dict[Node, Set[int]] = {}
        for block_id, block in enumerate(blocks):
            for edge in block:
                for member in edge:
                    blocks_of_node.setdefault(member, set()).add(block_id)
        return blocks, blocks_of_node

    # -- non-violating edges ------------------------------------------------------

    def violating_eq_edges(self) -> Set[Edge]:
        """=-edges lying on some simple =-path between a conflict pair."""
        blocks, blocks_of_node = self._block_cut_structure()
        components = self.eq_components()
        conflicts = self.conflict_pairs()

        # Block-cut tree: bipartite graph between block ids and articulation
        # (shared) nodes.  A simple path between two nodes passes exactly
        # through the blocks on the block-cut tree path between them, and
        # within a 2-connected block every edge lies on some simple path
        # between two distinct vertices of that block.
        block_neighbours: Dict[int, Set[Node]] = {
            block_id: {node for edge in block for node in edge} for block_id, block in enumerate(blocks)
        }

        violating: Set[Edge] = set()
        for conflict in conflicts:
            u, v = tuple(conflict)
            if components.get(u) is None or components.get(u) != components.get(v):
                continue
            path_blocks = self._blocks_on_path(u, v, blocks_of_node, block_neighbours)
            for block_id in path_blocks:
                violating |= blocks[block_id]
        return violating

    def _blocks_on_path(
        self,
        source: Node,
        target: Node,
        blocks_of_node: Dict[Node, Set[int]],
        block_neighbours: Dict[int, Set[Node]],
    ) -> Set[int]:
        """Block ids on the (unique) block-cut tree path between two nodes."""
        # BFS over the bipartite block-cut graph, alternating node / block layers.
        from collections import deque

        parents: Dict[Tuple[str, object], Tuple[str, object]] = {}
        start = ("node", source)
        queue = deque([start])
        parents[start] = start
        goal = ("node", target)
        while queue:
            kind, value = queue.popleft()
            if (kind, value) == goal:
                break
            if kind == "node":
                for block_id in blocks_of_node.get(value, ()):  # type: ignore[arg-type]
                    successor = ("block", block_id)
                    if successor not in parents:
                        parents[successor] = (kind, value)
                        queue.append(successor)
            else:
                for node in block_neighbours.get(value, ()):  # type: ignore[arg-type]
                    successor = ("node", node)
                    if successor not in parents:
                        parents[successor] = (kind, value)
                        queue.append(successor)
        if goal not in parents:
            return set()
        path_blocks: Set[int] = set()
        current = goal
        while parents[current] != current:
            kind, value = current
            if kind == "block":
                path_blocks.add(value)  # type: ignore[arg-type]
            current = parents[current]
        return path_blocks

    def non_violating_neq_edges(self) -> Set[Edge]:
        components = self.eq_components()
        result: Set[Edge] = set()
        for edge in self.neq_edges:
            u, v = tuple(edge)
            cu, cv = components.get(u), components.get(v)
            if cu is None or cv is None or cu != cv:
                result.add(edge)
        return result

    def non_violating_eq_edges(self) -> Set[Edge]:
        return self.eq_edges - self.violating_eq_edges()


class ConstraintFilter:
    """Drops non-violating constraints before they reach partial isomorphism types."""

    def __init__(self, universe: ExpressionUniverse, enabled: bool = True):
        self._universe = universe
        self._enabled = enabled
        self._droppable_eq: Set[Edge] = set()
        self._droppable_neq: Set[Edge] = set()

    @classmethod
    def from_conditions(
        cls,
        universe: ExpressionUniverse,
        constraint_conjunctions: Iterable[Sequence[Constraint]],
        enabled: bool = True,
    ) -> "ConstraintFilter":
        """Build the filter from every constraint any transition could add."""
        instance = cls(universe, enabled)
        if not enabled:
            return instance
        graph = ConstraintGraph()
        all_constraints: List[Constraint] = []
        for conjunction in constraint_conjunctions:
            all_constraints.extend(conjunction)
        for left, right, op in all_constraints:
            graph.add_constraint(left, right, op)
            if op == EQ:
                # Congruence-derived edges (x.w = y.w for every shared suffix w).
                for derived_left, derived_right in _derived_pairs(universe, left, right):
                    graph.add_constraint(derived_left, derived_right, EQ)
        non_violating_eq = graph.non_violating_eq_edges()
        non_violating_neq = graph.non_violating_neq_edges()

        for left, right, op in all_constraints:
            key = _edge(str(left), str(right))
            if op == NEQ:
                if key in non_violating_neq:
                    instance._droppable_neq.add(key)
            else:
                derived = [_edge(str(l), str(r)) for l, r in _derived_pairs(universe, left, right)]
                if key in non_violating_eq and all(d in non_violating_eq for d in derived):
                    instance._droppable_eq.add(key)
        return instance

    def is_droppable(self, constraint: Constraint) -> bool:
        if not self._enabled:
            return False
        left, right, op = constraint
        key = _edge(str(left), str(right))
        if op == EQ:
            return key in self._droppable_eq
        return key in self._droppable_neq

    def filter_constraints(self, constraints: Sequence[Constraint]) -> List[Constraint]:
        """The constraints that must actually be recorded."""
        if not self._enabled:
            return list(constraints)
        return [c for c in constraints if not self.is_droppable(c)]

    @property
    def dropped_edge_count(self) -> int:
        return len(self._droppable_eq) + len(self._droppable_neq)


def _derived_pairs(
    universe: ExpressionUniverse, left: Expression, right: Expression
) -> List[Tuple[Expression, Expression]]:
    """All congruence-derived pairs (left.w, right.w) present in the universe."""
    result: List[Tuple[Expression, Expression]] = []
    frontier: List[Tuple[Expression, Expression]] = [(left, right)]
    while frontier:
        current_left, current_right = frontier.pop()
        left_navs = universe.navigations_of(current_left)
        right_navs = universe.navigations_of(current_right)
        for attribute, child_left in left_navs.items():
            child_right = right_navs.get(attribute)
            if child_right is not None:
                result.append((child_left, child_right))
                frontier.append((child_left, child_right))
    return result
