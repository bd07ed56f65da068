"""Bipartite flow feasibility used by the ⪯ comparison (Section 3.5).

Testing ``I ⪯ I'`` requires a one-to-one mapping of the tuples stored in
``I``'s artifact relations onto tuples stored in ``I'``, where a tuple of type
``τ_S`` may only be mapped to a tuple of a *less restrictive* type ``τ'_S``
(``τ_S |= τ'_S``).  The paper reduces the existence of such a mapping to a
max-flow problem; the instances are tiny (a handful of stored-tuple types per
side), so a plain Edmonds–Karp implementation is more than sufficient.

Supplies and capacities range over ℕ ∪ {ω}; an ω supply can only be satisfied
by an ω-capacity sink, and ω-capacity sinks absorb any finite amount.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.psi import OMEGA

#: Large finite stand-in for ω capacities once ω supplies have been discharged.
_INFINITE = 10**12


def max_bipartite_flow(
    supplies: Sequence[int],
    capacities: Sequence[int],
    edges: Set[Tuple[int, int]],
) -> int:
    """Maximum flow from supply nodes to capacity nodes along the given edges.

    ``edges`` contains pairs ``(supply_index, capacity_index)``; edge capacity
    is unbounded (only the node supplies/capacities constrain the flow).
    """
    n_sources = len(supplies)
    n_sinks = len(capacities)
    source = n_sources + n_sinks
    sink = source + 1
    n_nodes = sink + 1

    capacity: Dict[Tuple[int, int], int] = {}

    def add_edge(u: int, v: int, c: int) -> None:
        capacity[(u, v)] = capacity.get((u, v), 0) + c
        capacity.setdefault((v, u), 0)

    for i, supply in enumerate(supplies):
        add_edge(source, i, supply)
    for j, cap in enumerate(capacities):
        add_edge(n_sources + j, sink, cap)
    for i, j in edges:
        add_edge(i, n_sources + j, _INFINITE)

    adjacency: Dict[int, List[int]] = {u: [] for u in range(n_nodes)}
    for (u, v) in capacity:
        adjacency[u].append(v)

    flow = 0
    while True:
        # BFS for an augmenting path in the residual graph.
        parent: Dict[int, int] = {source: source}
        queue = deque([source])
        while queue and sink not in parent:
            u = queue.popleft()
            for v in adjacency[u]:
                if v not in parent and capacity.get((u, v), 0) > 0:
                    parent[v] = u
                    queue.append(v)
        if sink not in parent:
            return flow
        # Find the bottleneck along the path and push flow.
        bottleneck = _INFINITE
        v = sink
        while v != source:
            u = parent[v]
            bottleneck = min(bottleneck, capacity[(u, v)])
            v = u
        v = sink
        while v != source:
            u = parent[v]
            capacity[(u, v)] -= bottleneck
            capacity[(v, u)] += bottleneck
            v = u
        flow += bottleneck


def feasible_assignment(
    supplies: Sequence[object],
    capacities: Sequence[object],
    edges: Set[Tuple[int, int]],
    require_slack: bool = False,
) -> bool:
    """Whether every supply unit can be routed to the capacities along *edges*.

    Supplies / capacities may be ω.  With ``require_slack=True`` the check
    additionally requires that some capacity is *not* saturated by the
    assignment (used by the ⪯⁺ relation and the ⪯-based acceleration).
    """
    # ω supplies must be absorbed by an ω sink they are connected to.
    finite_supplies: List[int] = []
    finite_supply_index: List[int] = []
    omega_sinks = {j for j, cap in enumerate(capacities) if cap is OMEGA}
    for i, supply in enumerate(supplies):
        if supply is OMEGA:
            if not any(j in omega_sinks for (si, j) in edges if si == i):
                return False
        else:
            finite_supplies.append(int(supply))
            finite_supply_index.append(i)

    finite_capacities = [
        _INFINITE if cap is OMEGA else int(cap) for cap in capacities
    ]
    remapped_edges = {
        (finite_supply_index.index(i), j)
        for (i, j) in edges
        if i in finite_supply_index
    }
    total_supply = sum(finite_supplies)
    flow = max_bipartite_flow(finite_supplies, finite_capacities, remapped_edges)
    if flow < total_supply:
        return False
    if not require_slack:
        return True
    # Slack exists when some sink's capacity is not fully used by *any*
    # feasible assignment of this size -- equivalently, when the total finite
    # capacity strictly exceeds the total supply, or some ω sink exists.
    if omega_sinks:
        return True
    return sum(int(c) for c in capacities) > total_supply
