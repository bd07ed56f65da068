"""Coverage relations between partial symbolic instances.

Three relations are used by the search (Sections 3.3–3.5 and Appendix C):

* ``covers_leq(I, I')``      -- the classic VASS ordering ``I ≤ I'``: identical
  partial isomorphism type and child stages, and pointwise smaller counters.
* ``covers_preceq(I, I')``   -- the paper's novel ``I ⪯ I'``: the type of
  ``I'`` is less restrictive than the type of ``I`` and the stored tuples of
  ``I`` can be injectively mapped onto stored tuples of ``I'`` with less
  restrictive types (checked via bipartite flow feasibility).
* ``covers_preceq_plus``     -- the restriction ``⪯⁺`` of Appendix C used in
  the second (repeated-reachability) search phase: ``I = I'`` or ``I ⪯ I'``
  with strict slack on some counter.

All three require equal Büchi components; that check lives in the product
layer, these functions only compare PSIs (type, counters, child stages).
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.core.maxflow import feasible_assignment
from repro.core.psi import OMEGA, PSI, counter_leq


def _counters_dominated(covered: PSI, covering: PSI) -> bool:
    """Every counter of *covered* is ≤ the counter of *covering* on the same key."""
    covering_counters = covering.counter_map()
    return all(
        counter_leq(value, covering_counters.get(key, 0)) for key, value in covered.counters
    )


def covers_leq(covered: PSI, covering: PSI) -> bool:
    """The classic ordering ``covered ≤ covering`` (Section 3.3)."""
    if covered.children != covering.children:
        return False
    if covered.tau != covering.tau:
        return False
    return _counters_dominated(covered, covering)


def _counter_flow_feasible(covered: PSI, covering: PSI, require_slack: bool) -> bool:
    """Flow feasibility between the stored-tuple multisets of the two PSIs."""
    covered_items = covered.counters
    covering_items = covering.counters
    if not covered_items:
        if not require_slack:
            return True
        return bool(covering_items)
    if (
        not require_slack
        and len(covered_items) <= len(covering_items)
        and _counters_dominated(covered, covering)
    ):
        # The identity assignment is a valid flow (a type entails itself),
        # so max-flow would say yes.
        return True
    supplies = [value for _key, value in covered_items]
    capacities = [value for _key, value in covering_items]
    edges: Set[Tuple[int, int]] = set()
    for i, ((relation_i, type_i), _) in enumerate(covered_items):
        for j, ((relation_j, type_j), _) in enumerate(covering_items):
            if relation_i != relation_j:
                continue
            # A stored tuple of type τ_S may be mapped onto a slot of the less
            # restrictive type τ'_S, i.e. τ_S |= τ'_S.
            if type_i.entails(type_j):
                edges.add((i, j))
    return feasible_assignment(supplies, capacities, edges, require_slack=require_slack)


def covers_preceq(covered: PSI, covering: PSI) -> bool:
    """The paper's ``covered ⪯ covering`` (Definition 22)."""
    if covered.children != covering.children:
        return False
    if not covered.tau.entails(covering.tau):
        return False
    return _counter_flow_feasible(covered, covering, require_slack=False)


def covers_preceq_plus(covered: PSI, covering: PSI) -> bool:
    """The ``⪯⁺`` relation of Appendix C (Definition 31)."""
    if covered == covering:
        return True
    if covered.children != covering.children:
        return False
    if not covered.tau.entails(covering.tau):
        return False
    return _counter_flow_feasible(covered, covering, require_slack=True)
