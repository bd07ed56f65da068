"""Candidate index for subset / superset queries over edge sets (Section 3.6).

Every time the search visits a new product state it must answer two queries
against the set of *active* states:

1. which active states are covered by the new one (candidates for pruning), and
2. is the new state covered by some active state (can it be discarded)?

Both reduce, as a necessary condition, to subset / superset tests between the
states' edge sets ``E(I)`` (the edges of the isomorphism type plus the edges of
every stored-tuple type with a positive counter, plus the Büchi state and the
child stages encoded as mandatory pseudo-edges).  The paper answers them with
a Trie (superset queries) and inverted lists (subset queries); here every edge
gets one bit of a Python int, each active item is stored as its edge mask, and
a query is a scan of word-parallel mask tests.  The candidate sets are the
same; the precise ⪯ test is then run only on the returned candidates.
"""

from __future__ import annotations

from typing import Dict, Generic, Hashable, Iterable, Set, Tuple, TypeVar

ItemId = TypeVar("ItemId", bound=Hashable)


class ActiveStateIndex(Generic[ItemId]):
    """Edge-set masks of the active states of the search (Section 3.6).

    ``candidates_covering(query)`` returns items whose edge set is a subset of
    the query's (necessary for ``query ⪯ item``); ``candidates_covered_by(query)``
    returns items whose edge set is a superset (necessary for ``item ⪯ query``).
    """

    def __init__(self) -> None:
        self._bits: Dict[Hashable, int] = {}  # edge -> its single-bit mask
        self._masks: Dict[ItemId, int] = {}

    def _mask(self, edges: Iterable[Hashable]) -> int:
        bits = self._bits
        mask = 0
        for edge in edges:
            bit = bits.get(edge)
            if bit is None:
                bit = bits[edge] = 1 << len(bits)
            mask |= bit
        return mask

    def add(self, item: ItemId, edges: Iterable[Hashable]) -> None:
        self._masks[item] = self._mask(edges)

    def remove(self, item: ItemId) -> None:
        self._masks.pop(item, None)

    def __contains__(self, item: object) -> bool:
        return item in self._masks

    def __len__(self) -> int:
        return len(self._masks)

    def items(self) -> Tuple[ItemId, ...]:
        return tuple(self._masks)

    def candidates_covering(self, edges: Iterable[Hashable]) -> Set[ItemId]:
        """Items I' with E(I') ⊆ E(query): necessary condition for query ⪯ I'."""
        outside = ~self._mask(edges)
        return {item for item, mask in self._masks.items() if not mask & outside}

    def candidates_covered_by(self, edges: Iterable[Hashable]) -> Set[ItemId]:
        """Items I' with E(I') ⊇ E(query): necessary condition for I' ⪯ query."""
        query = self._mask(edges)
        return {item for item, mask in self._masks.items() if mask & query == query}
