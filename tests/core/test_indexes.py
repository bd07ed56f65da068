"""Unit and property-based tests for the bitset candidate index."""

import random

from hypothesis import given, settings, strategies as st

from repro.core.indexes import ActiveStateIndex


class TestActiveStateIndex:
    def test_candidates(self):
        index = ActiveStateIndex()
        index.add("loose", ["e1"])
        index.add("tight", ["e1", "e2", "e3"])
        # Items whose edges are a subset of the query: candidates that may cover the query.
        assert index.candidates_covering(["e1", "e2"]) == {"loose"}
        # Items whose edges are a superset of the query: candidates the query may cover.
        assert index.candidates_covered_by(["e1", "e2"]) == {"tight"}

    def test_empty_edge_set(self):
        index = ActiveStateIndex()
        index.add("empty", [])
        index.add("a", ["a"])
        # The empty set is a subset of every query ...
        assert index.candidates_covering(["z"]) == {"empty"}
        assert index.candidates_covering([]) == {"empty"}
        # ... and every stored set is a superset of the empty query.
        assert index.candidates_covered_by([]) == {"empty", "a"}

    def test_duplicate_edge_sets(self):
        index = ActiveStateIndex()
        index.add("a", ["e1", "e2"])
        index.add("b", ["e2", "e1"])
        assert index.candidates_covered_by(["e1", "e2"]) == {"a", "b"}
        assert index.candidates_covering(["e1", "e2", "e3"]) == {"a", "b"}

    def test_unseen_query_edges(self):
        index = ActiveStateIndex()
        index.add("a", ["e1"])
        assert index.candidates_covering(["e1", "new"]) == {"a"}
        assert index.candidates_covered_by(["e1", "new"]) == set()

    def test_readding_an_item_replaces_its_edge_set(self):
        index = ActiveStateIndex()
        index.add("a", ["e1", "e2"])
        index.add("a", ["e3"])
        assert len(index) == 1
        assert index.candidates_covering(["e3"]) == {"a"}
        assert index.candidates_covered_by(["e1"]) == set()

    def test_remove_and_contains(self):
        index = ActiveStateIndex()
        index.add(1, ["a"])
        assert 1 in index
        index.remove(1)
        assert 1 not in index
        assert index.candidates_covering(["a"]) == set()
        assert index.candidates_covered_by(["a"]) == set()
        index.remove(1)  # idempotent
        index.remove("missing")  # removing unknown items is a no-op

    def test_items_and_len(self):
        index = ActiveStateIndex()
        index.add("x", ["a"])
        index.add("y", ["b"])
        assert set(index.items()) == {"x", "y"}
        assert len(index) == 2


@st.composite
def _collections(draw):
    n_items = draw(st.integers(1, 12))
    items = []
    for i in range(n_items):
        items.append((i, frozenset(draw(st.sets(st.integers(0, 8), max_size=6)))))
    query = frozenset(draw(st.sets(st.integers(0, 8), max_size=6)))
    return items, query


class TestDifferentialAgainstBruteForce:
    @given(_collections())
    @settings(max_examples=120, deadline=None)
    def test_subset_and_superset_queries_match_brute_force(self, data):
        items, query = data
        index = ActiveStateIndex()
        for item, elements in items:
            index.add(item, elements)
        assert index.candidates_covering(query) == {i for i, e in items if e <= query}
        assert index.candidates_covered_by(query) == {i for i, e in items if e >= query}

    @given(_collections())
    @settings(max_examples=60, deadline=None)
    def test_queries_after_random_removals(self, data):
        items, query = data
        rng = random.Random(0)
        index = ActiveStateIndex()
        for item, elements in items:
            index.add(item, elements)
        removed = {item for item, _ in items if rng.random() < 0.5}
        for item in removed:
            index.remove(item)
        remaining = [(item, elements) for item, elements in items if item not in removed]
        assert index.candidates_covering(query) == {i for i, e in remaining if e <= query}
        assert index.candidates_covered_by(query) == {i for i, e in remaining if e >= query}
        assert len(index) == len(remaining)
