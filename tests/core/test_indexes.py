"""Unit and property-based tests for the bitset candidate index."""

import random

from hypothesis import given, settings, strategies as st

from repro.core.indexes import ActiveStateIndex


class TestActiveStateIndex:
    def test_candidates(self):
        index = ActiveStateIndex()
        index.add("loose", index.mask(["e1"]))
        index.add("tight", index.mask(["e1", "e2", "e3"]))
        # Items whose edges are a subset of the query: candidates that may cover the query.
        assert index.candidates_covering(index.mask(["e1", "e2"])) == {"loose"}
        # Items whose edges are a superset of the query: candidates the query may cover.
        assert index.candidates_covered_by(index.mask(["e1", "e2"])) == {"tight"}

    def test_empty_edge_set(self):
        index = ActiveStateIndex()
        index.add("empty", index.mask([]))
        index.add("a", index.mask(["a"]))
        # The empty set is a subset of every query ...
        assert index.candidates_covering(index.mask(["z"])) == {"empty"}
        assert index.candidates_covering(index.mask([])) == {"empty"}
        # ... and every stored set is a superset of the empty query.
        assert index.candidates_covered_by(index.mask([])) == {"empty", "a"}

    def test_duplicate_edge_sets(self):
        index = ActiveStateIndex()
        index.add("a", index.mask(["e1", "e2"]))
        index.add("b", index.mask(["e2", "e1"]))
        assert index.candidates_covered_by(index.mask(["e1", "e2"])) == {"a", "b"}
        assert index.candidates_covering(index.mask(["e1", "e2", "e3"])) == {"a", "b"}

    def test_unseen_query_edges(self):
        index = ActiveStateIndex()
        index.add("a", index.mask(["e1"]))
        assert index.candidates_covering(index.mask(["e1", "new"])) == {"a"}
        assert index.candidates_covered_by(index.mask(["e1", "new"])) == set()

    def test_readding_an_item_replaces_its_edge_set(self):
        index = ActiveStateIndex()
        index.add("a", index.mask(["e1", "e2"]))
        index.add("a", index.mask(["e3"]))
        assert len(index) == 1
        assert index.candidates_covering(index.mask(["e3"])) == {"a"}
        assert index.candidates_covered_by(index.mask(["e1"])) == set()

    def test_remove_and_contains(self):
        index = ActiveStateIndex()
        index.add(1, index.mask(["a"]))
        assert 1 in index
        index.remove(1)
        assert 1 not in index
        assert index.candidates_covering(index.mask(["a"])) == set()
        assert index.candidates_covered_by(index.mask(["a"])) == set()
        index.remove(1)  # idempotent
        index.remove("missing")  # removing unknown items is a no-op

    def test_mask_is_one_bit_per_edge_and_order_free(self):
        index = ActiveStateIndex()
        first = index.mask(["e1", "e2"])
        assert bin(first).count("1") == 2
        assert index.mask(["e2", "e1", "e2"]) == first
        assert index.mask([]) == 0
        # A new edge gets a new bit; the masks of known edges do not change.
        extended = index.mask(["e1", "e2", "e3"])
        assert extended & first == first and bin(extended).count("1") == 3
        assert index.mask(["e1", "e2"]) == first

    def test_items_and_len(self):
        index = ActiveStateIndex()
        index.add("x", index.mask(["a"]))
        index.add("y", index.mask(["b"]))
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
            index.add(item, index.mask(elements))
        assert index.candidates_covering(index.mask(query)) == {i for i, e in items if e <= query}
        assert index.candidates_covered_by(index.mask(query)) == {i for i, e in items if e >= query}

    @given(_collections())
    @settings(max_examples=60, deadline=None)
    def test_queries_after_random_removals(self, data):
        items, query = data
        rng = random.Random(0)
        index = ActiveStateIndex()
        for item, elements in items:
            index.add(item, index.mask(elements))
        removed = {item for item, _ in items if rng.random() < 0.5}
        for item in removed:
            index.remove(item)
        remaining = [(item, elements) for item, elements in items if item not in removed]
        assert index.candidates_covering(index.mask(query)) == {i for i, e in remaining if e <= query}
        assert index.candidates_covered_by(index.mask(query)) == {i for i, e in remaining if e >= query}
        assert len(index) == len(remaining)
