"""Matchable-set enumeration against brute force and networkx."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmsp import (
    Graph,
    TooLargeError,
    brute_force_matchable,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    has_perfect_matching,
    hall_violations,
    matchable_subsets,
    path_graph,
)

from .test_graph import random_graph_strategy


def to_networkx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(g.vertices())
    h.add_edges_from(g.edges)
    return h


def networkx_has_pm(g: Graph) -> bool:
    if g.n % 2:
        return False
    matching = nx.max_weight_matching(to_networkx(g), maxcardinality=True)
    return 2 * len(matching) == g.n


class TestPerfectMatching:
    def test_path_parity(self):
        assert has_perfect_matching(path_graph(4))
        assert not has_perfect_matching(path_graph(5))

    def test_odd_cycle(self):
        assert not has_perfect_matching(cycle_graph(5))
        assert has_perfect_matching(cycle_graph(6))

    def test_empty_graph_on_two(self):
        assert not has_perfect_matching(Graph(2, ()))

    def test_agrees_with_networkx(self, connected_7):
        for g in connected_7:
            assert has_perfect_matching(g) == networkx_has_pm(g)


class TestMatchableSubsets:
    def test_p3_example(self):
        fam = matchable_subsets(path_graph(3))
        assert fam.as_lists() == [[], [1, 2], [2, 3]]

    def test_c4_example(self):
        fam = matchable_subsets(cycle_graph(4))
        assert fam.as_lists() == [[], [1, 2], [2, 3], [1, 4], [3, 4], [1, 2, 3, 4]]

    def test_k4_count(self):
        assert len(matchable_subsets(complete_graph(4))) == 8

    def test_empty_always_present(self, connected_7):
        for g in connected_7[:50]:
            assert [] in matchable_subsets(g).as_lists()

    def test_sizes_even(self, connected_7):
        for g in connected_7[:100]:
            for s in matchable_subsets(g).subsets:
                assert len(s) % 2 == 0

    def test_budget_guard(self):
        with pytest.raises(TooLargeError):
            matchable_subsets(Graph(21, ((1, 2),)))

    def test_brute_force_agrees(self, connected_7):
        for g in connected_7:
            fast = {s.mask for s in matchable_subsets(g)}
            assert fast == {s.mask for s in brute_force_matchable(g)}

    def test_brute_force_agrees_ordered(self):
        for g in [cycle_graph(6), complete_graph(5), complete_bipartite_graph(2, 4)]:
            assert matchable_subsets(g).as_lists() == brute_force_matchable(g).as_lists()

    @settings(max_examples=40, deadline=None)
    @given(random_graph_strategy(max_n=7))
    def test_monotone_under_edge_addition(self, g):
        """Adding an edge can only enlarge the matchable family."""
        pairs = [(u, v) for u in range(1, g.n + 1) for v in range(u + 1, g.n + 1)
                 if (u, v) not in g.edges]
        before = {s.mask for s in matchable_subsets(g)}
        for u, v in pairs[:3]:
            bigger = Graph(g.n, g.edges + ((u, v),))
            assert before <= {s.mask for s in matchable_subsets(bigger)}

    @settings(max_examples=30, deadline=None)
    @given(random_graph_strategy(max_n=7))
    def test_each_member_matches_networkx(self, g):
        fam = matchable_subsets(g)
        subs = list(fam.subsets)[:20]
        for s in subs:
            members = s.members()
            if not members:
                continue
            h = to_networkx(g).subgraph(members)
            matching = nx.max_weight_matching(h, maxcardinality=True)
            assert 2 * len(matching) == len(members)


class TestHallViolations:
    def test_k23_deficiency(self):
        from pmsp import VertexSet

        g = complete_bipartite_graph(2, 3)
        # taking all of the larger side {3,4,5} leaves only two neighbors
        side = VertexSet.from_vertices([3, 4, 5], 5)
        violations = hall_violations(g, side)
        assert [v.members() for v in violations] == [(3, 4, 5)]

    def test_k33_no_violation(self):
        from pmsp import VertexSet, bipartition

        g = complete_bipartite_graph(3, 3)
        v1, v2 = bipartition(g)
        assert hall_violations(g, v1) == []
        assert hall_violations(g, v2) == []
