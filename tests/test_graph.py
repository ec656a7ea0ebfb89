"""Graph parsing, masks, decomposition, and family recognition."""

import json
import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from pmsp import (
    Graph,
    GraphParseError,
    SelfLoopError,
    VertexSet,
    bipartition,
    blocks_and_cut_vertices,
    complete_bipartite_graph,
    complete_graph,
    complete_multipartite_graph,
    connected_components,
    cycle_graph,
    dimension,
    gorenstein_bipartite,
    induced_subgraph,
    is_connected,
    lattice_points,
    parse_graph,
    parse_graph_json,
    path_graph,
    pseudotree_profile,
)
from pmsp import graph as graph_module
from pmsp.errors import NotBiconnectedError
from pmsp.graph import classify_block, cut_vertex_mask

from .conftest import FIXTURES, fixture_graphs, three_block_graph
from .reference import affine_rank


def random_graph_strategy(max_n: int = 8):
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_n))
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
        return Graph(n, tuple(chosen))

    return st.composite(lambda draw: build(draw))()


def seeded_graphs(count: int = 120, max_n: int = 12) -> list[Graph]:
    """Random G(n, p) graphs from a fixed seed, disconnected ones included."""
    rng = random.Random(20241)
    graphs = []
    for _ in range(count):
        n = rng.randint(1, max_n)
        p = rng.choice((0.15, 0.3, 0.5))
        edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < p]
        graphs.append(Graph(n, edges))
    return graphs


def to_networkx(g: Graph) -> nx.Graph:
    nxg = nx.Graph(g.edges)
    nxg.add_nodes_from(g.vertices())
    return nxg


class TestParsing:
    def test_edge_list(self):
        g = parse_graph("1 2\n2 3\n\n# comment\n3 1\n")
        assert g.n == 3
        assert g.edges == ((1, 2), (1, 3), (2, 3))

    def test_json_round_trip(self):
        g = cycle_graph(5)
        again = parse_graph_json(json.dumps(g.to_json()))
        assert again == g

    def test_fixture_file(self):
        g = parse_graph((FIXTURES / "c4.edges").read_text())
        assert g == cycle_graph(4)

    def test_isolated_vertex_via_json(self):
        g = parse_graph_json('{"n": 3, "edges": [[1, 2]]}')
        assert g.n == 3
        assert g.degree(3) == 0

    def test_rejects_self_loop(self):
        with pytest.raises(SelfLoopError):
            parse_graph("1 1\n")

    def test_rejects_garbage(self):
        with pytest.raises(GraphParseError):
            parse_graph("1 2 3\n")

    def test_rejects_bad_json(self):
        with pytest.raises(GraphParseError):
            parse_graph_json('{"edges": [[1, 2]]}')

    def test_duplicate_edges_collapse(self):
        g = parse_graph("1 2\n2 1\n1 2\n")
        assert g.edge_count == 1

    @pytest.mark.parametrize("n", [True, 3.0, 2.7, "3"])
    def test_rejects_non_integer_vertex_count(self, n):
        with pytest.raises(GraphParseError, match="vertex count must be an integer"):
            Graph(n, [])

    def test_numpy_vertex_count_becomes_int(self):
        g = Graph(np.int64(3), [(1, 2)])
        assert g.to_json() == {"n": 3, "edges": [[1, 2]]}
        assert type(g.n) is int

    def test_numpy_edge_labels_become_int(self):
        g = Graph(3, [(np.int64(1), np.int32(2))])
        assert json.dumps(g.to_json()) == '{"n": 3, "edges": [[1, 2]]}'
        assert all(type(v) is int for v in g.edges[0])

    @pytest.mark.parametrize(
        "edge, message",
        [
            ((True, 2), "non-integer label"),
            ((1.0, 2), "non-integer label"),
            (("1", 2), "non-integer label"),
            ((1, None), "non-integer label"),
            ((1, 2, 3), "not a pair"),
            ((1,), "not a pair"),
            (5, "not a pair"),
            ("12", "not a pair"),
            (b"12", "not a pair"),
        ],
    )
    def test_rejects_bad_edge_labels(self, edge, message):
        with pytest.raises(GraphParseError, match=message):
            Graph(3, [edge])


class TestVertexSet:
    def test_members_sorted(self):
        s = VertexSet.from_vertices([3, 1], 4)
        assert s.members() == (1, 3)
        assert len(s) == 2
        assert 3 in s and 2 not in s


class TestConnectivity:
    def test_components(self):
        g = Graph(5, ((1, 2), (3, 4)))
        comps = [c.members() for c in connected_components(g)]
        assert comps == [(1, 2), (3, 4), (5,)]
        assert not is_connected(g)

    def test_single_vertex_connected(self):
        assert is_connected(Graph(1, ()))


class TestBipartition:
    def test_even_cycle(self):
        v1, v2 = bipartition(cycle_graph(6))
        assert v1.members() == (1, 3, 5)
        assert v2.members() == (2, 4, 6)

    def test_odd_cycle_returns_none(self):
        assert bipartition(cycle_graph(5)) is None

    @given(st.integers(min_value=3, max_value=9))
    def test_cycle_parity(self, n):
        assert (bipartition(cycle_graph(n)) is not None) == (n % 2 == 0)

    @seed(20240)
    @settings(max_examples=80, deadline=None)
    @given(random_graph_strategy())
    def test_two_coloring_and_dimension(self, g):
        sides = bipartition(g)
        nxg = nx.Graph(g.edges)
        nxg.add_nodes_from(g.vertices())
        assert (sides is not None) == nx.is_bipartite(nxg)
        if sides is not None:
            v1, v2 = sides
            assert v1.mask | v2.mask == g.full_mask and not v1.mask & v2.mask
            assert all((u in v1) != (v in v1) for u, v in g.edges)
            assert all(min(c) in v1 for c in connected_components(g))
        assert dimension(g) == affine_rank(lattice_points(g).points)


class TestBlocks:
    def test_path_blocks_are_edges(self):
        decomp = blocks_and_cut_vertices(path_graph(4))
        assert sorted(decomp.blocks) == [((1, 2),), ((2, 3),), ((3, 4),)]
        assert decomp.cut_vertices.members() == (2, 3)

    def test_cycle_is_one_block(self):
        decomp = blocks_and_cut_vertices(cycle_graph(5))
        assert len(decomp.blocks) == 1
        assert len(decomp.cut_vertices) == 0

    def test_three_block_graph(self):
        decomp = blocks_and_cut_vertices(three_block_graph())
        kinds = sorted(str(k) for k in decomp.block_kinds)
        assert kinds == ["CompleteBipartite(2,3)", "CompleteBipartite(3,3)", "K4"]
        assert decomp.cut_vertices.members() == (1, 4)

    def test_blocks_partition_edges(self, connected_7):
        for g in connected_7[:300]:
            decomp = blocks_and_cut_vertices(g)
            seen = sorted(e for block in decomp.blocks for e in block)
            assert seen == sorted(g.edges)

    def test_classify_single_edge(self):
        assert str(classify_block(complete_graph(2))) == "CompleteBipartite(1,1)"

    def test_classify_triangle_is_k11q(self):
        assert str(classify_block(complete_graph(3))) == "K11n(1)"

    def test_classify_k4(self):
        assert classify_block(complete_graph(4)).name == "K4"

    def test_classify_k11q(self):
        g = complete_multipartite_graph(1, 1, 3)
        kind = classify_block(g)
        assert kind.name == "K11n" and kind.params == (3,)

    def test_classify_other(self):
        assert classify_block(cycle_graph(5)).name == "Other"

    def test_cut_vertex_mask_star(self):
        g = complete_bipartite_graph(1, 4)
        assert cut_vertex_mask(g) == 1  # vertex v maps to bit v - 1

    def test_one_block_scan_per_graph(self, monkeypatch):
        """The bipartite decider's degree hypothesis and the bound-row flags
        of its inequality system read one cut mask, kept with the graph."""
        scans = []
        scan = graph_module._block_scan
        monkeypatch.setattr(graph_module, "_block_scan", lambda g: scans.append(g) or scan(g))
        g = complete_bipartite_graph(3, 3)
        assert gorenstein_bipartite(g).method == "neighborhood-surplus"
        assert cut_vertex_mask(g) == 0
        assert scans == [g]

    def test_classify_rejects_non_blocks(self):
        for g in (Graph(1, ()), Graph(2, ()), path_graph(3), Graph(4, ((1, 2), (2, 3), (1, 3)))):
            with pytest.raises(NotBiconnectedError):
                classify_block(g)

    def test_blocks_and_cut_vertices_match_networkx(self, connected_7):
        for g in connected_7 + fixture_graphs() + seeded_graphs():
            nxg = to_networkx(g)
            expected = sorted(
                tuple(sorted((min(e), max(e)) for e in block))
                for block in nx.biconnected_component_edges(nxg)
            )
            decomp = blocks_and_cut_vertices(g)
            assert list(decomp.blocks) == expected, g.edges
            cuts = sorted(nx.articulation_points(nxg))
            assert decomp.cut_vertices.members() == tuple(cuts), g.edges
            assert cut_vertex_mask(g) == decomp.cut_vertices.mask

    def test_block_kinds_match_the_induced_blocks(self, connected_7):
        for g in connected_7 + fixture_graphs() + seeded_graphs():
            decomp = blocks_and_cut_vertices(g)
            for block, kind in zip(decomp.blocks, decomp.block_kinds):
                verts = VertexSet.from_vertices({v for e in block for v in e}, g.n)
                assert kind == classify_block(induced_subgraph(g, verts)), block

    def test_one_scan_and_no_graph_built(self, monkeypatch):
        scans = []
        real_scan = graph_module._block_scan
        monkeypatch.setattr(graph_module, "_block_scan", lambda g: scans.append(g) or real_scan(g))
        built = []
        real_init = Graph.__init__

        def counting_init(self, n, edges):
            built.append(n)
            real_init(self, n, edges)

        g = three_block_graph()
        monkeypatch.setattr(Graph, "__init__", counting_init)
        decomp = blocks_and_cut_vertices(g)
        assert len(decomp.blocks) == 3
        assert len(scans) == 1
        assert built == []


class TestInducedSubgraph:
    def test_relabels_in_order(self):
        g = cycle_graph(5)
        sub = induced_subgraph(g, VertexSet.from_vertices([2, 3, 5], 5))
        # old 2,3,5 become 1,2,3; only the 2-3 edge survives
        assert sub.n == 3
        assert sub.edges == ((1, 2),)


class TestFamilies:
    def test_pseudotree_profile_of_tree(self):
        assert pseudotree_profile(path_graph(5)) == VertexSet(0, 5)
        assert pseudotree_profile(Graph(1, ())) == VertexSet(0, 1)

    def test_pseudotree_profile_of_cycle(self):
        assert pseudotree_profile(cycle_graph(6)).members() == (1, 2, 3, 4, 5, 6)

    def test_pseudotree_profile_cycle_order(self):
        g = Graph(5, ((1, 2), (2, 3), (3, 1), (3, 4), (4, 5)))
        assert pseudotree_profile(g).members() == (1, 2, 3)

    def test_too_many_edges_not_pseudotree(self):
        assert pseudotree_profile(complete_graph(4)) is None

    def test_pseudotree_cycle_matches_networkx(self, pseudotrees_9):
        for g in pseudotrees_9:
            basis = nx.cycle_basis(to_networkx(g))
            cycle = pseudotree_profile(g)
            assert [sorted(c) for c in basis] == ([list(cycle)] if len(cycle) else []), g.edges


class TestBuilders:
    def test_complete_multipartite_builder(self):
        g = complete_multipartite_graph(2, 2)
        assert g == complete_bipartite_graph(2, 2)

    def test_degree_sum_is_twice_edges(self, connected_7):
        for g in connected_7[:200]:
            assert sum(g.degree(v) for v in g.vertices()) == 2 * g.edge_count

    @settings(max_examples=60)
    @given(random_graph_strategy())
    def test_components_partition_vertices(self, g):
        comps = connected_components(g)
        seen = sorted(v for c in comps for v in c.members())
        assert seen == list(g.vertices())
