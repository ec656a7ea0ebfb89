"""Structural deciders: compressedness, Gorensteinness, odd cycle condition."""

import json
import random
from collections import Counter
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from pmsp import (
    Graph,
    UnsupportedShapeError,
    VertexSet,
    bipartition,
    classify_all,
    complete_bipartite_graph,
    complete_graph,
    complete_multipartite_graph,
    complete_multipartite_shape,
    compressed_by_theorem,
    cycle_graph,
    gorenstein_bipartite,
    gorenstein_complete_multipartite,
    gorenstein_decide,
    gorenstein_geometric,
    gorenstein_pseudotree,
    idp_check,
    induced_subgraph,
    odd_cycle_condition,
    path_graph,
    solve_interior_vector,
)
from pmsp.cli import main
from pmsp.graph import connected_components, mask_is_connected, mask_vertices
from pmsp.polytope import DILATE_VERTEX_LIMIT

from . import reference
from .conftest import FIXTURES, decorated_even_cycle, fixture_graphs, three_block_graph

GOLDEN = Path(__file__).parent / "golden"


def _seeded_bipartite(rng: random.Random, n: int, density: float) -> Graph:
    """A random tree on n vertices plus each missing edge between its color
    classes with probability `density`: connected and bipartite."""
    edges = {(rng.randint(1, v - 1), v) for v in range(2, n + 1)}
    side = {1: 0}
    for u, v in sorted(edges, key=lambda e: e[1]):
        side[v] = 1 - side[u]
    for u, v in combinations(range(1, n + 1), 2):
        if side[u] != side[v] and rng.random() < density:
            edges.add((u, v))
    return Graph(n, tuple(sorted(edges)))


class TestCompressed:
    def test_complete_bipartite_blocks_always_pass(self):
        assert compressed_by_theorem(path_graph(6)).value
        assert compressed_by_theorem(complete_bipartite_graph(3, 4)).value

    def test_one_exceptional_block_allowed(self):
        assert compressed_by_theorem(complete_graph(4)).value
        assert compressed_by_theorem(complete_multipartite_graph(1, 1, 5)).value
        assert compressed_by_theorem(three_block_graph()).value

    def test_two_exceptional_blocks_rejected(self):
        # two K4 blocks joined at a cut vertex
        edges = [(u, v) for u in range(1, 5) for v in range(u + 1, 5)]
        edges += [(u, v) for u in range(4, 8) for v in range(u + 1, 8)]
        g = Graph(7, tuple(edges))
        verdict = compressed_by_theorem(g)
        assert not verdict.value
        assert verdict.witness["reason"] == "two-exceptional-blocks"

    def test_forbidden_block(self):
        verdict = compressed_by_theorem(cycle_graph(5))
        assert not verdict.value
        assert verdict.witness["reason"] == "forbidden-block"

    def test_disconnected_componentwise(self):
        g = Graph(9, tuple(
            [(u, v) for u in range(1, 5) for v in range(u + 1, 5)]
            + [(u + 4, v + 4) for u in range(1, 5) for v in range(u + 1, 5) if u != v]
        ))
        # two disjoint K4s: each component is fine on its own
        assert compressed_by_theorem(g).value

    def test_k5_not_compressed(self):
        assert not compressed_by_theorem(complete_graph(5)).value


class TestGorensteinBipartite:
    def test_k33_true_with_unit_vector(self):
        verdict = gorenstein_bipartite(complete_bipartite_graph(3, 3))
        assert verdict.value
        assert verdict.certificate.index == 2
        assert verdict.certificate.interior_point_ambient == (1,) * 6

    def test_k23_no_perfect_matching(self):
        g = complete_bipartite_graph(2, 3)
        verdict = gorenstein_bipartite(g)
        assert not verdict.value
        assert verdict.witness == {"reason": "no-perfect-matching"}
        # the answer comes before the row system is built
        assert g._tables is None or g._tables.system is None

    def test_surplus_violation_witnessed(self):
        # has the matching 1-4, 2-5, 3-6 but vertex 5 sees only vertex 2,
        # so the neighborhood-surplus condition fails at the subset {5}
        g = Graph(6, ((1, 2), (1, 3), (1, 4), (2, 5), (2, 6), (3, 6)))
        verdict = gorenstein_bipartite(g)
        assert not verdict.value
        assert verdict.witness == {"subset": [5], "neighborhood": [2]}

    def test_c8_true(self):
        verdict = gorenstein_bipartite(cycle_graph(8))
        assert verdict.value
        assert verdict.certificate.index == 2

    def test_star_falls_back_to_interior_vector(self):
        # every internal vertex of a star is a cut vertex, so the degree
        # hypothesis fails and the linear system takes over
        verdict = gorenstein_bipartite(complete_bipartite_graph(1, 3))
        assert not verdict.hypothesis_ok
        assert verdict.value
        assert verdict.certificate.index == 4

    def test_interior_vector_path(self):
        cert = solve_interior_vector(path_graph(4))
        assert cert is not None
        assert cert.index == 3
        assert cert.interior_point_ambient == (1, 2, 2, 1)

    def test_agrees_with_geometric(self, bipartite_8):
        for g in bipartite_8[:120]:
            verdict = gorenstein_bipartite(g)
            cert = gorenstein_geometric(g)
            assert verdict.value == (cert is not None)
            if verdict.value and verdict.certificate is not None:
                assert verdict.certificate.index == cert.index

    def test_matches_the_per_subset_reference(self, bipartite_8):
        """Both deciders give the verdicts and certificates of the loops over
        the color-class subsets, on the corpus and on seeded graphs up to 16
        vertices, trees (the interior-vector route) and stars included."""
        graphs = list(bipartite_8) + [complete_bipartite_graph(1, k) for k in range(1, 8)]
        rng = random.Random(13)
        for n in range(4, 17):
            for density in (0.0, 0.0, 0.15, 0.3, 0.5, 0.8):
                graphs.append(_seeded_bipartite(rng, n, density))
        routes = set()
        for g in graphs:
            verdict = gorenstein_bipartite(g)
            assert verdict.to_json() == reference.gorenstein_bipartite(g).to_json(), g
            assert solve_interior_vector(g) == reference.solve_interior_vector(g), g
            routes.add((verdict.method, verdict.value))
        assert routes == {
            ("neighborhood-surplus", True),
            ("neighborhood-surplus", False),
            ("interior-vector-system", True),
            ("interior-vector-system", False),
        }

    def test_classify_scans_the_color_class_once(self, monkeypatch):
        """K_{3,3} takes the neighborhood-surplus route and has its dilate
        checks; both read the one row system, so the subsets of the first
        color class are enumerated once."""
        import pmsp.graph
        import pmsp.matchable
        import pmsp.polytope

        scans = Counter()

        def counted(enumerate_submasks):
            def wrapper(mask):
                scans[mask] += 1
                return enumerate_submasks(mask)

            return wrapper

        for module in (pmsp.graph, pmsp.matchable, pmsp.polytope):
            monkeypatch.setattr(
                module, "proper_nonempty_submasks", counted(module.proper_nonempty_submasks)
            )
        g = complete_bipartite_graph(3, 3)
        report = classify_all(g)
        assert report.components[0].gorenstein.method == "neighborhood-surplus"
        assert report.components[0].dilate_checks
        assert scans == {bipartition(g)[0].mask: 1}


class TestGorensteinPseudotree:
    def test_single_vertex_and_edge(self):
        assert gorenstein_pseudotree(Graph(1, ())).value
        assert gorenstein_pseudotree(complete_graph(2)).value

    def test_bidegreed_trees(self):
        assert gorenstein_pseudotree(path_graph(5)).value
        # two degree-3 centers, four leaves: degrees take exactly two values
        double_star = Graph(6, ((1, 2), (1, 3), (1, 4), (2, 5), (2, 6)))
        verdict = gorenstein_pseudotree(double_star)
        assert verdict.value
        assert verdict.certificate.index == 4

    def test_three_degree_tree_fails(self):
        # degrees 1, 2, 3: a path with one extra leaf in the middle
        g = Graph(5, ((1, 2), (2, 3), (3, 4), (2, 5)))
        verdict = gorenstein_pseudotree(g)
        assert not verdict.value
        assert verdict.witness["reason"] == "tree-degrees-not-two-valued"

    def test_five_cycle(self):
        assert gorenstein_pseudotree(cycle_graph(5)).value

    def test_five_cycle_with_attachment_fails(self):
        g = Graph(6, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (1, 6)))
        verdict = gorenstein_pseudotree(g)
        assert not verdict.value

    def test_seven_cycle_fails(self):
        assert not gorenstein_pseudotree(cycle_graph(7)).value

    def test_triangle_cases(self):
        assert gorenstein_pseudotree(cycle_graph(3)).value
        # triangle with one pendant path of length 2: cycle degrees 2,2,3
        g = Graph(5, ((1, 2), (2, 3), (3, 1), (1, 4), (4, 5)))
        assert not gorenstein_pseudotree(g).value
        # triangle where one vertex carries two pendant edges: degree 4
        g2 = Graph(5, ((1, 2), (2, 3), (3, 1), (1, 4), (1, 5)))
        assert not gorenstein_pseudotree(g2).value

    def test_even_cycle_uniform(self):
        assert gorenstein_pseudotree(cycle_graph(6)).value
        verdict = gorenstein_pseudotree(decorated_even_cycle())
        assert verdict.value
        assert verdict.certificate.index == 4

    def test_c4_pendant_fails(self):
        g = Graph(5, ((1, 2), (2, 3), (3, 4), (4, 1), (4, 5)))
        verdict = gorenstein_pseudotree(g)
        assert not verdict.value
        assert verdict.witness["reason"] == "cycle-degrees-not-uniform"

    def test_agrees_with_geometric(self, pseudotrees_9):
        for g in pseudotrees_9:
            if g.n > 8:
                continue
            verdict = gorenstein_pseudotree(g)
            cert = gorenstein_geometric(g)
            assert verdict.value == (cert is not None), g.edges


class TestMultipartite:
    def test_shape_detection(self):
        assert complete_multipartite_shape(complete_graph(4)) == (1, 1, 1, 1)
        assert complete_multipartite_shape(complete_bipartite_graph(2, 3)) == (2, 3)
        assert complete_multipartite_shape(complete_multipartite_graph(1, 1, 4)) == (1, 1, 4)
        assert complete_multipartite_shape(Graph(1, ())) == (1,)
        assert complete_multipartite_shape(cycle_graph(5)) is None
        assert complete_multipartite_shape(path_graph(4)) is None

    def test_complete_graphs(self):
        for n in range(1, 5):
            assert gorenstein_complete_multipartite((1,) * n).value
        assert not gorenstein_complete_multipartite((1,) * 5).value
        assert not gorenstein_complete_multipartite((1,) * 6).value

    def test_complete_bipartite(self):
        assert gorenstein_complete_multipartite((1, 5)).value
        assert gorenstein_complete_multipartite((3, 3)).value
        assert not gorenstein_complete_multipartite((2, 3)).value

    def test_two_apex(self):
        assert gorenstein_complete_multipartite((1, 1, 2)).value
        assert not gorenstein_complete_multipartite((1, 1, 3)).value

    def test_unsupported_shape(self):
        with pytest.raises(UnsupportedShapeError):
            gorenstein_complete_multipartite((2, 2, 2))

    @pytest.mark.parametrize("shape", [[2.7, True], [1, 2.0], [np.bool_(True), 2], ["1", 2]])
    def test_rejects_non_integer_sizes(self, shape):
        with pytest.raises(ValueError, match="part sizes must be integers"):
            gorenstein_complete_multipartite(shape)

    def test_numpy_sizes_accepted(self):
        verdict = gorenstein_complete_multipartite(np.array([3, 3]))
        assert verdict.value and verdict.witness["shape"] == [3, 3]


class TestOddCycleCondition:
    def test_small_graphs_pass(self):
        assert odd_cycle_condition(cycle_graph(5)).value
        assert odd_cycle_condition(complete_graph(6)).value

    def test_two_bridged_triangles_pass(self):
        g = Graph(6, ((1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4), (1, 4)))
        assert odd_cycle_condition(g).value

    def test_two_unbridged_triangles_fail(self):
        g = Graph(7, ((1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4), (3, 7), (7, 4)))
        verdict = odd_cycle_condition(g)
        assert not verdict.value
        assert verdict.witness["cycles"] == [[1, 2, 3], [4, 5, 6]]

    def test_different_components_ignored(self):
        g = Graph(6, ((1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4)))
        assert odd_cycle_condition(g).value

    def test_matches_the_loop_over_all_masks(self, connected_7):
        """Verdict and witness equal those of a loop over all 2^n masks
        that keeps the connected odd masks whose every vertex has two
        neighbors in the mask."""
        rng = random.Random(5)
        seeded = []
        for n in range(3, 11):
            pairs = list(combinations(range(1, n + 1), 2))
            for m in (n - 1, n + 2, 2 * n):
                seeded.append(Graph(n, rng.sample(pairs, min(m, len(pairs)))))
        assert any(len(connected_components(g)) > 1 for g in seeded)
        failures = 0
        for g in connected_7 + seeded:
            verdict = odd_cycle_condition(g)
            value, witness = _odd_cycle_reference(g)
            assert (verdict.value, verdict.witness) == (value, witness), g.edges
            failures += not value
        assert failures >= 5


def _odd_cycle_reference(g: Graph):
    """(value, witness) of the odd cycle condition by a loop over all masks."""
    adj = g.adj_masks
    cycles = []
    for mask in range(1, 1 << g.n):
        k = mask.bit_count()
        if k < 3 or k % 2 == 0:
            continue
        if all((adj[v] & mask).bit_count() == 2 for v in mask_vertices(mask)):
            if mask_is_connected(adj, mask):
                cycles.append(mask)
    comp_id = {v: i for i, comp in enumerate(connected_components(g)) for v in comp}
    for i, a in enumerate(cycles):
        for b in cycles[i + 1 :]:
            if a & b or comp_id[(a & -a).bit_length()] != comp_id[(b & -b).bit_length()]:
                continue
            if not any(adj[v] & b for v in mask_vertices(a)):
                return False, {"cycles": [list(mask_vertices(a)), list(mask_vertices(b))]}
    return True, None


class TestDispatcher:
    def test_routes(self):
        assert gorenstein_decide(Graph(1, ())).method == "single-vertex"
        assert gorenstein_decide(path_graph(4)).method == "pseudotree-degree-cases"
        assert gorenstein_decide(complete_bipartite_graph(3, 3)).method == "neighborhood-surplus"
        assert gorenstein_decide(complete_graph(4)).method == "complete-multipartite-table"

    def test_geometric_fallback_has_caveat(self):
        # K4 plus one pendant edge: not a pseudotree, not bipartite, not
        # complete multipartite
        g = Graph(5, ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (4, 5)))
        verdict = gorenstein_decide(g)
        assert verdict.method == "geometric"
        assert verdict.caveat is not None

    def test_agrees_with_geometric_small(self, connected_7):
        for g in connected_7[:150]:
            verdict = gorenstein_decide(g)
            cert = gorenstein_geometric(g)
            assert verdict.value == (cert is not None), g.edges


class TestClassifyAll:
    def test_disconnected_report(self):
        g = Graph(7, ((1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 7), (7, 4)))
        report = classify_all(g)
        assert report.vertex_count == 7
        assert len(report.components) == 2
        assert report.compressed  # triangle and C4 are both fine
        assert report.gorenstein
        assert [c.vertices for c in report.components] == [(1, 2, 3), (4, 5, 6, 7)]

    def test_product_structure(self):
        g = Graph(9, ((1, 2), (2, 3), (3, 1), (4, 5), (6, 7), (7, 8), (8, 9), (6, 9)))
        report = classify_all(g)
        assert report.vertex_count == 9
        dims = [c.dimension for c in report.components]
        counts = [c.point_count for c in report.components]
        assert dims == [3, 1, 3]
        assert counts == [4, 2, 6]

    def test_dilate_checks_present_when_small(self):
        report = classify_all(cycle_graph(4))
        modes = [(c.k, c.mode) for c in report.components[0].dilate_checks]
        assert modes == [(2, "normality"), (2, "idp")]


class TestSharedDilateEnumeration:
    """classify_all derives both k = 2 dilate checks of a component from one
    enumeration of its dilate."""

    TRIANGLE_AND_C4 = Graph(7, ((1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (6, 7), (4, 7)))
    # P11 on 1..11 (over DILATE_VERTEX_LIMIT) and a triangle on 12..14
    P11_AND_TRIANGLE = Graph(
        14, tuple((v, v + 1) for v in range(1, 11)) + ((12, 13), (13, 14), (12, 14))
    )

    @pytest.mark.parametrize(
        "g, sizes",
        [(cycle_graph(7), [7]), (TRIANGLE_AND_C4, [3, 4]), (P11_AND_TRIANGLE, [3])],
        ids=["C7", "triangle+C4", "P11+triangle"],
    )
    def test_one_enumeration_per_small_component(self, monkeypatch, g, sizes):
        import pmsp.polytope as polytope

        enumerated = []
        original = polytope._dilate_codes

        def counted(normals, bound, n, k):
            enumerated.append(n)
            return original(normals, bound, n, k)

        monkeypatch.setattr(polytope, "_dilate_codes", counted)
        report = classify_all(g)
        assert enumerated == sizes
        assert [len(c.vertices) for c in report.components if c.dilate_checks] == sizes
        assert all(len(c.vertices) > DILATE_VERTEX_LIMIT
                   for c in report.components if not c.dilate_checks)

    def test_matches_one_mode_checks(self, connected_7):
        small = [g for g in fixture_graphs() if g.n <= DILATE_VERTEX_LIMIT]
        assert len(small) == 6
        for g in connected_7 + small:
            for comp in classify_all(g).components:
                sub = induced_subgraph(g, VertexSet.from_vertices(comp.vertices, g.n))
                expected = [idp_check(sub, 2, mode).to_json() for mode in ("normality", "idp")]
                assert [c.to_json() for c in comp.dilate_checks] == expected, g.edges

    def test_classify_text_unchanged(self, capsys):
        golden = json.loads((GOLDEN / "classify_text.json").read_text())
        fixtures = sorted(FIXTURES.iterdir())
        assert [f.name for f in fixtures] == sorted(golden)
        for path in fixtures:
            assert main(["classify", "--format", "text", "--input", str(path)]) == 0
            assert capsys.readouterr().out == golden[path.name], path.name
