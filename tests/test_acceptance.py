"""Acceptance gate: the headline guarantees, each as one test.

Every check is exact (integer arithmetic throughout); the few runtime
assertions use the documented single-threaded targets.
"""

import time

from pmsp import (
    Graph,
    complete_bipartite_graph,
    complete_graph,
    complete_multipartite_graph,
    compressed_by_theorem,
    cycle_graph,
    dimension,
    gorenstein_bipartite,
    gorenstein_complete_multipartite,
    gorenstein_decide,
    gorenstein_geometric,
    gorenstein_pseudotree,
    idp_check,
    matchable_subsets,
    path_graph,
    sullivant_compressed,
    verify_facet_flags,
)
from pmsp.cli import main

from .conftest import FIXTURES, decorated_even_cycle, fixture_graphs, three_block_graph


def test_c4_fixture_end_to_end():
    started = time.perf_counter()
    g = cycle_graph(4)
    assert matchable_subsets(g).as_lists() == [
        [], [1, 2], [2, 3], [1, 4], [3, 4], [1, 2, 3, 4],
    ]
    assert dimension(g) == 3
    assert compressed_by_theorem(g).value
    ok, witness = sullivant_compressed(g)
    assert ok and witness is None
    verdict = gorenstein_decide(g)
    assert verdict.value
    assert verdict.certificate.index == 2
    cert = gorenstein_geometric(g)
    assert cert is not None and cert.index == 2
    assert time.perf_counter() - started < 0.1


def test_odd_cycles_not_compressed_with_full_level_set():
    started = time.perf_counter()
    for half in (2, 3):
        n = 2 * half + 1
        g = cycle_graph(n)
        ok, witness = sullivant_compressed(g)
        assert not ok
        assert witness["source"] == "OddSet(" + ",".join(map(str, range(1, n + 1))) + ")"
        assert witness["values"] == list(range(0, 2 * half + 1, 2))
        assert not compressed_by_theorem(g).value
    assert time.perf_counter() - started < 1.0


def test_compressed_theorem_agrees_with_level_count_oracle(connected_7):
    started = time.perf_counter()
    disagreements = []
    for g in connected_7:
        by_theorem = compressed_by_theorem(g).value
        by_oracle, _ = sullivant_compressed(g)
        if by_theorem != by_oracle:
            disagreements.append((g.edges, by_theorem, by_oracle))
    assert disagreements == []
    assert time.perf_counter() - started < 600


def test_bipartite_gorenstein_agrees_with_geometry(bipartite_8):
    started = time.perf_counter()
    for g in bipartite_8:
        verdict = gorenstein_bipartite(g)
        cert = gorenstein_geometric(g)
        assert verdict.value == (cert is not None), g.edges
        if verdict.value and verdict.certificate is not None:
            assert verdict.certificate.index == cert.index, g.edges
            assert verdict.certificate.interior_point_ambient == cert.interior_point_ambient, g.edges
    assert time.perf_counter() - started < 600


def test_pseudotree_gorenstein_agrees_with_geometry(pseudotrees_9):
    for g in pseudotrees_9:
        verdict = gorenstein_pseudotree(g)
        cert = gorenstein_geometric(g)
        assert verdict.value == (cert is not None), g.edges
        if verdict.certificate is not None and cert is not None:
            assert verdict.certificate.index == cert.index, g.edges
    # spot checks called out explicitly
    assert gorenstein_pseudotree(cycle_graph(5)).value
    assert gorenstein_pseudotree(path_graph(6)).value
    double_star = Graph(6, ((1, 2), (1, 3), (1, 4), (2, 5), (2, 6)))
    assert gorenstein_pseudotree(double_star).value
    for tail in (1, 2, 3):
        edges = [(1, 2), (2, 3), (3, 4), (4, 1)]
        edges += [(4 + i, 5 + i) for i in range(tail)]
        g = Graph(4 + tail, tuple(edges))
        assert not gorenstein_pseudotree(g).value, tail
        assert gorenstein_geometric(g) is None, tail


def test_complete_multipartite_table():
    # complete bipartite: Gorenstein iff one side is a single vertex or both
    # sides match
    for p in range(1, 8):
        for q in range(p, 9 - p):
            expected = p == 1 or p == q
            structural = gorenstein_complete_multipartite((p, q)).value
            assert structural == expected, (p, q)
            geometric = gorenstein_geometric(complete_bipartite_graph(p, q))
            assert (geometric is not None) == expected, (p, q)
    # two singleton parts plus one large part: Gorenstein iff the large part
    # has at most two vertices
    for q in range(1, 6):
        expected = q <= 2
        structural = gorenstein_complete_multipartite((1, 1, q)).value
        assert structural == expected, q
        geometric = gorenstein_geometric(complete_multipartite_graph(1, 1, q))
        assert (geometric is not None) == expected, q
    # complete graphs: Gorenstein iff at most four vertices
    for n in range(1, 7):
        expected = n <= 4
        structural = gorenstein_complete_multipartite((1,) * n).value
        assert structural == expected, n
        geometric = gorenstein_geometric(complete_graph(n))
        assert (geometric is not None) == expected, n


def test_figure_fixtures():
    blocks = three_block_graph()
    assert compressed_by_theorem(blocks).value

    decorated = decorated_even_cycle()
    verdict = gorenstein_pseudotree(decorated)
    assert verdict.value
    assert verdict.certificate.index == 4
    expected_alpha = tuple(
        1 if decorated.degree(v) == 1 else 3 for v in decorated.vertices()
    )
    assert verdict.certificate.interior_point_ambient == expected_alpha


def test_dilate_decompositions(connected_7, bipartite_8, pseudotrees_9):
    for g in bipartite_8:
        for k in (2, 3):
            assert idp_check(g, k, mode="idp").ok, (g.edges, k)
    for g in pseudotrees_9:
        for k in (2, 3):
            assert idp_check(g, k, mode="normality").ok, (g.edges, k)
    for g in connected_7:
        if compressed_by_theorem(g).value:
            for k in (2, 3):
                assert idp_check(g, k, mode="normality").ok, (g.edges, k)


def test_facet_flags_match_geometry(connected_7, bipartite_8, pseudotrees_9):
    """The Gorenstein search trusts the criterion facet flags; this checks
    them against exact active-set ranks on every corpus the search meets."""
    for g in [*connected_7, *bipartite_8, *pseudotrees_9, *fixture_graphs()]:
        report = verify_facet_flags(g)
        assert report.ok, (g.edges, report.disagreements)


def test_cli_determinism(capsys):
    fixtures = sorted(FIXTURES.iterdir())
    assert len(fixtures) >= 9
    verbs = [
        ("points",),
        ("facets",),
        ("dim",),
        ("matchable",),
        ("check-compressed",),
        ("check-gorenstein",),
        ("check-normal",),
        ("classify",),
    ]
    for fixture in fixtures:
        for verb in verbs:
            for fmt in ("json", "text"):
                argv = [verb[0], "--input", str(fixture), "--format", fmt, *verb[1:]]
                runs = []
                for _ in range(2):
                    code = main(list(argv))
                    captured = capsys.readouterr()
                    runs.append((code, captured.out.encode(), captured.err.encode()))
                assert runs[0] == runs[1], argv
    sweep = ["sweep", "--max-n", "5", "--family", "bipartite"]
    runs = []
    for _ in range(2):
        code = main(list(sweep))
        captured = capsys.readouterr()
        runs.append((code, captured.out.encode()))
    assert runs[0] == runs[1]
    assert runs[0][0] == 0
