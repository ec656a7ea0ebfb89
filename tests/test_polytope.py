"""Lattice points, inequality systems, normalization, and dilate checks."""

import random
from collections import Counter
from itertools import combinations, product

import numpy as np
import pytest

from pmsp import (
    CorpusSpec,
    DegeneratePointSetError,
    DilateCheck,
    DisconnectedError,
    Graph,
    NotAFacetError,
    TooLargeError,
    bipartite_projection,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    dimension,
    facet_levels,
    generate_corpus,
    gorenstein_geometric,
    idp_check,
    inequality_system,
    lattice_points,
    matchable_subsets,
    membership,
    normalize_lattice,
    path_graph,
    verify_facet_flags,
)
from pmsp.graph import bipartition, is_connected, parse_graph
from pmsp.intlattice import affine_rank, dot
from pmsp.polytope import (
    INT64_SAFE,
    AffineLattice,
    _dilate_codes,
    _lattice_codes,
    _point_matrix,
    _row_values,
    _transport_flagged,
    facet_scan,
)

from .conftest import FIXTURES


class TestLatticePoints:
    def test_c4_points(self):
        pts = lattice_points(cycle_graph(4))
        assert pts.points == (
            (0, 0, 0, 0),
            (1, 1, 0, 0),
            (0, 1, 1, 0),
            (1, 0, 0, 1),
            (0, 0, 1, 1),
            (1, 1, 1, 1),
        )

    def test_points_match_family(self, connected_7):
        for g in connected_7[:80]:
            fam = matchable_subsets(g)
            pts = lattice_points(g)
            assert len(pts.points) == len(fam)

    def test_origin_always_present(self, connected_7):
        for g in connected_7[:80]:
            assert (0,) * g.n in lattice_points(g).points


class TestDimension:
    def test_known_values(self):
        assert dimension(Graph(1, ())) == 0
        assert dimension(complete_graph(2)) == 1
        assert dimension(path_graph(3)) == 2
        assert dimension(cycle_graph(4)) == 3
        assert dimension(cycle_graph(5)) == 5
        assert dimension(complete_graph(4)) == 4

    def test_disconnected_additivity(self):
        g = Graph(7, ((1, 2), (2, 3), (4, 5), (5, 6), (6, 7), (4, 7)))
        assert dimension(g) == dimension(path_graph(3)) + dimension(cycle_graph(4))

    def test_formula_matches_lattice_rank(self, connected_7):
        for g in connected_7[:150]:
            assert dimension(g) == lattice_points(g).lattice.rank


class TestInequalitySystem:
    def test_all_points_satisfy_system(self, connected_7):
        for g in connected_7[:120]:
            pts = lattice_points(g)
            system = inequality_system(g, pts)
            for p in pts.points:
                assert membership(system, p)

    def test_c4_facets(self):
        system = inequality_system(cycle_graph(4))
        by_source = {i.source: i for i in system}
        cut = by_source["BipartiteCut(1)"]
        assert cut.normal == (1, -1, 0, -1)
        assert cut.rhs == 0
        assert cut.facet
        assert not by_source["Balance(upper)"].facet

    def test_nonbipartite_odd_set_row(self):
        g = cycle_graph(5)
        system = inequality_system(g)
        full = next(i for i in system if i.source == "OddSet(1,2,3,4,5)")
        assert full.normal == (1, 1, 1, 1, 1)
        assert full.rhs == 4
        assert full.facet

    def test_rejects_disconnected(self):
        with pytest.raises(DisconnectedError):
            inequality_system(Graph(4, ((1, 2), (3, 4))))

    def test_budget(self):
        with pytest.raises(TooLargeError):
            inequality_system(Graph(21, tuple((i, i + 1) for i in range(1, 21))))

    def test_non_points_violate_system(self, connected_7):
        """The system separates every 0/1 non-member from the polytope."""
        for g in connected_7[:60]:
            pts = lattice_points(g)
            got = set(pts.points)
            system = inequality_system(g, pts)
            for mask in range(1 << g.n):
                cand = tuple(mask >> i & 1 for i in range(g.n))
                if cand not in got:
                    assert not membership(system, cand)


class TestFacetLevels:
    def test_levels_are_nonpositive_with_zero(self):
        g = cycle_graph(6)
        pts = lattice_points(g)
        for ineq in inequality_system(g, pts):
            if not ineq.facet:
                continue
            levels = facet_levels(pts, ineq)
            assert levels[-1] == 0
            assert all(v <= 0 for v in levels)

    def test_odd_cycle_top_row(self):
        g = cycle_graph(5)
        pts = lattice_points(g)
        row = next(i for i in inequality_system(g, pts) if i.source == "OddSet(1,2,3,4,5)")
        assert facet_levels(pts, row) == (-4, -2, 0)

    def test_rejects_non_facet(self):
        g = cycle_graph(4)
        pts = lattice_points(g)
        balance = next(i for i in inequality_system(g, pts) if not i.facet)
        with pytest.raises(NotAFacetError):
            facet_levels(pts, balance)


class TestVerifyFacetFlags:
    def test_zero_disagreements_sample(self, connected_7):
        for g in connected_7[:100]:
            report = verify_facet_flags(g)
            assert report.ok, report.disagreements


def _scan_cases(g):
    """(points, dim, rows, matrix) for the ambient inequality system and for
    its rows transported to each normalization that applies."""
    pts = lattice_points(g)
    system = inequality_system(g, pts)
    yield pts.points, pts.lattice.rank, [(i.normal, i.rhs) for i in system], pts.matrix
    if len(pts.points) < 2:
        return
    norms = [normalize_lattice(pts, system)]
    if bipartition(g) is not None:
        norms.append(bipartite_projection(g, pts, system))
    for norm in norms:
        rows, _, _ = _transport_flagged(system, norm.transform)
        yield norm.points, norm.dim, rows, None


def _fixture_graphs():
    graphs = [parse_graph(f.read_text()) for f in sorted(FIXTURES.glob("*.edges"))]
    return [g for g in graphs if g.n <= 20]


class TestFacetScan:
    def test_matches_full_elimination(self, connected_7):
        """The early stop at dim - 1 and the int64 product change no flag:
        each equals the full affine rank of the tight points, found with
        Python dot products, compared with dim - 1."""
        graphs = [g for g in connected_7 if g.n <= 6] + _fixture_graphs()
        checked = 0
        for g in graphs:
            for points, dim, rows, matrix in _scan_cases(g):
                scan = list(facet_scan(points, dim, rows, matrix))
                assert len(scan) == len(rows)
                for (normal, rhs), (values, facet) in zip(rows, scan):
                    exact = [dot(normal, p) for p in points]
                    assert values.tolist() == exact
                    active = [p for p, v in zip(points, exact) if v == rhs]
                    expected = (
                        0 < len(active) < len(points)
                        and affine_rank(active) == dim - 1
                    )
                    assert facet == expected, (g.edges, normal, rhs)
                    checked += 1
        assert checked > 5000

    def test_point_set_views_agree(self):
        pts = lattice_points(complete_graph(4))
        assert pts.matrix.dtype == np.int64
        assert [tuple(r) for r in pts.matrix.tolist()] == list(pts.points)
        assert all(
            p == tuple(m >> i & 1 for i in range(4))
            for m, p in zip(pts.masks, pts.points)
        )

    def test_int64_bound_picks_the_product(self):
        matrix = _point_matrix([(1, 0), (0, 1), (1, 1)])
        assert matrix.dtype == np.int64
        fits = list(_row_values([(1, 2), (INT64_SAFE - 1, 0)], matrix))
        assert [v.dtype for v in fits] == [np.int64, np.int64]
        assert fits[1].tolist() == [INT64_SAFE - 1, 0, INT64_SAFE - 1]
        big = list(_row_values([(1, 2), (INT64_SAFE, INT64_SAFE)], matrix))
        assert [v.dtype for v in big] == [object, object]
        assert big[0].tolist() == [1, 2, 3]
        assert big[1].tolist() == [INT64_SAFE, INT64_SAFE, 2 * INT64_SAFE]

    def test_oversized_coordinates_use_python_ints(self):
        huge = 1 << 70
        matrix = _point_matrix([(huge, 0), (0, 1)])
        assert matrix.dtype == object
        (values,) = _row_values([(3, -1)], matrix)
        assert values.tolist() == [3 * huge, -1]


def _level_multiset(poly) -> Counter:
    levels = Counter()
    for ineq in poly.facets:
        key = tuple(sorted({dot(ineq.normal, p) - ineq.rhs for p in poly.points}))
        levels[key] += 1
    return levels


class TestNormalization:
    def test_projection_matches_lattice_normalization(self, bipartite_8):
        """Both normalizations are lattice isomorphisms of the same polytope,
        so facet-level data must agree row for row."""
        for g in bipartite_8:
            pts = lattice_points(g)
            if len(pts.points) < 2:
                continue
            system = inequality_system(g, pts)
            proj = bipartite_projection(g, pts, system)
            norm = normalize_lattice(pts, system)
            assert proj.dim == norm.dim
            assert len(proj.points) == len(norm.points)
            assert len(proj.facets) == len(norm.facets)
            assert _level_multiset(proj) == _level_multiset(norm)

    def test_projection_drops_last_coordinate(self):
        g = cycle_graph(4)
        proj = bipartite_projection(g)
        assert proj.dim == 3
        assert proj.points == tuple(p[:-1] for p in lattice_points(g).points)

    def test_projection_round_trips_points(self):
        g = complete_bipartite_graph(2, 3)
        pts = lattice_points(g)
        proj = bipartite_projection(g, pts)
        for original, reduced in zip(pts.points, proj.points):
            assert proj.transform.to_ambient(reduced) == original

    def test_normalize_needs_two_points(self):
        pts = lattice_points(Graph(1, ()))
        with pytest.raises(DegeneratePointSetError):
            normalize_lattice(pts, ())

    def test_nonbipartite_lattice_index_two(self):
        """For an odd cycle the point lattice is the even-coordinate-sum
        sublattice, so doubled unit vectors belong but units do not."""
        pts = lattice_points(cycle_graph(5))
        lat = pts.lattice
        assert lat.rank == 5
        assert not lat.contains((1, 0, 0, 0, 0))
        assert lat.contains((2, 0, 0, 0, 0))
        assert lat.contains((1, 1, 0, 0, 0))


class TestGorensteinGeometric:
    def test_known_indices(self):
        expected = {
            "K2": (complete_graph(2), 2),
            "P4": (path_graph(4), 3),
            "C4": (cycle_graph(4), 2),
            "C5": (cycle_graph(5), 3),
            "C6": (cycle_graph(6), 2),
            "K33": (complete_bipartite_graph(3, 3), 2),
            "K4": (complete_graph(4), 2),
        }
        for name, (g, delta) in expected.items():
            cert = gorenstein_geometric(g)
            assert cert is not None, name
            assert cert.index == delta, name

    def test_known_failures(self):
        for g in (
            complete_bipartite_graph(2, 3),
            complete_graph(5),
            Graph(5, ((1, 2), (2, 3), (3, 4), (4, 1), (4, 5))),
        ):
            assert gorenstein_geometric(g) is None

    def test_interior_point_strictness(self):
        g = cycle_graph(6)
        cert = gorenstein_geometric(g)
        pts = lattice_points(g)
        system = inequality_system(g, pts)
        alpha = cert.interior_point_ambient
        for ineq in system:
            value = dot(ineq.normal, alpha)
            if ineq.facet:
                # strictly inside every facet of the dilate
                assert value < cert.index * ineq.rhs
            else:
                assert value <= cert.index * ineq.rhs

    def test_single_vertex_degenerate(self):
        cert = gorenstein_geometric(Graph(1, ()))
        assert cert is not None and cert.degenerate
        assert cert.index == 1

    def test_p4_interior_vector(self):
        cert = gorenstein_geometric(path_graph(4))
        assert cert.interior_point_ambient == (1, 2, 2, 1)


class TestDilates:
    def test_bipartite_idp(self):
        for g in (cycle_graph(4), complete_bipartite_graph(3, 3), path_graph(5)):
            for k in (2, 3):
                assert idp_check(g, k, mode="idp").ok

    def test_nonbipartite_idp_fails_but_normality_holds(self):
        for g in (cycle_graph(5), complete_graph(4)):
            for k in (2, 3):
                check = idp_check(g, k, mode="idp")
                assert not check.ok
                assert sum(check.witness) % 2 == 1  # odd total, outside the point lattice
                assert idp_check(g, k, mode="normality").ok

    def test_witness_is_lex_first(self):
        # the triangle indicator lies in the double dilate but has odd
        # coordinate sum, so it cannot be a sum of two polytope points
        check = idp_check(complete_graph(4), 2, mode="idp")
        assert check.witness == (0, 1, 1, 1)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            idp_check(cycle_graph(4), 4)

    def test_rejects_large(self):
        with pytest.raises(TooLargeError):
            idp_check(cycle_graph(11), 2)

    def test_rejects_disconnected(self):
        with pytest.raises(DisconnectedError):
            idp_check(Graph(4, ((1, 2), (3, 4))), 2)


def _box_idp_checks(g: Graph, k: int) -> dict[str, DilateCheck]:
    """Reference dilate checks in both modes: scan the whole [0, k]^n box in
    lex order, keep the points of the dilate (and of the point lattice in
    normality mode), and look each one up among the tuple sums of k points."""
    pts = lattice_points(g)
    system = inequality_system(g, pts)
    dilate = [z for z in product(range(k + 1), repeat=g.n) if membership(system, z, k)]
    pair_sums = {
        tuple(a + b for a, b in zip(p, q)) for p in pts.points for q in pts.points
    }

    def splits(z) -> bool:
        if k == 2:
            return z in pair_sums
        return any(tuple(a - b for a, b in zip(z, p)) in pair_sums for p in pts.points)

    checks = {}
    for mode in ("idp", "normality"):
        if mode == "normality":
            dilate = [z for z in dilate if pts.lattice.contains(z)]
        witness = next((z for z in dilate if not splits(z)), None)
        checks[mode] = DilateCheck(k, mode, witness is None, witness, len(dilate))
    return checks


def _seeded_connected(rng: random.Random, n: int, p: float) -> Graph:
    while True:
        g = Graph(n, [e for e in combinations(range(1, n + 1), 2) if rng.random() < p])
        if is_connected(g):
            return g


def _box_codes(normals, bound, n: int, k: int) -> list[int]:
    """Codes of the box points that satisfy every row, in Python ints."""
    return [
        sum(x * (k + 1) ** (n - 1 - i) for i, x in enumerate(z))
        for z in product(range(k + 1), repeat=n)
        if all(dot(a, z) <= b for a, b in zip(normals, bound))
    ]


def _rows(g: Graph, k: int):
    system = inequality_system(g)
    return [ineq.normal for ineq in system], [k * ineq.rhs for ineq in system]


class TestIdpCheckAgainstBoxScan:
    def _compare(self, graphs, ks) -> int:
        witnesses = 0
        for g in graphs:
            for k in ks:
                for mode, expected in _box_idp_checks(g, k).items():
                    check = idp_check(g, k, mode)
                    assert check == expected, (g.edges, mode, k)
                    witnesses += check.witness is not None
        return witnesses

    def test_connected_graphs_up_to_five_vertices(self):
        """One graph per isomorphism class with n <= 5, and every labeled
        graph with n <= 4, so witnesses are compared under vertex orders."""
        graphs = list(generate_corpus(CorpusSpec(max_n=5)))
        graphs += generate_corpus(CorpusSpec(max_n=4, dedup=False))
        assert self._compare(graphs, (2, 3)) > 50

    def test_seeded_graphs_seven_to_nine_vertices(self):
        rng = random.Random(3)
        witnesses = self._compare([_seeded_connected(rng, 7, 0.35) for _ in range(3)], (2, 3))
        for n in (8, 8, 9):
            witnesses += self._compare([_seeded_connected(rng, n, 0.35)], (2,))
        assert witnesses > 0


class TestDilateCodes:
    def test_strictly_ascending(self):
        for g in (complete_graph(5), cycle_graph(6), complete_bipartite_graph(2, 4)):
            for k in (2, 3):
                codes = _dilate_codes(*_rows(g, k), g.n, k)
                assert codes.dtype == np.int64
                assert (np.diff(codes) > 0).all()

    def test_equals_filtered_box_with_negative_coefficients(self):
        graphs = (
            complete_graph(5),
            cycle_graph(5),
            complete_bipartite_graph(2, 3),
            Graph(6, ((1, 2), (2, 3), (3, 1), (3, 4), (4, 5), (5, 6), (6, 4))),
        )
        for g in graphs:
            for k in (2, 3):
                normals, bound = _rows(g, k)
                assert any(min(a) < 0 for a in normals)
                codes = _dilate_codes(normals, bound, g.n, k)
                assert codes.tolist() == _box_codes(normals, bound, g.n, k)

    def test_block_boundaries_inside_levels(self, monkeypatch):
        """K9 has 274 rows, so a default block holds 79 parents at k = 2 and
        later levels span several blocks; tiny blocks split every level."""
        g = complete_graph(9)
        normals, bound = _rows(g, 2)
        assert len(normals) == 274
        codes = _dilate_codes(normals, bound, 9, 2)
        a = np.array(normals)
        box = np.array(list(product(range(3), repeat=9)))
        inside = (box @ a.T <= np.array(bound)).all(axis=1)
        assert codes.tolist() == np.flatnonzero(inside).tolist()
        normals, bound = _rows(complete_graph(5), 3)
        expected = _dilate_codes(normals, bound, 5, 3).tolist()
        for block in (1, 50, 333):
            monkeypatch.setattr("pmsp.polytope._DILATE_BLOCK", block)
            assert _dilate_codes(normals, bound, 5, 3).tolist() == expected

    def test_oversized_row_uses_python_ints(self):
        # 3e = 2^64 + 2 wraps to 2 in int64, and 2e wraps negative
        e = (2**64 + 2) // 3
        assert e < 2**63
        codes = _dilate_codes([(e, 0)], [2], 2, 3)
        assert codes.tolist() == [0, 1, 2, 3] == _box_codes([(e, 0)], [2], 2, 3)
        codes = _dilate_codes([(1, -(INT64_SAFE // 2))], [1], 2, 2)
        assert codes.tolist() == _box_codes([(1, -(INT64_SAFE // 2))], [1], 2, 2)

    def test_oversized_basis_uses_python_ints(self):
        # (3, 2) - 3 * (1, e) is (0, -2^64), which int64 would wrap to (0, 0)
        e = (2**64 + 2) // 3
        lat = AffineLattice(2, (0, 0), ((1, e),), (0,))
        weights = np.array([4, 1])
        codes = np.arange(16)
        inside = _lattice_codes(codes, weights, 3, lat)
        assert inside.tolist() == [0]
        assert [c for c in range(16) if lat.contains((c // 4, c % 4))] == [0]
