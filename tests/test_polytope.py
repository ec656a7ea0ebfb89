"""Lattice points, inequality systems, normalization, and dilate checks."""

import dataclasses
import json
import random
from itertools import combinations, product
from math import gcd

import numpy as np
import pytest

from pmsp import (
    AffineInequality,
    CorpusSpec,
    DegeneratePointSetError,
    DilateCheck,
    DisconnectedError,
    Graph,
    InconsistentFacetsError,
    TooLargeError,
    bipartite_projection,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    dimension,
    generate_corpus,
    gorenstein_geometric,
    idp_check,
    inequality_system,
    lattice_points,
    matchable_subsets,
    normalize_lattice,
    path_graph,
    verify_facet_flags,
)
from pmsp import intlattice, polytope
from pmsp.polytope import RowSystem
from pmsp.graph import bipartition, is_connected
from pmsp.intlattice import MOD_P, _point_matrix, affine_rank, hnf_rows, rank_mod_p
from pmsp.polytope import (
    INT64_SAFE,
    AffineLattice,
    _dilate_codes,
    _lattice_coordinates,
    _member_sources,
    _row_values,
    _transport_flagged,
    facet_scan,
)

from . import reference
from .conftest import fixture_graphs
from .reference import contains, coordinates, dot, lattice_coordinates, membership


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
            system = inequality_system(g)
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
            system = inequality_system(g)
            for mask in range(1 << g.n):
                cand = tuple(mask >> i & 1 for i in range(g.n))
                if cand not in got:
                    assert not membership(system, cand)


class TestFacetLevels:
    """The levels of a facet row are the distinct values of normal . x - rhs
    over the lattice points, read off the values `facet_scan` yields."""

    @staticmethod
    def _levels(g):
        pts, system = lattice_points(g), inequality_system(g)
        scan = facet_scan(pts.matrix, pts.lattice.rank, system.normals, system.rhs)
        for (values, _), row in zip(scan, system):
            if row.facet:
                yield row.source, (np.unique(values) - row.rhs).tolist()

    def test_levels_are_nonpositive_with_zero(self):
        levels = dict(self._levels(cycle_graph(6)))
        assert levels
        for row_levels in levels.values():
            assert row_levels[-1] == 0
            assert all(v <= 0 for v in row_levels)

    def test_odd_cycle_top_row(self):
        assert dict(self._levels(cycle_graph(5)))["OddSet(1,2,3,4,5)"] == [-4, -2, 0]


class TestVerifyFacetFlags:
    def test_zero_disagreements_sample(self, connected_7):
        for g in connected_7[:100]:
            report = verify_facet_flags(g)
            assert report.ok, report.disagreements


def _scan_cases(g):
    """(points, dim, rows, matrix) for the ambient inequality system and for
    its rows transported to the point-lattice normalization."""
    pts = lattice_points(g)
    system = inequality_system(g)
    yield pts.points, pts.lattice.rank, system, pts.matrix
    if len(pts.points) < 2:
        return
    norm = normalize_lattice(pts, system)
    rows = _transport_flagged(system, norm.transform)
    yield norm.points, norm.dim, rows, _point_matrix(norm.points)


def _seeded_gnm(rng: random.Random, n: int, m: int, accept=is_connected) -> Graph:
    """A uniform graph with n vertices and m edges on which `accept` holds."""
    pairs = list(combinations(range(1, n + 1), 2))
    while True:
        g = Graph(n, rng.sample(pairs, m))
        if accept(g):
            return g


def _seeded_nonbipartite(rng: random.Random, n: int, m: int) -> Graph:
    """A uniform connected nonbipartite graph with n vertices and m edges."""
    return _seeded_gnm(rng, n, m, lambda g: is_connected(g) and bipartition(g) is None)


def _disjoint_unions(graphs: list[Graph], max_n: int) -> list[Graph]:
    """Every unordered pair of `graphs` side by side, with at most max_n
    vertices in total."""
    return [
        Graph(a.n + b.n, a.edges + tuple((u + a.n, v + a.n) for u, v in b.edges))
        for i, a in enumerate(graphs)
        for b in graphs[i:]
        if a.n + b.n <= max_n
    ]


def _counted_scan(monkeypatch, matrix, dim, normals, rhs) -> tuple[list[bool], int]:
    """The flags of `facet_scan` and the number of `affine_rank` calls it made."""
    calls = []

    def counting(*args):
        calls.append(args)
        return affine_rank(*args)

    monkeypatch.setattr(polytope, "affine_rank", counting)
    flags = [facet for _, facet in facet_scan(matrix, dim, normals, rhs)]
    monkeypatch.setattr(polytope, "affine_rank", affine_rank)
    return flags, len(calls)


def _values(normals, matrix) -> list:
    """The per-normal value arrays of `_row_values`, blocks flattened."""
    return [v for _, block in _row_values(_point_matrix(normals), matrix) for v in block]


def _system(rows) -> RowSystem:
    """A RowSystem from (normal, rhs, facet, source) tuples."""
    normals, rhs, facet, sources = zip(*rows)
    return RowSystem(_point_matrix(normals), _point_matrix(rhs), np.array(facet), sources)


def _no_rows(n: int) -> RowSystem:
    return RowSystem(np.zeros((0, n), dtype=np.int64), np.zeros(0, dtype=np.int64),
                     np.zeros(0, dtype=bool), ())


class TestFacetScan:
    def test_matches_full_elimination(self, connected_7):
        """The early stop at dim - 1 and the int64 product change no flag:
        each equals the full affine rank of the tight points, found with
        Python dot products, compared with dim - 1."""
        graphs = [g for g in connected_7 if g.n <= 6] + fixture_graphs()
        checked = 0
        for g in graphs:
            for points, dim, rows, matrix in _scan_cases(g):
                scan = list(facet_scan(matrix, dim, rows.normals, rows.rhs))
                assert len(scan) == len(rows)
                for row, (values, facet) in zip(rows, scan):
                    normal, rhs = row.normal, row.rhs
                    exact = [dot(normal, p) for p in points]
                    assert values.tolist() == exact
                    active = [p for p, v in zip(points, exact) if v == rhs]
                    expected = (
                        0 < len(active) < len(points)
                        and reference.affine_rank(active) == dim - 1
                    )
                    assert facet == expected, (g.edges, normal, rhs)
                    checked += 1
        assert checked > 5000

    def test_point_set_views_agree(self):
        g = complete_graph(4)
        pts = lattice_points(g)
        # the scans, the search and the JSON read the matrix; the tuple
        # view is built on first read
        gorenstein_geometric(g)
        assert pts.to_json()["points"] == pts.matrix.tolist()
        assert len(pts) == len(pts.matrix)
        assert "points" not in vars(pts)
        assert pts.matrix.dtype == np.int64
        assert [tuple(r) for r in pts.matrix.tolist()] == list(pts.points)
        masks = [s.mask for s in matchable_subsets(complete_graph(4))]
        assert pts.matrix.tolist() == [[m >> i & 1 for i in range(4)] for m in masks]

    def test_int64_bound_picks_the_product(self):
        matrix = _point_matrix([(1, 0), (0, 1), (1, 1)])
        assert matrix.dtype == np.int64
        fits = _values([(1, 2), (INT64_SAFE - 1, 0)], matrix)
        assert [v.dtype for v in fits] == [np.int64, np.int64]
        assert fits[1].tolist() == [INT64_SAFE - 1, 0, INT64_SAFE - 1]
        # the normals fit in int64, but |a_1| + |a_2| = 2^63 would wrap there
        big = _values([(1, 2), (INT64_SAFE, INT64_SAFE)], matrix)
        assert [v.dtype for v in big] == [object, object]
        assert big[0].tolist() == [1, 2, 3]
        assert big[1].tolist() == [INT64_SAFE, INT64_SAFE, 2 * INT64_SAFE]

    def test_oversized_coordinates_use_python_ints(self):
        huge = 1 << 70
        matrix = _point_matrix([(huge, 0), (0, 1)])
        assert matrix.dtype == object
        (values,) = _values([(3, -1)], matrix)
        assert values.tolist() == [3 * huge, -1]

    def test_certificate_keeps_the_exact_flags(self, monkeypatch):
        """Each block's proper rows are ranked in one stack of 2 dim + 1
        tight points each, and only rows whose spread falls short again on
        all their tight points: every flag equals the exact affine rank of
        the row's tight points compared with dim - 1, and `affine_rank`
        runs far fewer times than the scan flags rows."""
        rng = random.Random(0)
        seeded = [_seeded_nonbipartite(rng, 12, 20) for _ in range(3)]
        total_rows = total_calls = 0
        for g in fixture_graphs() + seeded:
            pts, system = lattice_points(g), inequality_system(g)
            dim = pts.lattice.rank
            flags, calls = _counted_scan(monkeypatch, pts.matrix, dim, system.normals, system.rhs)
            for row, facet in zip(system, flags):
                active = pts.matrix[pts.matrix @ np.array(row.normal) == row.rhs]
                expected = 0 < len(active) < len(pts) and reference.affine_rank(active) == dim - 1
                assert facet == expected, (g.edges, row.source)
            assert len(flags) == len(system)
            if g in seeded:
                assert calls < len(flags), g.edges
            total_rows += len(flags)
            total_calls += calls
        assert total_calls < total_rows / 10

    def test_full_tight_sets_rank_the_short_spreads(self, monkeypatch):
        """Rows tight on more than 2 dim + 1 = 7 points whose spread falls
        short of dim - 1 are ranked again on all their tight points, the
        spread first: the rest is screened against the spread, and only a
        set with a point outside its span is eliminated in full.  z <= 0 is
        tight on 13 points whose spread (every second one) misses (0, 1, 0),
        so it is a facet found by the full elimination; y + z <= 0 is tight
        on the 12 points of a line, which the screen settles."""
        line = [(x, 0, 0) for x in range(1, 12)]
        matrix = _point_matrix([(0, 0, 0), (0, 1, 0), *line, (0, 0, 1)])
        normals, rhs = np.array([[0, 0, 1], [0, 1, 1]]), np.array([0, 0])
        eliminated = []

        def recording(stack, prime=MOD_P):
            eliminated.append(stack.shape)
            return rank_mod_p(stack, prime)

        monkeypatch.setattr(intlattice, "rank_mod_p", recording)
        assert [facet for _, facet in facet_scan(matrix, 3, normals, rhs)] == [True, False]
        # the two spreads together, then only the z <= 0 set in full
        assert eliminated == [(2, 6, 3), (1, 19, 3)]

    def test_points_past_the_hadamard_bound_raise(self):
        """The tight plane z = 0 has rank 2 = dim - 1 over Q but rank 1 mod
        MOD_P, since (MOD_P, y, 0) = (0, y, 0) there.  Its differences reach
        MOD_P, past what two primes certify: the scan raises instead of
        flagging a row by a rank it cannot prove."""
        plane = [(x, y, 0) for x in (0, MOD_P) for y in range(5)]
        assert reference.affine_rank(plane) == 2
        matrix = _point_matrix([*plane, (0, 0, 1)])
        normals, rhs = np.array([[0, 0, 1]]), np.array([0])
        with pytest.raises(ValueError, match="MOD_P"):
            list(facet_scan(matrix, 3, normals, rhs))

    def test_object_matrix_raises(self):
        """Python integers have no exact rank mod a prime here: an object
        matrix raises, where the int64 one of the same points scans."""
        pts, system = lattice_points(complete_graph(6)), inequality_system(complete_graph(6))
        flags = [facet for _, facet in facet_scan(pts.matrix, 6, system.normals, system.rhs)]
        assert flags == system.facet.tolist()
        with pytest.raises(ValueError):
            list(facet_scan(pts.matrix.astype(object), 6, system.normals, system.rhs))


def _ternary_system(rng: np.random.Generator, n: int, rows: int) -> RowSystem:
    """`rows` random rows with entries in {-1, 0, 1} (zero one time in
    five), after the all -1 and all 1 rows: the first and last entries of
    the text tables."""
    random_rows = rng.choice([-1, 0, 1], size=(rows, n), p=[0.4, 0.2, 0.4])
    normals = np.vstack([-np.ones(n), np.ones(n), random_rows]).astype(np.int64)
    count = len(normals)
    return RowSystem(normals, rng.integers(-3, 30, count), rng.random(count) < 0.5,
                     tuple(f"Row({i})" for i in range(count)))


class TestJsonText:
    """`RowSystem.to_json_text` writes the bytes of the sorted-key dump of
    `to_json()`, and `RowSystem.to_text` the per-row f-string of
    `reference.facets_text`.  Both read normals with entries in {-1, 0, 1}
    off the base-3 tables, and write any other matrix one `json.dumps` per
    row."""

    @staticmethod
    def _dump(system: RowSystem) -> str:
        return json.dumps(system.to_json(), sort_keys=True, separators=(",", ":"))

    def test_matches_the_dump_of_every_system(self, connected_7, bipartite_8):
        checked = 0
        for g in fixture_graphs() + connected_7 + bipartite_8:
            system = inequality_system(g)
            assert system.to_json_text() == self._dump(system), g.edges
            assert system.to_text() == reference.facets_text(system), g.edges
            checked += 1
        assert checked > 1000

    def test_empty_wide_and_escaped_rows(self):
        """The other path: a system with no rows, an object matrix of wide
        entries with escaped sources, and an int64 entry of 2."""
        odd = _system([
            ((1 << 70, -1), -(1 << 65), True, 'quote " back \\ tab \t é'),
            ((0, 0), 0, False, "OddSet(1,2,3)|NonNeg(4)"),
        ])
        assert odd.normals.dtype == object
        two = _system([((2, -1, 0), 1, True, "A"), ((0, 1, -2), 0, False, "B(1,2)")])
        assert two.normals.dtype == np.int64
        assert _no_rows(3).to_json_text() == '{"count":0,"inequalities":[]}'
        for system in (_no_rows(3), odd, two):
            assert system.to_json_text() == self._dump(system)
            assert system.to_text() == reference.facets_text(system)

    def test_table_path_for_every_width(self, monkeypatch):
        """n = 1..9 (odd and even halves) and a dense n = 20, whose halves
        read the 3^10 tables; the writers call no `json` routine."""
        rng = np.random.default_rng(23)
        systems = [_ternary_system(rng, n, 200) for n in range(1, 10)]
        systems += [_ternary_system(rng, 20, 3000), inequality_system(complete_graph(3))]
        dumps = [self._dump(system) for system in systems]
        monkeypatch.setattr(polytope, "json", None)
        for system, dump in zip(systems, dumps):
            assert system.to_json_text() == dump, system.normals.shape
            assert system.to_text() == reference.facets_text(system), system.normals.shape
        assert polytope._ternary_texts(10, ",", True).shape == (3**10,)

    def test_member_sources_match_the_joined_labels(self):
        """Every mask of n <= 9 bits, the empty one included, whether or
        not it has a high bit."""
        for n in range(10):
            expected = [
                f"Cut({','.join(str(v) for v in range(1, n + 1) if m >> (v - 1) & 1)})"
                for m in range(1 << n)
            ]
            assert _member_sources("Cut", np.arange(1 << n), n) == expected, n


class TestBoundFlags:
    """The bound rows -x_v <= 0 and x_v <= 1 are flagged by one rule read
    off the graph (`_bound_facets`): the flags equal the ones `facet_scan`
    ranks, and building a system ranks nothing and enumerates no point."""

    @staticmethod
    def _seeded(count: int, bipartite: bool = False) -> list[Graph]:
        """`count` seeded connected G(n, 2n), n = 10..16, nonbipartite, or
        bipartite with n - 1 + n // 4 edges (a bipartite G(n, 2n) is rarely
        connected)."""
        rng = random.Random(23)
        sizes = [rng.randint(10, 16) for _ in range(count)]
        if not bipartite:
            return [_seeded_nonbipartite(rng, n, 2 * n) for n in sizes]

        def accept(g):
            return is_connected(g) and bipartition(g) is not None

        return [_seeded_gnm(rng, n, n - 1 + n // 4, accept) for n in sizes]

    def test_match_the_rank_flags(self, connected_7, bipartite_8, pseudotrees_9):
        seeded = self._seeded(100) + self._seeded(40, bipartite=True)
        checked = facets = bipartite = 0
        for g in connected_7 + bipartite_8 + pseudotrees_9 + seeded:
            system = inequality_system(g)
            bound = 2 * g.n
            pts = lattice_points(g)
            normals, rhs = system.normals[:bound], system.rhs[:bound]
            ranked = [f for _, f in facet_scan(pts.matrix, pts.lattice.rank, normals, rhs)]
            assert system.facet[:bound].tolist() == ranked, g.edges
            names = [f"{name}({v})" for name in ("NonNeg", "UpperOne") for v in g.vertices()]
            assert system.sources[:bound] == tuple(names)
            checked += bound
            facets += sum(ranked)
            bipartite += bound * (bipartition(g) is not None)
        assert checked > 25000 and 0 < bipartite < checked
        assert 0 < facets < checked

    def test_system_ranks_nothing(self, monkeypatch):
        """Neither route of the build calls `facet_scan`, `affine_rank`,
        `rank_mod_p` or `lattice_points`."""
        def refuse(*args):
            raise AssertionError("a rank was computed or a point enumerated")

        for name in ("facet_scan", "affine_rank", "lattice_points"):
            monkeypatch.setattr(polytope, name, refuse)
        monkeypatch.setattr(intlattice, "rank_mod_p", refuse)
        triangle_with_tail = Graph(6, ((1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (5, 6)))
        graphs = [complete_graph(6), cycle_graph(7), triangle_with_tail, *self._seeded(3),
                  cycle_graph(6), path_graph(5), complete_bipartite_graph(2, 3),
                  *self._seeded(3, bipartite=True)]
        for g in graphs:
            assert len(inequality_system(g)) > 2 * g.n, g.edges
        assert {bipartition(g) is None for g in graphs} == {True, False}


class TestNormalization:
    def test_projection_drops_last_coordinate(self):
        g = cycle_graph(4)
        proj = bipartite_projection(g)
        assert proj.dim == 3
        assert proj.points == tuple(p[:-1] for p in lattice_points(g).points)

    def test_projection_round_trips_points(self):
        g = complete_bipartite_graph(2, 3)
        pts = lattice_points(g)
        proj = bipartite_projection(g)
        for original, reduced in zip(pts.points, proj.points):
            assert proj.transform.to_ambient(reduced) == original

    def test_normalize_needs_two_points(self):
        pts = lattice_points(Graph(1, ()))
        with pytest.raises(DegeneratePointSetError):
            normalize_lattice(pts, ())

    def test_projection_of_a_single_vertex_is_degenerate(self):
        with pytest.raises(DegeneratePointSetError):
            bipartite_projection(Graph(1, ()))

    def test_bipartite_lattice_basis_drops_the_last_coordinate(self, bipartite_8):
        """For a connected bipartite graph the point lattice is
        {x : sum over one color class = sum over the other}: origin 0 and
        Hermite basis e_i + c_i e_n, with c_i = +1 when vertex i is on the
        other side from vertex n and -1 on its side.  So the lattice
        coordinates are the first n - 1, and a row a . x <= b transports to
        a_i + c_i a_n, the coordinate-drop formula written out below."""
        checked = 0
        for g in bipartite_8:
            n = g.n
            if n < 2:
                continue
            pts = lattice_points(g)
            lat = pts.lattice
            assert lat.origin == (0,) * n
            assert lat.pivots == tuple(range(n - 1))
            side = bipartition(g)[0].mask
            signs = [1 if (side >> i ^ side >> (n - 1)) & 1 else -1 for i in range(n - 1)]
            for i, (row, c) in enumerate(zip(lat.basis, signs)):
                assert row == tuple(1 if j == i else c if j == n - 1 else 0 for j in range(n))
            system = inequality_system(g)
            norm = normalize_lattice(pts, system)
            assert norm.dim == n - 1
            assert norm.points == tuple(p[:-1] for p in pts.points)
            expected: dict = {}
            for ineq in system:
                normal = tuple(a + c * ineq.normal[-1] for a, c in zip(ineq.normal, signs))
                if ineq.source.startswith("Balance"):
                    assert not any(normal) and ineq.rhs == 0
                    continue
                key = (normal, ineq.rhs)
                if key in expected:
                    source, flag = expected[key]
                    expected[key] = (f"{source}|{ineq.source}", flag)
                else:
                    expected[key] = (ineq.source, ineq.facet)
            got = [(row.normal, row.rhs, row.source, row.facet) for row in norm.rows]
            assert got == [(*key, *value) for key, value in expected.items()], g.edges
            for p, q in zip(pts.points, norm.points):
                assert norm.transform.to_ambient(q) == p
            checked += 1
        assert checked == len(bipartite_8) - 1

    def test_points_reduced_as_one_matrix(self, connected_7):
        """normalize_lattice maps every point in one numpy pass; each row
        equals the one-point reduction of the reference `coordinates`.  The
        closed-form map agrees with `coordinates` and `contains` on every
        point of [0, k]^n, k = 2, 3, on connected and disconnected graphs,
        and `to_ambient` inverts it."""
        for g in connected_7[::5]:
            pts = lattice_points(g)
            if len(pts) < 2:
                continue
            norm = normalize_lattice(pts, _no_rows(g.n))
            assert norm.points == tuple(coordinates(pts.lattice, p) for p in pts.points)
        small = [g for g in connected_7 if g.n <= 5]
        assert Graph(1, ()) in small
        assert {bipartition(g) is None for g in small} == {True, False}
        for g in small + _disjoint_unions(small, 5):
            lat = lattice_points(g).lattice
            for k in (2, 3):
                box = np.array(list(product(range(k + 1), repeat=g.n)), dtype=np.int64)
                coords, inside = _lattice_coordinates(box, lat)
                for point, c, member in zip(box.tolist(), coords.tolist(), inside.tolist()):
                    expected = coordinates(lat, point)
                    assert member == contains(lat, point), (g.edges, point)
                    if member:
                        assert tuple(c) == expected, (g.edges, point)
                        assert lat.to_ambient(c) == tuple(point)

    def test_lattice_matches_the_one_point_loop(self, connected_7, bipartite_8, pseudotrees_9):
        """The closed-form lattice equals the Hermite basis of reducing the
        points one at a time and extending the basis with `hnf_rows`, on
        connected graphs and on disjoint unions of two."""
        rng = random.Random(26)
        seeded = []
        for n in range(10, 15):
            for m in (n - 1, n + 2, 2 * n):
                seeded.append(_seeded_gnm(rng, n, m))
        assert {bipartition(g) is None for g in seeded} == {True, False}
        unions = _disjoint_unions([g for g in connected_7 if g.n <= 4], 8)
        assert not any(map(is_connected, unions))
        for g in connected_7 + bipartite_8 + pseudotrees_9 + fixture_graphs() + seeded + unions:
            points = lattice_points(g).points
            origin = points[0]
            basis, pivots = [], []
            for p in points[1:]:
                diff = [x - o for x, o in zip(p, origin)]
                if lattice_coordinates(basis, pivots, diff) is None:
                    basis, pivots = hnf_rows([list(r) for r in basis] + [diff])
            expected = AffineLattice(g.n, origin, tuple(basis), tuple(pivots))
            assert lattice_points(g).lattice == expected, g.edges

    def test_nonbipartite_lattice_depends_on_n_alone(self, connected_7):
        """Every connected nonbipartite graph on n vertices spans the one
        lattice {x : sum x even}, so its points' coordinates depend on the
        lattice alone."""
        lattices: dict = {}
        for g in connected_7:
            if bipartition(g) is None:
                lattices.setdefault(g.n, set()).add(lattice_points(g).lattice)
        assert sorted(lattices) == [3, 4, 5, 6, 7]
        assert all(len(found) == 1 for found in lattices.values())

    def test_nonbipartite_lattice_index_two(self):
        """For an odd cycle the point lattice is the even-coordinate-sum
        sublattice, so doubled unit vectors belong but units do not."""
        pts = lattice_points(cycle_graph(5))
        lat = pts.lattice
        assert lat.rank == 5
        assert not contains(lat, (1, 0, 0, 0, 0))
        assert contains(lat, (2, 0, 0, 0, 0))
        assert contains(lat, (1, 1, 0, 0, 0))


class TestTransport:
    def test_rows_transported_once_per_search(self, monkeypatch):
        import pmsp.polytope as polytope

        calls = []
        transport = polytope._transport_flagged

        def counted(system, lattice):
            calls.append(lattice.ambient_n)
            return transport(system, lattice)

        monkeypatch.setattr(polytope, "_transport_flagged", counted)
        for g in (cycle_graph(6), complete_bipartite_graph(2, 3), cycle_graph(5), complete_graph(4)):
            calls.clear()
            gorenstein_geometric(g)
            assert calls == [g.n]

    def test_search_ranks_only_the_bound_rows(self, monkeypatch):
        """The search takes its facet rows from the criterion flags: only a
        nonbipartite graph's 2n bound rows are ranked, once, in ambient
        coordinates."""
        import pmsp.polytope as polytope

        calls = []

        def counted(points, stop=None):
            calls.append(stop)
            return affine_rank(points, stop)

        monkeypatch.setattr(polytope, "affine_rank", counted)
        for g, most in (
            (cycle_graph(6), 0),
            (complete_bipartite_graph(2, 3), 0),
            (cycle_graph(5), 10),
            (complete_graph(4), 8),
        ):
            calls.clear()
            gorenstein_geometric(g)
            assert len(calls) <= most, g.edges

    def test_violated_row_raises(self, monkeypatch):
        """A row that some lattice point violates stops the search, whether
        or not its flag makes it a facet row."""
        import pmsp.polytope as polytope

        system = polytope.inequality_system

        def tightened(g):
            rows = system(g)
            rhs = rows.rhs.copy()
            rhs[rows.sources.index("UpperOne(1)")] = 0
            return dataclasses.replace(rows, rhs=rhs)

        monkeypatch.setattr(polytope, "inequality_system", tightened)
        for g in (cycle_graph(6), complete_bipartite_graph(2, 3), cycle_graph(5), complete_graph(4)):
            with pytest.raises(InconsistentFacetsError, match="violated by a lattice point"):
                gorenstein_geometric(g)
            pts = lattice_points(g)
            with pytest.raises(InconsistentFacetsError, match="violated by a lattice point"):
                normalize_lattice(pts, tightened(g))

    def test_oversized_basis_uses_python_ints(self):
        # 3e = 2^64 + 2 wraps to 2 in int64; 2^64 + 1 does not fit at all
        e = (2**64 + 2) // 3
        assert e < 2**63
        row = _system([((0, 3), 1, True, "Big")])
        for entry, value in ((e, 2**64 + 2), (2**64 + 1, 3 * 2**64 + 3)):
            lat = AffineLattice(2, (0, 0), ((1, entry),), (0,))
            assert list(_transport_flagged(row, lat)) == [
                AffineInequality((value,), 1, True, "Big")
            ]
        # the origin moves the rhs: 1 - 3e, which int64 would wrap to -1
        shifted = AffineLattice(2, (0, e), ((1, 0),), (0,))
        row = _system([((1, 3), 1, True, "Big")])
        assert list(_transport_flagged(row, shifted)) == [
            AffineInequality((1,), -(2**64) - 1, True, "Big")
        ]

    def test_rows_divide_by_the_normal_gcd_only_when_the_rhs_does(self):
        lat = AffineLattice(2, (0, 0), ((1, 0), (0, 1)), (0, 1))
        rows = _system([((2, 4), 6, True, "A"), ((2, 4), 3, False, "B"), ((-3, 0), 0, True, "C")])
        assert list(_transport_flagged(rows, lat)) == [
            AffineInequality((1, 2), 3, True, "A"),
            # gcd 2 does not divide rhs 3, so the row stays as is
            AffineInequality((2, 4), 3, False, "B"),
            AffineInequality((-1, 0), 0, True, "C"),
        ]

    def test_matches_the_per_row_reference(self, connected_7):
        """Transported rows equal a per-row Python transport: dot products
        with the origin and the basis, division by the normal's gcd when
        the rhs divides, and a dict merge joining sources, in order."""
        graphs = [g for g in connected_7 if g.n <= 6 and bipartition(g) is None]
        checked = 0
        for g in graphs + fixture_graphs():
            pts = lattice_points(g)
            if len(pts) < 2:
                continue
            system = inequality_system(g)
            lat = pts.lattice
            merged: dict = {}
            for row in system:
                normal = [dot(row.normal, b) for b in lat.basis]
                rhs = row.rhs - dot(row.normal, lat.origin)
                if not any(normal):
                    assert rhs >= 0
                    continue
                d = 0
                for a in normal:
                    d = gcd(d, a)
                if d > 1 and rhs % d == 0:
                    normal, rhs = [a // d for a in normal], rhs // d
                key = (tuple(normal), rhs)
                if key in merged:
                    facet, source = merged[key]
                    assert facet == row.facet
                    merged[key] = (facet, f"{source}|{row.source}")
                else:
                    merged[key] = (row.facet, row.source)
            expected = [(*key, *value) for key, value in merged.items()]
            got = [(r.normal, r.rhs, r.facet, r.source) for r in _transport_flagged(system, lat)]
            assert got == expected, g.edges
            checked += len(got)
        assert checked > 5000

    def test_conflicting_flags_raise(self):
        lat = AffineLattice(2, (0, 0), ((1, 0), (0, 1)), (0, 1))
        rows = _system([((1, 0), 1, True, "A"), ((2, 0), 2, True, "B"), ((1, 0), 1, False, "C")])
        with pytest.raises(InconsistentFacetsError, match="flags: A[|]B vs C"):
            _transport_flagged(rows, lat)


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
        system = inequality_system(g)
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
    system = list(inequality_system(g))  # the rows as tuples, made once
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
            dilate = [z for z in dilate if contains(pts.lattice, z)]
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

    @pytest.mark.parametrize("t", (7, 15, 31))
    def test_row_values_at_the_integer_type_edges(self, t):
        """The largest row value v = k |a|_1 just below and just above 2^t
        and 2^(t-1).  The all-negative row holds everything, but its limit
        on the empty prefix is 2v, which a type one size too small wraps."""
        for v in (2 ** (t - 1) - 2, 2 ** (t - 1) + 2, 2**t - 2, 2**t + 2):
            a = v // 2 - 1  # 2 |(a, -1)|_1 = v
            normals, bound = [(a, -1), (-a, -1)], [a, v]
            codes = _dilate_codes(normals, bound, 2, 2)
            assert codes.tolist() == _box_codes(normals, bound, 2, 2) == list(range(6))

    def test_negative_limits_in_int8(self):
        # -x_1 <= -1 leaves the last prefixes the limit -1
        for normals, bound in (([(-1, 0)], [-1]), ([(0, -1), (1, -1)], [-2, -1])):
            codes = _dilate_codes(normals, bound, 2, 2)
            assert codes.tolist() == _box_codes(normals, bound, 2, 2)
            assert codes.size


class TestUnflaggedRows:
    def test_dilate_checks_compute_no_facet_flags(self, monkeypatch):
        """idp_check computes no rank: it reads the criterion flags alone.
        The rows it enumerates over are every bound row and the flagged
        odd-set rows of a nonbipartite graph, and the flagged rows and the
        balance pair of a bipartite one."""
        def refuse(*args):
            raise AssertionError("a rank was computed")

        enumerated = []

        def recording(normals, bound, n, k):
            enumerated.append((normals.tolist(), bound.tolist()))
            return _dilate_codes(normals, bound, n, k)

        for name in ("facet_scan", "affine_rank"):
            monkeypatch.setattr(polytope, name, refuse)
        monkeypatch.setattr(intlattice, "rank_mod_p", refuse)
        monkeypatch.setattr(polytope, "_dilate_codes", recording)
        triangle_with_tail = Graph(6, ((1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (5, 6)))
        graphs = (complete_graph(5), cycle_graph(5), triangle_with_tail, cycle_graph(6),
                  complete_bipartite_graph(2, 3), path_graph(4))
        cases = [(g, k) for g in graphs for k in (2, 3)]
        for g, k in cases:
            assert idp_check(g, k, "normality").ok
        monkeypatch.undo()
        assert len(enumerated) == len(cases)
        dropped = 0
        for (g, k), rows in zip(cases, enumerated):
            system = list(inequality_system(g))
            if bipartition(g) is None:
                kept = system[: 2 * g.n] + [i for i in system[2 * g.n :] if i.facet]
            else:
                kept = [i for i in system if i.facet or i.source.startswith("Balance")]
            dropped += len(system) - len(kept)
            assert rows == ([list(i.normal) for i in kept], [k * i.rhs for i in kept])
        assert dropped > 0

    def test_rows_match_the_flagged_system(self, connected_7):
        from pmsp.polytope import _nonbipartite_rows

        for g in connected_7:
            if bipartition(g) is not None:
                continue
            flagged = [(i.normal, i.rhs, i.source) for i in inequality_system(g)]
            normals, rhs, masks, _ = _nonbipartite_rows(g)
            sources = [f"{name}({v})" for name in ("NonNeg", "UpperOne") for v in g.vertices()]
            for mask in masks.tolist():
                members = ",".join(str(v) for v in g.vertices() if mask >> (v - 1) & 1)
                sources.append(f"OddSet({members})")
            rows = list(zip(map(tuple, normals.tolist()), rhs.tolist(), sources))
            assert rows == flagged
