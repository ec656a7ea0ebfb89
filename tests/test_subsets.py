"""The subset tables against the per-mask loops they replace."""

import random
import tracemalloc
from collections import Counter
from itertools import combinations

import numpy as np
import pytest

from pmsp import (
    CorpusSpec,
    Graph,
    TooLargeError,
    agreement_sweep,
    brute_force_matchable,
    classify_all,
    generate_corpus,
    inequality_system,
    lattice_points,
    matchable_subsets,
)
from pmsp.graph import mask_component, mask_neighborhood, mask_two_color
from pmsp.matchable import mask_perfectly_matchable
from pmsp.oracle import BRUTE_FORCE_LIMIT
from pmsp.polytope import (
    _connected_after_internal_deletion,
    _nonbipartite_rows,
    _nonbipartite_system,
)
from pmsp.subsets import subset_tables

from .conftest import fixture_graphs


def reference_connected_after_internal_deletion(adj_masks, s_mask: int, gam: int) -> bool:
    """Connectivity of the induced graph on S and its neighborhood, with the
    edges inside the neighborhood removed, by a breadth-first search over
    the bits of one pair."""
    allowed = s_mask | gam
    comp = frontier = allowed & -allowed
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= adj_masks[low.bit_length()] & (s_mask if low & gam else allowed)
            frontier ^= low
        frontier = nxt & ~comp
        comp |= frontier
    return comp == allowed


def reference_odd_set_rows(g: Graph, matchable: frozenset[int]):
    """The flagged odd-set rows by one pass over all masks in increasing
    order, on the per-mask helpers of `pmsp.graph`: a disconnected mask
    reads its facts off the component of its lowest vertex and the rest,
    both smaller masks.  `matchable` holds the masks of the perfectly
    matchable sets."""
    adj = g.adj_masks
    n = g.n
    size = 1 << n
    count = bytearray(size)  # components of a candidate, 0 otherwise
    critical = bytearray(size)  # candidate whose components are all critical
    nonbipartite = bytearray(size)  # mask whose components are all nonbipartite
    nonbipartite[0] = 1
    for mask in range(1, size):
        low = mask & -mask
        comp = mask_component(adj, mask, low)
        if comp != mask:
            rest = mask ^ comp
            if count[comp] and count[rest]:
                count[mask] = count[rest] + 1
                critical[mask] = critical[comp] and critical[rest]
            nonbipartite[mask] = nonbipartite[comp] and nonbipartite[rest]
            continue
        odd = mask.bit_count() % 2
        if comp != low:
            nonbipartite[mask] = mask_two_color(adj, mask) is None
        if comp == low or (odd and nonbipartite[mask]):
            count[mask] = 1
            rest = mask
            while rest and mask ^ (rest & -rest) in matchable:
                rest &= rest - 1
            critical[mask] = not rest
    full = g.full_mask
    for s_mask in range(size):
        if not count[s_mask]:
            continue
        gam = mask_neighborhood(adj, s_mask)
        facet = bool(
            critical[s_mask]
            and nonbipartite[full & ~(s_mask | gam)]
            and reference_connected_after_internal_deletion(adj, s_mask, gam)
        )
        normal = tuple(
            1 if s_mask >> i & 1 else -1 if gam >> i & 1 else 0 for i in range(n)
        )
        members = ",".join(str(v) for v in range(1, n + 1) if s_mask >> (v - 1) & 1)
        yield normal, s_mask.bit_count() - count[s_mask], facet, f"OddSet({members})"


def seeded_graphs() -> list[Graph]:
    """Sparse, middling and dense G(n, m) for n = 9..14, connected or not."""
    rng = random.Random(11)
    graphs = []
    for n in range(9, 15):
        pairs = list(combinations(range(1, n + 1), 2))
        for m in (n + 1, 2 * n, len(pairs) // 2):
            graphs.append(Graph(n, rng.sample(pairs, m)))
    return graphs


def compared_graphs(connected_7, pseudotrees_9) -> list[Graph]:
    small_fixtures = [g for g in fixture_graphs() if g.n <= 14]
    return connected_7 + pseudotrees_9 + small_fixtures + seeded_graphs()


def matchable_masks(g: Graph) -> frozenset[int]:
    """The matchable masks by brute force, or by the memoized branching
    search over the brute-force budget."""
    if g.n <= BRUTE_FORCE_LIMIT:
        return frozenset(s.mask for s in brute_force_matchable(g))
    memo: dict[int, bool] = {}
    return frozenset(m for m in range(1 << g.n) if mask_perfectly_matchable(g.adj_masks, m, memo))


def test_tables_match_the_per_mask_loops(connected_7, pseudotrees_9):
    """The odd-set rows follow the 2n bound rows.  The unflagged rows carry
    the normals and right-hand sides of the flagged ones: the flags change
    no candidate."""
    for g in compared_graphs(connected_7, pseudotrees_9):
        matchable = matchable_masks(g)
        family = matchable_subsets(g)
        assert [s.mask for s in family] == sorted(matchable, key=lambda m: (m.bit_count(), m))
        expected = list(reference_odd_set_rows(g, matchable))
        system = _nonbipartite_system(g)
        rows = [(row.normal, row.rhs, row.facet, row.source) for row in system]
        assert rows[2 * g.n :] == expected, g.edges
        normals, rhs, _, _ = _nonbipartite_rows(g)
        unflagged = list(zip(map(tuple, normals.tolist()), rhs.tolist()))
        assert unflagged[2 * g.n :] == [row[:2] for row in expected]


def test_closure_matches_the_per_row_search(connected_7):
    """The array closure agrees with the breadth-first search on every
    nonempty set S and its neighborhood."""
    for g in connected_7 + seeded_graphs():
        tables = subset_tables(g)
        masks = np.arange(1, 1 << g.n)
        gams = tables.neighbors[masks] & ~masks
        got = _connected_after_internal_deletion(tables.neighbors, masks, gams)
        expected = [
            reference_connected_after_internal_deletion(g.adj_masks, s, gam)
            for s, gam in zip(masks.tolist(), gams.tolist())
        ]
        assert got.tolist() == expected, g.edges


def test_tables_stay_out_of_equality_hash_and_json():
    """A graph that holds its tables, point set, lattice and row system
    equals, hashes and serializes like a fresh copy."""
    edges = ((1, 2), (2, 3), (1, 3), (3, 4), (4, 5))
    g, fresh = Graph(5, edges), Graph(5, edges)
    inequality_system(g)
    assert lattice_points(g).lattice.rank == 5
    tables = g._tables
    assert tables.points is not None and tables.system is not None
    assert fresh._tables is None
    assert g == fresh and hash(g) == hash(fresh)
    assert g.to_json() == fresh.to_json()
    assert subset_tables(g) is subset_tables(g)


def test_point_set_and_system_are_kept_read_only():
    triangle_with_tail = Graph(5, ((1, 2), (2, 3), (1, 3), (3, 4), (4, 5)))
    for g in (triangle_with_tail, Graph(4, ((1, 2), (2, 3), (3, 4)))):
        pts, system = lattice_points(g), inequality_system(g)
        assert lattice_points(g) is pts and inequality_system(g) is system
        assert pts.lattice is lattice_points(g).lattice
        for array in (pts.matrix, system.normals, system.rhs, system.facet):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0


def _count_builds(monkeypatch) -> tuple[Counter, Counter]:
    """Count the lattices built, keyed by their points, and the inequality
    systems built, keyed by their graph."""
    import pmsp.polytope as polytope

    lattices: Counter = Counter()
    systems: Counter = Counter()
    from_points = polytope.AffineLattice.from_points.__func__

    def counted_lattice(cls, points):
        lattices[points.tobytes(), points.shape] += 1
        return from_points(cls, points)

    def counted(build):
        def wrapper(g):
            systems[g] += 1
            return build(g)

        return wrapper

    monkeypatch.setattr(polytope.AffineLattice, "from_points", classmethod(counted_lattice))
    for name in ("_bipartite_system", "_nonbipartite_system"):
        monkeypatch.setattr(polytope, name, counted(getattr(polytope, name)))
    return lattices, systems


def test_sweep_builds_one_lattice_and_one_system_per_graph(monkeypatch):
    """The level-count oracle and the geometric search of a sweep share the
    graph's point set, lattice and row system."""
    spec = CorpusSpec(max_n=6, family="pseudotree")
    graphs = len(list(generate_corpus(spec)))
    lattices, systems = _count_builds(monkeypatch)
    report = agreement_sweep(spec)
    assert report.ok
    assert sum(r.property_name == "gorenstein" for r in report.records) == graphs
    assert len(lattices) == len(systems) == graphs
    assert set(lattices.values()) == set(systems.values()) == {1}


def test_classify_builds_one_lattice_per_component(monkeypatch):
    """A geometric-route component shares its lattice between the
    Gorenstein search and the normality dilate check."""
    nonbip8 = [(1, 2), (1, 5), (1, 7), (2, 3), (2, 7), (2, 8), (3, 6), (3, 8), (4, 5),
               (5, 7), (6, 8)]
    lattices, _ = _count_builds(monkeypatch)
    report = classify_all(Graph(8, nonbip8))
    assert report.components[0].gorenstein.method == "geometric"
    assert list(lattices.values()) == [1]
    lattices.clear()
    report = classify_all(Graph(11, nonbip8 + [(9, 10), (10, 11), (9, 11)]))
    assert report.components[0].gorenstein.method == "geometric"
    assert list(lattices.values()) == [1, 1]


def test_over_budget_graph_allocates_no_table():
    path = Graph(21, [(v, v + 1) for v in range(1, 21)])
    tracemalloc.start()
    try:
        with pytest.raises(TooLargeError, match="subset tables support n <= 20"):
            subset_tables(path)
        with pytest.raises(TooLargeError, match="matchable_subsets supports n <= 20"):
            matchable_subsets(path)
        with pytest.raises(TooLargeError, match="capped at 20 vertices, got 21"):
            inequality_system(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (1 << 21) // 4, peak  # one 2^21 table takes at least 2 MiB
    assert path._tables is None
    # the same accounting sees a table of the smallest dtype
    tracemalloc.start()
    try:
        table = np.zeros(1 << 21, dtype=bool)
        table[::4096] = True
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak >= 1 << 21
