"""Per-point and per-subset reference routines in pure Python.

The package reduces, tests and enumerates whole point sets at once with
numpy (`_lattice_reduce`, `_lattice_codes`, `_row_values`,
`dilate_checks`), and the bipartite deciders test the rows of the graph's
inequality system in one product.  These one-at-a-time versions are what
the tests compare those array routines against.
"""

from __future__ import annotations

from pmsp import GorensteinCertificate, Verdict, bipartition, has_perfect_matching
from pmsp.graph import (
    cut_vertex_mask,
    mask_is_connected,
    mask_neighborhood,
    mask_vertices,
    proper_nonempty_submasks,
)


def dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


def lattice_coordinates(basis, pivots, vector) -> list[int] | None:
    """Integer coordinates of `vector` in the Hermite basis, or None if outside."""
    v = list(vector)
    coords = []
    for row, p in zip(basis, pivots):
        q, r = divmod(v[p], row[p])
        if r:
            return None
        if q:
            v = [a - q * b for a, b in zip(v, row)]
        coords.append(q)
    if any(v):
        return None
    return coords


def coordinates(lat, point) -> tuple[int, ...] | None:
    """Coordinates of `point` in the affine lattice `lat`, or None if outside."""
    diff = [x - o for x, o in zip(point, lat.origin)]
    coords = lattice_coordinates(lat.basis, lat.pivots, diff)
    return None if coords is None else tuple(coords)


def contains(lat, point) -> bool:
    return coordinates(lat, point) is not None


def membership(rows, point, k: int = 1) -> bool:
    """Whether a point satisfies every inequality of the k-th dilate."""
    return all(dot(row.normal, point) <= k * row.rhs for row in rows)


def bipartite_cuts(g, v1m: int, v2m: int):
    """Yield (S, N(S), facet) for every proper nonempty subset S of the color
    class `v1m`, sorted by (cardinality, bitmask); facet holds when S plus
    N(S) and the complementary pair both induce connected subgraphs."""
    adj = g.adj_masks
    for s in proper_nonempty_submasks(v1m):
        gam = mask_neighborhood(adj, s)
        rest = (v1m & ~s) | (v2m & ~gam)
        yield s, gam, mask_is_connected(adj, s | gam) and mask_is_connected(adj, rest)


def _non_cut_of_degree_two(g, cuts: int) -> bool:
    return any(g.degree(v) >= 2 and not (cuts >> (v - 1)) & 1 for v in g.vertices())


def solve_interior_vector(g) -> GorensteinCertificate | None:
    """The forced interior-vector system, one index and one subset at a time,
    for a connected bipartite graph within the subset-scan budget."""
    v1, v2 = bipartition(g)
    if g.n == 1:
        return GorensteinCertificate(1, (), (0,), degenerate=True)
    cuts = cut_vertex_mask(g)
    indices = (2,) if _non_cut_of_degree_two(g, cuts) else range(2, g.n + 1)
    for index in indices:
        alpha = [1 if not (cuts >> (v - 1)) & 1 else index - 1 for v in g.vertices()]
        if sum(a if (v1.mask >> i) & 1 else -a for i, a in enumerate(alpha)) != 0:
            continue
        if all(
            sum(a if (s >> i) & 1 else (-a if (gam >> i) & 1 else 0) for i, a in enumerate(alpha))
            == -1
            for s, gam, facet in bipartite_cuts(g, v1.mask, v2.mask)
            if facet
        ):
            ambient = tuple(alpha)
            return GorensteinCertificate(index, ambient[:-1], ambient)
    return None


def gorenstein_bipartite(g) -> Verdict:
    """The neighborhood-surplus test, one subset at a time, for a connected
    bipartite graph within the subset-scan budget."""
    v1, v2 = bipartition(g)
    if not _non_cut_of_degree_two(g, cut_vertex_mask(g)):
        cert = solve_interior_vector(g)
        return Verdict(
            "gorenstein",
            cert is not None,
            "interior-vector-system",
            hypothesis_ok=False,
            witness=None if cert else {"reason": "interior-vector-system-unsolvable"},
            certificate=cert,
        )
    if not has_perfect_matching(g):
        return Verdict(
            "gorenstein", False, "neighborhood-surplus", witness={"reason": "no-perfect-matching"}
        )
    for s, gam, facet in bipartite_cuts(g, v1.mask, v2.mask):
        if facet and gam.bit_count() != s.bit_count() + 1:
            witness = {"subset": list(mask_vertices(s)), "neighborhood": list(mask_vertices(gam))}
            return Verdict("gorenstein", False, "neighborhood-surplus", witness=witness)
    ones = (1,) * g.n
    return Verdict(
        "gorenstein", True, "neighborhood-surplus", certificate=GorensteinCertificate(2, ones[:-1], ones)
    )
