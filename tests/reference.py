"""Per-point and per-subset reference routines in pure Python.

The package reduces, tests and enumerates whole point sets at once with
numpy (`_lattice_reduce`, `_lattice_codes`, `_row_values`,
`dilate_checks`), ranks stacks of point sets modulo primes
(`intlattice.affine_rank`), and the bipartite deciders test the rows of the
graph's inequality system in one product.  These one-at-a-time versions are
what the tests compare those array routines against; `affine_rank` here is
the exact rank over Q, by fraction-free elimination in Python integers.
"""

from __future__ import annotations

from itertools import compress
from math import gcd, lcm

import numpy as np

from pmsp import GorensteinCertificate, Verdict, bipartition, has_perfect_matching
from pmsp.graph import (
    cut_vertex_mask,
    mask_is_connected,
    mask_neighborhood,
    mask_vertices,
    proper_nonempty_submasks,
)
from pmsp.intlattice import INT64_SAFE, _point_matrix


def dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


class IntRowBasis:
    """Incremental rank over Q via exact integer elimination.

    Stored rows are indexed by their leading column; adding a vector reduces
    it against the stored rows and reports whether the rank grew.
    """

    def __init__(self) -> None:
        self.rows: dict[int, list[int]] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def add(self, vector) -> bool:
        v = list(vector)
        while True:
            lead = next(compress(range(len(v)), v), None)
            if lead is None:
                return False
            row = self.rows.get(lead)
            if row is None:
                g = gcd(*v)
                if v[lead] < 0:
                    g = -g
                self.rows[lead] = [x // g for x in v]
                return True
            a, b = row[lead], v[lead]
            g = gcd(a, b)
            ca, cb = a // g, b // g
            v = [ca * y - cb * x for x, y in zip(row, v)]

    def kernel(self, n: int) -> list[list[int]]:
        """Integer basis of the vectors of length n orthogonal to every
        stored row: the stored rows are brought to reduced echelon form
        without fractions, then each free column gives one kernel vector."""
        leads = sorted(self.rows)
        rows = {c: self.rows[c] for c in leads}
        for i in range(len(leads) - 1, 0, -1):
            c = leads[i]
            low = rows[c]
            for above in leads[:i]:
                row = rows[above]
                if row[c]:
                    g = gcd(low[c], row[c])
                    ca, cb = low[c] // g, row[c] // g
                    row = [ca * x - cb * y for x, y in zip(row, low)]
                    g = gcd(*row)
                    rows[above] = [x // g for x in row]
        scale = lcm(*(rows[c][c] for c in leads))
        kernel = []
        for free in range(n):
            if free in rows:
                continue
            v = [0] * n
            v[free] = scale
            for c in leads:
                v[c] = -rows[c][free] * (scale // rows[c][c])
            g = gcd(*v)
            kernel.append([x // g for x in v])
        return kernel


def _outside_span(kernel: list[list[int]], points: np.ndarray, base) -> list[int]:
    """Indices of the rows p of `points` with a nonzero product of p - base
    against some kernel row, i.e. outside the affine span the kernel
    annihilates.  One numpy product, in int64 when no partial sum can reach
    INT64_SAFE and in Python integers (object arrays) otherwise."""
    width = len(base) * max(abs(x) for row in kernel for x in row)
    top = max(int(points.max()), -int(points.min()), *map(abs, base))
    dtype = np.int64 if 2 * top * width < INT64_SAFE else object
    diffs = points.astype(dtype) - np.array(base, dtype=dtype)
    products = diffs @ np.array(kernel, dtype=dtype).T
    return np.flatnonzero(products.any(axis=1)).tolist()


def affine_rank(points, stop: int | None = None) -> int:
    """Affine dimension of the rows of an integer array (any other point
    list goes through `_point_matrix`): -1 for none, 0 for a single point.

    With `stop`, elimination ends as soon as the rank reaches it, so the
    result is min(rank, stop) for any stop >= 0; stop defaults to the
    ambient dimension.  The first 2 * (stop + 1) points after the first are
    eliminated one by one.  Later points come in chunks, each twice the
    last, and are first screened against an integer kernel basis of the
    rows found so far: the row space is exactly the annihilator of that
    kernel over Q, so only differences with a nonzero kernel product can
    raise the rank, and only they are eliminated.
    """
    if not isinstance(points, np.ndarray):
        points = _point_matrix(points)
    if not len(points):
        return -1
    base = points[0].tolist()
    n = len(base)
    stop = n if stop is None else min(stop, n)
    if stop == 0:
        return 0
    basis = IntRowBasis()
    size = 2 * (stop + 1)
    for p in points[1 : size + 1].tolist():
        if basis.add([x - y for x, y in zip(p, base)]) and basis.rank == stop:
            return stop
    kernel = None
    start = size + 1
    while start < len(points):
        chunk = points[start : start + size]
        if kernel is None:
            kernel = basis.kernel(n)
        for i in _outside_span(kernel, chunk, base):
            if basis.add([x - y for x, y in zip(chunk[i].tolist(), base)]):
                if basis.rank == stop:
                    return stop
                kernel = None
        start += size
        size *= 2
    return basis.rank


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


def facets_text(system) -> str:
    """The lines `pmsp facets --format text` prints for `system`, one
    f-string per row: the oracle of `RowSystem.to_text`."""
    lines = []
    for ineq in system:
        normal = " ".join(map(str, ineq.normal))
        tag = "facet" if ineq.facet else "valid"
        lines.append(f"{ineq.source}: [{normal}] <= {ineq.rhs} ({tag})")
    return "\n".join(lines)
