"""Polytopes of perfectly matchable vertex sets.

The polytope of a graph is the convex hull of the indicator vectors of its
perfectly matchable vertex sets (the empty set included).  This module
enumerates the lattice points, emits the known inequality description with
per-row facet flags, normalizes away the affine hull, and decides geometric
properties (facet ranks, Gorenstein interior vectors, dilate decompositions)
in exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DegeneratePointSetError,
    DisconnectedError,
    InconsistentFacetsError,
    NotAFacetError,
    NotBipartiteError,
    TooLargeError,
)
from .graph import (
    Graph,
    bipartition,
    cut_vertex_mask,
    is_connected,
    mask_component,
    mask_components,
    mask_is_bipartite,
    mask_is_connected,
    mask_neighborhood,
    mask_vertices,
    proper_nonempty_submasks,
)
from .intlattice import (
    affine_rank,
    as_integer_vector,
    dot,
    hnf_rows,
    lattice_coordinates,
    primitivize,
    solve_unique_rational,
)
from .matchable import matchable_subsets, mask_perfectly_matchable

DILATE_VERTEX_LIMIT = 10


@dataclass(frozen=True)
class AffineLattice:
    """Affine lattice `origin + Z-span(basis)` with a Hermite basis."""

    ambient_n: int
    origin: tuple[int, ...]
    basis: tuple[tuple[int, ...], ...]
    pivots: tuple[int, ...]

    @classmethod
    def from_points(cls, points) -> "AffineLattice":
        pts = list(points)
        if not pts:
            raise DegeneratePointSetError("no points to span a lattice")
        origin = tuple(pts[0])
        basis: list[tuple[int, ...]] = []
        pivots: list[int] = []
        for p in pts[1:]:
            diff = [x - o for x, o in zip(p, origin)]
            if lattice_coordinates(basis, pivots, diff) is None:
                basis_rows = [list(r) for r in basis] + [diff]
                new_basis, new_pivots = hnf_rows(basis_rows)
                basis, pivots = new_basis, new_pivots
        return cls(len(origin), origin, tuple(basis), tuple(pivots))

    @property
    def rank(self) -> int:
        return len(self.basis)

    def coordinates(self, point) -> tuple[int, ...] | None:
        diff = [x - o for x, o in zip(point, self.origin)]
        coords = lattice_coordinates(self.basis, self.pivots, diff)
        return None if coords is None else tuple(coords)

    def contains(self, point) -> bool:
        return self.coordinates(point) is not None


@dataclass(frozen=True)
class PointSet:
    """Indicator vectors of the matchable sets `masks`, as tuples and as the
    0/1 rows of an int64 `matrix`, plus the affine lattice they span."""

    ambient_n: int
    points: tuple[tuple[int, ...], ...]
    masks: tuple[int, ...]
    matrix: np.ndarray = field(compare=False, repr=False)

    @cached_property
    def lattice(self) -> AffineLattice:
        return AffineLattice.from_points(self.points)

    def __len__(self) -> int:
        return len(self.points)

    def to_json(self) -> dict:
        return {
            "ambient_dimension": self.ambient_n,
            "count": len(self.points),
            "points": [list(p) for p in self.points],
        }


@dataclass(frozen=True)
class AffineInequality:
    """One inequality `normal . x <= rhs` with a criterion-derived facet flag."""

    normal: tuple[int, ...]
    rhs: int
    facet: bool
    source: str

    def value(self, point) -> int:
        return dot(self.normal, point)

    def to_json(self) -> dict:
        return {
            "normal": list(self.normal),
            "rhs": self.rhs,
            "facet": self.facet,
            "source": self.source,
        }


@dataclass(frozen=True)
class NormalizationMap:
    """Invertible affine map between ambient and full-dimensional coordinates.

    `coordinate-drop` removes the last coordinate of a connected bipartite
    graph (the balance equality makes it redundant); `lattice-basis` rewrites
    points in Hermite-basis coordinates of the lattice they span.
    """

    kind: str
    ambient_n: int
    dropped: int | None = None
    plus_mask: int = 0
    minus_mask: int = 0
    origin: tuple[int, ...] = ()
    basis: tuple[tuple[int, ...], ...] = ()
    pivots: tuple[int, ...] = ()

    def _balance_value(self, reduced) -> int:
        total = 0
        for i, x in enumerate(reduced):
            bit = 1 << i
            if self.plus_mask & bit:
                total += x
            elif self.minus_mask & bit:
                total -= x
        return total

    def to_normalized(self, point) -> tuple[int, ...] | None:
        if self.kind == "coordinate-drop":
            reduced = tuple(point[:-1])
            if point[-1] != self._balance_value(reduced):
                return None
            return reduced
        diff = [x - o for x, o in zip(point, self.origin)]
        coords = lattice_coordinates(self.basis, self.pivots, diff)
        return None if coords is None else tuple(coords)

    def to_ambient(self, reduced) -> tuple[int, ...]:
        if self.kind == "coordinate-drop":
            return tuple(reduced) + (self._balance_value(reduced),)
        out = list(self.origin)
        for c, row in zip(reduced, self.basis):
            if c:
                for i, x in enumerate(row):
                    out[i] += c * x
        return tuple(out)

    def transport(self, normal, rhs: int) -> tuple[tuple[int, ...], int]:
        """Rewrite an ambient inequality in normalized coordinates."""
        if self.kind == "coordinate-drop":
            last = normal[-1]
            out = []
            for i, a in enumerate(normal[:-1]):
                bit = 1 << i
                if self.plus_mask & bit:
                    out.append(a + last)
                elif self.minus_mask & bit:
                    out.append(a - last)
                else:
                    out.append(a)
            return tuple(out), rhs
        out = tuple(dot(normal, row) for row in self.basis)
        return out, rhs - dot(normal, self.origin)


@dataclass(frozen=True)
class NormalizedPolytope:
    """Full-dimensional model of the polytope after removing its affine hull."""

    dim: int
    points: tuple[tuple[int, ...], ...]
    facets: tuple[AffineInequality, ...]
    transform: NormalizationMap


@dataclass(frozen=True)
class GorensteinCertificate:
    """Dilation index and the unique interior lattice vector witnessing it."""

    index: int
    interior_point: tuple[int, ...]
    interior_point_ambient: tuple[int, ...]
    degenerate: bool = False

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "interior_point": list(self.interior_point),
            "interior_point_ambient": list(self.interior_point_ambient),
            "degenerate": self.degenerate,
        }


@dataclass(frozen=True)
class DilateCheck:
    """Outcome of one dilate decomposition sweep."""

    k: int
    mode: str
    ok: bool
    witness: tuple[int, ...] | None
    dilate_point_count: int

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "mode": self.mode,
            "ok": self.ok,
            "witness": None if self.witness is None else list(self.witness),
            "dilate_point_count": self.dilate_point_count,
        }


@dataclass(frozen=True)
class FacetCheckEntry:
    source: str
    criterion: bool
    geometric: bool
    valid: bool

    def to_json(self) -> dict:
        return {
            "source": self.source,
            "criterion": self.criterion,
            "geometric": self.geometric,
            "valid": self.valid,
        }


@dataclass(frozen=True)
class FacetCheckReport:
    dimension: int
    checked: int
    disagreements: tuple[FacetCheckEntry, ...]

    @property
    def ok(self) -> bool:
        return not self.disagreements

    def to_json(self) -> dict:
        return {
            "dimension": self.dimension,
            "checked": self.checked,
            "ok": self.ok,
            "disagreements": [e.to_json() for e in self.disagreements],
        }


def lattice_points(g: Graph) -> PointSet:
    """All lattice points of the polytope: indicators of matchable sets."""
    masks = tuple(s.mask for s in matchable_subsets(g).subsets)
    matrix = np.array(masks, dtype=np.int64)[:, None] >> np.arange(g.n) & 1
    pts = tuple(map(tuple, matrix.tolist()))
    return PointSet(g.n, pts, masks, matrix)


def dimension(g: Graph) -> int:
    """Dimension of the polytope: n minus the number of bipartite components."""
    comps = mask_components(g.adj_masks, g.full_mask)
    return g.n - sum(mask_is_bipartite(g.adj_masks, c) for c in comps)


INT64_SAFE = 1 << 62  # bound on |normal|_1 * max|x_i| for int64 row values
_VALUES_BLOCK = 1 << 14  # row values (rows x points) multiplied out at a time


def _point_matrix(points) -> np.ndarray:
    """Points as the rows of an int64 array, or of Python ints if one overflows."""
    try:
        return np.array(points, dtype=np.int64)
    except OverflowError:
        return np.array(points, dtype=object)


def _row_values(normals, matrix: np.ndarray):
    """Yield one array of exact values `normal . x` over the rows x of
    `matrix` per normal: in int64 when no partial sum can reach INT64_SAFE,
    in Python integers otherwise, a block of normals at a time."""
    if not normals:
        return
    reach = max(sum(map(abs, normal)) for normal in normals)
    reach *= max(1, int(abs(matrix).max(initial=0)))
    dtype = np.int64 if reach < INT64_SAFE else object
    normals = np.array(normals, dtype=dtype)
    points_t = matrix.astype(dtype, copy=False).T
    step = max(1, _VALUES_BLOCK // max(1, len(matrix)))
    for start in range(0, len(normals), step):
        yield from normals[start : start + step] @ points_t


def facet_scan(points, dim: int, rows, matrix: np.ndarray | None = None):
    """Yield (values, facet) per row (normal, rhs): `normal . p` for every
    point p, and whether the row's tight points have affine rank dim - 1,
    dim being the rank of all the points.  Tight on some but not all points,
    a row cuts their affine hull in a hyperplane, so the rank cannot pass
    dim - 1 and elimination stops there.  Validity is left to the caller.
    """
    if matrix is None:
        matrix = _point_matrix(points)
    total = len(points)
    normals = [normal for normal, _ in rows]
    for (_, rhs), values in zip(rows, _row_values(normals, matrix)):
        tight = np.flatnonzero(values == rhs).tolist()
        facet = 0 < len(tight) < total and affine_rank(
            [points[i] for i in tight], dim - 1
        ) == dim - 1
        yield values, facet


def _bipartite_system(g: Graph) -> list[AffineInequality]:
    v1, v2 = bipartition(g)
    v1m, v2m = v1.mask, v2.mask
    n = g.n
    cuts = cut_vertex_mask(g)
    rows: list[AffineInequality] = []
    for v in range(1, n + 1):
        normal = tuple(-1 if i == v - 1 else 0 for i in range(n))
        facet = n > 1 and not (cuts >> (v - 1)) & 1
        rows.append(AffineInequality(normal, 0, facet, f"NonNeg({v})"))
    for v in range(1, n + 1):
        normal = tuple(1 if i == v - 1 else 0 for i in range(n))
        if n == 1:
            facet = False
        elif g.edge_count == 1:
            facet = True
        else:
            facet = g.degree(v) >= 2
        rows.append(AffineInequality(normal, 1, facet, f"UpperOne({v})"))
    for sub in proper_nonempty_submasks(v1m):
        gam = mask_neighborhood(g.adj_masks, sub)
        normal = tuple(
            1 if sub >> i & 1 else (-1 if gam >> i & 1 else 0) for i in range(n)
        )
        rest = (v1m & ~sub) | (v2m & ~gam)
        facet = mask_is_connected(g.adj_masks, sub | gam) and mask_is_connected(
            g.adj_masks, rest
        )
        members = ",".join(str(v) for v in mask_vertices(sub))
        rows.append(AffineInequality(normal, 0, facet, f"BipartiteCut({members})"))
    balance = tuple(1 if v1m >> i & 1 else -1 for i in range(n))
    rows.append(AffineInequality(balance, 0, False, "Balance(upper)"))
    rows.append(
        AffineInequality(tuple(-a for a in balance), 0, False, "Balance(lower)")
    )
    return rows


def _odd_set_candidates(g: Graph) -> list[int]:
    """Vertex sets whose induced components are single vertices or odd nonbipartite.

    One pass in increasing order: a mask qualifies when the component of its
    lowest vertex and the rest, both smaller masks unless it is connected, do.
    """
    adj = g.adj_masks
    size = 1 << g.n
    good = bytearray(size)
    good[0] = 1
    for mask in range(1, size):
        low = mask & -mask
        comp = mask_component(adj, mask, low)
        if comp != mask:
            good[mask] = good[comp] and good[mask ^ comp]
        elif comp == low or (mask.bit_count() % 2 and not mask_is_bipartite(adj, mask)):
            good[mask] = 1
    return [mask for mask in range(1, size) if good[mask]]


def _connected_after_internal_deletion(adj_masks, s_mask: int, gam: int) -> bool:
    """Connectivity of the induced graph on S and its neighborhood, with the
    edges inside the neighborhood removed."""
    allowed = s_mask | gam
    start = allowed & -allowed
    comp = start
    frontier = start
    while frontier:
        nxt = 0
        for v in mask_vertices(frontier):
            reach = adj_masks[v] & (s_mask if (gam >> (v - 1)) & 1 else allowed)
            nxt |= reach
        frontier = nxt & ~comp
        comp |= frontier
    return comp == allowed


def _odd_component_critical(adj_masks, comp: int, memo: dict[int, bool]) -> bool:
    if comp.bit_count() == 1:
        return True
    for v in mask_vertices(comp):
        if not mask_perfectly_matchable(adj_masks, comp & ~(1 << (v - 1)), memo):
            return False
    return True


def _nonbipartite_system(g: Graph, pts: PointSet) -> list[AffineInequality]:
    n = g.n
    adj = g.adj_masks
    full = g.full_mask
    bounds = [
        (tuple(sign if i == v - 1 else 0 for i in range(n)), rhs, f"{name}({v})")
        for sign, rhs, name in ((-1, 0, "NonNeg"), (1, 1, "UpperOne"))
        for v in range(1, n + 1)
    ]
    scan = facet_scan(pts.points, n, [row[:2] for row in bounds], pts.matrix)
    rows = [
        AffineInequality(normal, rhs, facet, source)
        for (normal, rhs, source), (_, facet) in zip(bounds, scan)
    ]
    memo: dict[int, bool] = {}
    for s_mask in _odd_set_candidates(g):
        comps = mask_components(adj, s_mask)
        gam = mask_neighborhood(adj, s_mask) & ~s_mask
        rhs = s_mask.bit_count() - len(comps)
        normal = tuple(
            1 if s_mask >> i & 1 else (-1 if gam >> i & 1 else 0) for i in range(n)
        )
        facet = all(_odd_component_critical(adj, c, memo) for c in comps)
        if facet:
            outside = full & ~(s_mask | gam)
            facet = all(
                not mask_is_bipartite(adj, c) for c in mask_components(adj, outside)
            )
        if facet:
            facet = _connected_after_internal_deletion(adj, s_mask, gam)
        members = ",".join(str(v) for v in mask_vertices(s_mask))
        rows.append(AffineInequality(normal, rhs, facet, f"OddSet({members})"))
    return rows


def inequality_system(g: Graph, pts: PointSet | None = None) -> tuple[AffineInequality, ...]:
    """Complete inequality description of the polytope with facet flags.

    Connected graphs only.  Bipartite graphs get bound rows, one row per
    proper nonempty subset of the first color class, and the balance pair;
    nonbipartite graphs get bound rows (flagged geometrically) and one row
    per admissible odd vertex set.
    """
    if not is_connected(g):
        raise DisconnectedError("inequality systems are defined per connected graph")
    if g.n > 20:
        raise TooLargeError(f"inequality system enumeration capped at 20 vertices, got {g.n}")
    if bipartition(g) is not None:
        return tuple(_bipartite_system(g))
    if pts is None:
        pts = lattice_points(g)
    return tuple(_nonbipartite_system(g, pts))


def membership(system, point, k: int = 1) -> bool:
    """Whether a point satisfies every inequality of the k-th dilate."""
    return all(ineq.value(point) <= k * ineq.rhs for ineq in system)


def facet_levels(pts: PointSet, ineq: AffineInequality) -> tuple[int, ...]:
    """Distinct values of normal . x - rhs over the lattice points, ascending.

    Every level is <= 0, and a facet row always realises level 0.
    """
    if not ineq.facet:
        raise NotAFacetError(f"row {ineq.source} is not flagged as a facet")
    return tuple(sorted({ineq.value(p) - ineq.rhs for p in pts.points}))


def _geometric_facet_flags(points, dim: int, rows) -> list[bool]:
    flags = []
    for (normal, rhs), (values, facet) in zip(rows, facet_scan(points, dim, rows)):
        if values.max() > rhs:
            raise InconsistentFacetsError(
                f"inequality {normal} <= {rhs} is violated by a lattice point"
            )
        flags.append(facet)
    return flags


def verify_facet_flags(g: Graph) -> FacetCheckReport:
    """Compare criterion facet flags against exact active-set ranks."""
    pts = lattice_points(g)
    system = inequality_system(g, pts)
    dim = pts.lattice.rank
    rows = [(ineq.normal, ineq.rhs) for ineq in system]
    disagreements = []
    for ineq, (values, facet) in zip(system, facet_scan(pts.points, dim, rows, pts.matrix)):
        valid = bool(values.max() <= ineq.rhs)
        geometric = valid and facet
        if not valid or geometric != ineq.facet:
            disagreements.append(
                FacetCheckEntry(ineq.source, ineq.facet, geometric, valid)
            )
    return FacetCheckReport(dim, len(system), tuple(disagreements))


def _transport_flagged(system, transform) -> tuple[list[tuple[tuple[int, ...], int]], list[str], list[bool]]:
    """Transport all rows, primitivize, and merge coincident ones.

    Returns unique (normal, rhs) rows, merged source strings, and criterion
    flags.  Zero rows (the balance pair after a coordinate drop) are removed;
    coincident rows with conflicting flags raise.
    """
    merged: dict[tuple[tuple[int, ...], int], tuple[str, bool]] = {}
    for ineq in system:
        normal, rhs = transform.transport(ineq.normal, ineq.rhs)
        if not any(normal):
            if rhs < 0:
                raise InconsistentFacetsError(
                    f"row {ineq.source} became infeasible after normalization"
                )
            continue
        normal, rhs = primitivize(normal, rhs)
        key = (normal, rhs)
        if key in merged:
            source, flag = merged[key]
            if flag != ineq.facet:
                raise InconsistentFacetsError(
                    f"coincident rows with conflicting facet flags: {source} vs {ineq.source}"
                )
            merged[key] = (f"{source}|{ineq.source}", flag)
        else:
            merged[key] = (ineq.source, ineq.facet)
    rows = list(merged)
    sources = [merged[k][0] for k in rows]
    flags = [merged[k][1] for k in rows]
    return rows, sources, flags


def bipartite_projection(
    g: Graph, pts: PointSet | None = None, system=None
) -> NormalizedPolytope:
    """Drop the last coordinate of a connected bipartite graph's polytope.

    The balance equality recovers the dropped coordinate, so this is a lattice
    isomorphism onto a full-dimensional polytope.
    """
    sides = bipartition(g)
    if sides is None:
        raise NotBipartiteError("coordinate-drop normalization needs a bipartite graph")
    if not is_connected(g):
        raise DisconnectedError("coordinate-drop normalization needs a connected graph")
    if pts is None:
        pts = lattice_points(g)
    if system is None:
        system = inequality_system(g, pts)
    n = g.n
    v1m, v2m = sides[0].mask, sides[1].mask
    last = 1 << (n - 1)
    plus = v2m if v1m & last else v1m
    minus = (v1m if v1m & last else v2m) & ~last
    transform = NormalizationMap(
        kind="coordinate-drop",
        ambient_n=n,
        dropped=n,
        plus_mask=plus,
        minus_mask=minus,
    )
    points = tuple(p[:-1] for p in pts.points)
    rows, sources, flags = _transport_flagged(system, transform)
    facets = tuple(
        AffineInequality(normal, rhs, True, source)
        for (normal, rhs), source, flag in zip(rows, sources, flags)
        if flag
    )
    return NormalizedPolytope(n - 1, points, facets, transform)


def normalize_lattice(pts: PointSet, system) -> NormalizedPolytope:
    """Rewrite the polytope in coordinates of the lattice its points span."""
    if len(pts.points) < 2:
        raise DegeneratePointSetError("need at least two points to normalize")
    lat = pts.lattice
    transform = NormalizationMap(
        kind="lattice-basis",
        ambient_n=pts.ambient_n,
        origin=lat.origin,
        basis=lat.basis,
        pivots=lat.pivots,
    )
    points = []
    for p in pts.points:
        coords = transform.to_normalized(p)
        if coords is None:
            raise DegeneratePointSetError("point outside its own spanning lattice")
        points.append(coords)
    rows, sources, flags = _transport_flagged(system, transform)
    facets = tuple(
        AffineInequality(normal, rhs, True, source)
        for (normal, rhs), source, flag in zip(rows, sources, flags)
        if flag
    )
    return NormalizedPolytope(lat.rank, tuple(points), facets, transform)


def gorenstein_geometric(g: Graph) -> GorensteinCertificate | None:
    """Search for the dilation index and interior vector by exact solving.

    Works in normalized (full-dimensional, point-lattice) coordinates.  Facet
    rows are selected geometrically and cross-checked against the criterion
    flags; a mismatch raises InconsistentFacetsError.  Returns None when no
    dilation up to dim+1 has a valid interior lattice vector.
    """
    if not is_connected(g):
        raise DisconnectedError("the geometric decision procedure needs a connected graph")
    pts = lattice_points(g)
    if len(pts.points) == 1:
        return GorensteinCertificate(1, (), pts.points[0], degenerate=True)
    system = inequality_system(g, pts)
    if bipartition(g) is not None:
        norm = bipartite_projection(g, pts, system)
    else:
        norm = normalize_lattice(pts, system)
    dim = norm.dim
    rows, sources, flags = _transport_flagged(system, norm.transform)
    geometric = _geometric_facet_flags(norm.points, dim, rows)
    for (normal, rhs), source, flag, geo in zip(rows, sources, flags, geometric):
        if flag != geo:
            raise InconsistentFacetsError(
                f"facet flag mismatch for {source}: criterion={flag}, geometric={geo}"
            )
    facet_rows = [row for row, geo in zip(rows, geometric) if geo]
    normals = [row[0] for row in facet_rows]
    for index in range(1, dim + 2):
        rhs_vec = [index * rhs - 1 for _, rhs in facet_rows]
        alpha = as_integer_vector(solve_unique_rational(normals, rhs_vec))
        if alpha is None:
            continue
        if all(dot(normal, alpha) < index * rhs for normal, rhs in rows):
            return GorensteinCertificate(
                index, alpha, norm.transform.to_ambient(alpha)
            )
    return None


_DILATE_BLOCK = 1 << 16  # row values (parents x digits x rows) extended at a time


def _dilate_codes(normals, bound, n: int, k: int) -> np.ndarray:
    """Ascending codes of the points x of [0, k]^n with normals @ x <= bound.

    The code of x is sum x_i (k+1)^(n-1-i), so numeric order is lex order.
    Coordinates are fixed one at a time, carrying the row values of each
    prefix.  A prefix is dropped once some row exceeds its bound even with
    every later coordinate at its least share, k * min(0, a_i); fixing x_j
    moves neither the value nor the limit of a row with a_j = 0, so only
    the other rows are tested.  Children follow their parent in ascending
    digit order, so each level is in lex order.  Row values are int64 when
    no bound and no k * |normal|_1 reaches INT64_SAFE, Python ints otherwise.
    """
    reach = max([k * sum(map(abs, row)) for row in normals] + list(map(abs, bound)), default=0)
    dtype = np.int64 if reach < INT64_SAFE else object
    cols = np.array(normals, dtype=dtype).reshape(-1, n).T
    m = cols.shape[1]
    # limits[j]: the most each row may take on a prefix of length j
    tails = np.zeros((n + 1, m), dtype=dtype)
    tails[:n] = np.cumsum((k * np.minimum(cols, 0))[::-1], axis=0)[::-1]
    limits = np.array(bound, dtype=dtype) - tails
    codes = np.zeros(int((limits[0] >= 0).all()), dtype=np.int64)
    values = np.zeros((len(codes), m), dtype=dtype)
    digits = np.arange(k + 1)
    step = max(1, _DILATE_BLOCK // ((k + 1) * max(1, m)))
    for j in range(n):
        last = j == n - 1
        rows = np.flatnonzero(cols[j])
        moves = digits[:, None] * cols[j, rows]
        next_codes, next_values = [codes[:0]], [values[:0]]
        for start in range(0, len(codes), step):
            block = values[start : start + step]
            keep = (block[:, rows][:, None] + moves <= limits[j + 1, rows]).all(axis=2)
            parent, digit = np.nonzero(keep)
            next_codes.append(codes[start + parent] * (k + 1) + digit)
            if not last:
                next_values.append(block[parent] + digit[:, None] * cols[j])
        codes = np.concatenate(next_codes)
        if not last:
            values = np.concatenate(next_values)
    return codes


def _lattice_codes(
    codes: np.ndarray, weights: np.ndarray, k: int, lat: AffineLattice
) -> np.ndarray:
    """The codes whose points lie in `lat`, found by reducing every point
    over the Hermite basis in the steps of `lattice_coordinates`.  A value
    starts at most k + max|origin| and grows at most (1 + max|basis entry|)
    fold per basis row; past INT64_SAFE the reduction runs in Python ints."""
    entry = max((abs(x) for row in lat.basis for x in row), default=0)
    start = k + max(map(abs, lat.origin))
    dtype = np.int64 if start * (1 + entry) ** lat.rank < INT64_SAFE else object
    v = (codes[:, None] // weights % (k + 1)).astype(dtype) - np.array(lat.origin, dtype=dtype)
    for row, p in zip(lat.basis, lat.pivots):
        q = v[:, p] // row[p]
        fits = v[:, p] == q * row[p]
        v = v[fits] - q[fits, None] * np.array(row, dtype=dtype)
        codes = codes[fits]
    return codes[(v == 0).all(axis=1)]


def idp_check(g: Graph, k: int, mode: str = "idp") -> DilateCheck:
    """Check that every lattice point of the k-th dilate splits into k points.

    Mode "idp" ranges over all integer points of the dilate; mode "normality"
    restricts to the lattice spanned by the polytope's own points.  The
    witness, when present, is the lexicographically first indecomposable
    point.

    The dilate's points are enumerated by `_dilate_codes`, so the cost
    follows the prefixes that survive its pruning, not (k+1)^n.  A point's
    code is sum x_i (k+1)^(n-1-i); the digits of a sum of k 0/1 points stay
    at most k, so codes add without carries and a point decomposes exactly
    when its code is a sum of k point codes.
    """
    if mode not in ("idp", "normality"):
        raise ValueError(f"unknown mode {mode!r}")
    if k not in (2, 3):
        raise ValueError("dilate checks support k = 2 or 3")
    if not is_connected(g):
        raise DisconnectedError("dilate checks need a connected graph")
    if g.n > DILATE_VERTEX_LIMIT:
        raise TooLargeError(
            f"dilate enumeration capped at {DILATE_VERTEX_LIMIT} vertices, got {g.n}"
        )
    pts = lattice_points(g)
    system = inequality_system(g, pts)
    codes = _dilate_codes(
        [ineq.normal for ineq in system], [k * ineq.rhs for ineq in system], g.n, k
    )
    weights = (k + 1) ** np.arange(g.n - 1, -1, -1, dtype=np.int64)
    if mode == "normality":
        codes = _lattice_codes(codes, weights, k, pts.lattice)
    singles = pts.matrix @ weights
    sums = singles
    for _ in range(k - 1):
        sums = np.unique(sums[:, None] + singles)
    at = np.minimum(np.searchsorted(sums, codes), len(sums) - 1)
    missing = np.flatnonzero(sums[at] != codes)
    witness = None
    if len(missing):
        code = int(codes[missing[0]])
        witness = tuple(code // w % (k + 1) for w in weights.tolist())
    return DilateCheck(k, mode, witness is None, witness, len(codes))
