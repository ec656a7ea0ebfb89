"""Polytopes of perfectly matchable vertex sets.

The polytope of a graph is the convex hull of the indicator vectors of its
perfectly matchable vertex sets (the empty set included).  This module
enumerates the lattice points, emits the known inequality description with
per-row facet flags, normalizes away the affine hull, and decides geometric
properties (facet ranks, Gorenstein interior vectors, dilate decompositions)
in exact integer arithmetic.

A point set is one integer matrix, one row per point: the 0/1 rows of
`PointSet.matrix`, or the coordinate rows `normalize_lattice` reduces.  The
facet scans, ranks, facet levels and the normalization guard read those
rows; the tuples of `PointSet.points` and `NormalizedPolytope.points` are
the public view.

There is one normalization: points and rows are rewritten in the Hermite
basis of the lattice the points span (`normalize_lattice`).  For a connected
bipartite graph that basis is e_i +- e_n, so the map drops the last
coordinate (`bipartite_projection`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress, repeat

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
    bipartite_cuts,
    bipartition,
    cut_vertex_mask,
    is_connected,
    mask_components,
    mask_two_color,
    mask_vertices,
)
from .intlattice import (
    INT64_SAFE,
    _point_matrix,
    affine_rank,
    as_integer_vector,
    dot,
    hnf_rows,
    lattice_coordinates,
    primitivize,
    solve_unique_columns,
)
from .matchable import matchable_masks
from .subsets import CRITICAL, ENUMERATION_LIMIT, NONBIPARTITE, ODD_SET, subset_tables

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

    def to_ambient(self, coords) -> tuple[int, ...]:
        out = list(self.origin)
        for c, row in zip(coords, self.basis):
            if c:
                for i, x in enumerate(row):
                    out[i] += c * x
        return tuple(out)


@dataclass(frozen=True)
class PointSet:
    """Indicator vectors of the matchable sets, as the 0/1 rows of an int64
    `matrix` (what every scan reads) and as tuples, plus the affine lattice
    they span."""

    ambient_n: int
    points: tuple[tuple[int, ...], ...]
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
class NormalizedPolytope:
    """Full-dimensional model of the polytope in the coordinates of the
    lattice its points span (`transform`).  `rows` are the transported
    inequalities with their criterion flags; `facets` the flagged ones."""

    dim: int
    points: tuple[tuple[int, ...], ...]
    rows: tuple[AffineInequality, ...]
    transform: AffineLattice

    @property
    def facets(self) -> tuple[AffineInequality, ...]:
        return tuple(row for row in self.rows if row.facet)


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


def _lattice_reduce(
    points: np.ndarray, top: int, lat: AffineLattice
) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates over the Hermite basis of `lat` of the rows of `points`
    (entries at most `top` in absolute value) and the mask of the rows in
    `lat`, all reduced at once in the steps of `lattice_coordinates`.  A
    pivot entry its basis row does not divide leaves a remainder that no
    later row touches, so a row is in `lat` exactly when its residue is 0.
    A value starts at most top + max|origin| and grows at most
    (1 + max|basis entry|) fold per basis row; past INT64_SAFE the
    reduction runs in Python ints."""
    entry = max((abs(x) for row in lat.basis for x in row), default=0)
    start = top + max(map(abs, lat.origin))
    dtype = np.int64 if start * (1 + entry) ** lat.rank < INT64_SAFE else object
    v = points.astype(dtype) - np.array(lat.origin, dtype=dtype)
    coords = np.empty((len(v), lat.rank), dtype=dtype)
    for i, (row, p) in enumerate(zip(lat.basis, lat.pivots)):
        coords[:, i] = v[:, p] // row[p]
        v -= coords[:, i, None] * np.array(row, dtype=dtype)
    return coords, (v == 0).all(axis=1)


def lattice_points(g: Graph) -> PointSet:
    """All lattice points of the polytope: indicators of matchable sets."""
    matrix = matchable_masks(g)[:, None] >> np.arange(g.n) & 1
    return PointSet(g.n, tuple(map(tuple, matrix.tolist())), matrix)


def dimension(g: Graph) -> int:
    """Dimension of the polytope: n minus the number of bipartite components."""
    comps = mask_components(g.adj_masks, g.full_mask)
    return g.n - sum(mask_two_color(g.adj_masks, c) is not None for c in comps)


_VALUES_BLOCK = 1 << 14  # row values (rows x points) multiplied out at a time


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


def facet_scan(matrix: np.ndarray, dim: int, rows):
    """Yield (values, facet) per row (normal, rhs): `normal . p` for every
    row p of `matrix`, and whether the row's tight points have affine rank
    dim - 1, dim being the rank of all the points.  Tight on some but not
    all points, a row cuts their affine hull in a hyperplane, so the rank
    cannot pass dim - 1 and elimination stops there.  Validity is left to
    the caller.
    """
    normals = [normal for normal, _ in rows]
    for (_, rhs), values in zip(rows, _row_values(normals, matrix)):
        tight = np.flatnonzero(values == rhs)
        facet = 0 < len(tight) < len(matrix) and affine_rank(matrix[tight], dim - 1) == dim - 1
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
    for sub, gam, facet in bipartite_cuts(g, v1m, v2m):
        normal = tuple(
            1 if sub >> i & 1 else (-1 if gam >> i & 1 else 0) for i in range(n)
        )
        members = ",".join(str(v) for v in mask_vertices(sub))
        rows.append(AffineInequality(normal, 0, facet, f"BipartiteCut({members})"))
    balance = tuple(1 if v1m >> i & 1 else -1 for i in range(n))
    rows.append(AffineInequality(balance, 0, False, "Balance(upper)"))
    rows.append(
        AffineInequality(tuple(-a for a in balance), 0, False, "Balance(lower)")
    )
    return rows


def _bound_rows(n: int) -> list[tuple[tuple[int, ...], int, str]]:
    """(normal, rhs, source) of the rows 0 <= x_v <= 1 of a nonbipartite graph."""
    return [
        (tuple(sign if i == v - 1 else 0 for i in range(n)), rhs, f"{name}({v})")
        for sign, rhs, name in ((-1, 0, "NonNeg"), (1, 1, "UpperOne"))
        for v in range(1, n + 1)
    ]


def _odd_set_rows(g: Graph, flags: bool = False):
    """Yield (normal, rhs, facet, source) for every odd-set row: one per
    vertex set S whose induced components are single vertices or odd and
    nonbipartite, in increasing mask order, with rhs |S| - #components.

    The sets and their facts are read off the graph's subset tables
    (`subset_tables`).  With `flags` facet is the criterion: every
    component of S is critical, every component outside S and its
    neighborhood N is nonbipartite, and S + N stays connected without the
    edges inside N.  Without it the criterion is skipped and facet is None.
    """
    tables = subset_tables(g)
    facts, count = tables.component_facts
    masks = np.flatnonzero(facts & ODD_SET)[1:]  # mask 0 has no component
    gams = tables.neighbors[masks] & ~masks
    rhs = tables.popcount[masks] - count[masks]
    criterion = repeat(False)
    if flags:
        outside = facts[g.full_mask & ~(masks | gams)]
        criterion = ((facts[masks] & CRITICAL != 0) & (outside & NONBIPARTITE != 0)).tolist()
    shifts = np.arange(g.n)
    inside = masks[:, None] >> shifts & 1
    normals = inside - (gams[:, None] >> shifts & 1)
    labels = [str(v) for v in range(1, g.n + 1)]
    adj = g.adj_masks
    for s_mask, gam, row_rhs, maybe, normal, members in zip(
        masks.tolist(), gams.tolist(), rhs.tolist(), criterion, normals.tolist(), inside.tolist()
    ):
        facet = None
        if flags:
            facet = bool(maybe and _connected_after_internal_deletion(adj, s_mask, gam))
        yield (
            tuple(normal),
            row_rhs,
            facet,
            f"OddSet({','.join(compress(labels, members))})",
        )


def _connected_after_internal_deletion(adj_masks, s_mask: int, gam: int) -> bool:
    """Connectivity of the induced graph on S and its neighborhood, with the
    edges inside the neighborhood removed."""
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


def _nonbipartite_system(g: Graph, pts: PointSet) -> list[AffineInequality]:
    bounds = _bound_rows(g.n)
    scan = facet_scan(pts.matrix, g.n, [row[:2] for row in bounds])
    rows = [
        AffineInequality(normal, rhs, facet, source)
        for (normal, rhs, source), (_, facet) in zip(bounds, scan)
    ]
    rows += [AffineInequality(*row) for row in _odd_set_rows(g, flags=True)]
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
    if g.n > ENUMERATION_LIMIT:
        raise TooLargeError(
            f"inequality system enumeration capped at {ENUMERATION_LIMIT} vertices, got {g.n}"
        )
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
    (values,) = _row_values([ineq.normal], pts.matrix)
    return tuple(v - ineq.rhs for v in np.unique(values).tolist())


def verify_facet_flags(g: Graph) -> FacetCheckReport:
    """Compare criterion facet flags against exact active-set ranks."""
    pts = lattice_points(g)
    system = inequality_system(g, pts)
    dim = pts.lattice.rank
    rows = [(ineq.normal, ineq.rhs) for ineq in system]
    disagreements = []
    for ineq, (values, facet) in zip(system, facet_scan(pts.matrix, dim, rows)):
        valid = bool(values.max() <= ineq.rhs)
        geometric = valid and facet
        if not valid or geometric != ineq.facet:
            disagreements.append(
                FacetCheckEntry(ineq.source, ineq.facet, geometric, valid)
            )
    return FacetCheckReport(dim, len(system), tuple(disagreements))


def _transport_flagged(system, lattice: AffineLattice) -> list[AffineInequality]:
    """Rewrite every row in the coordinates of `lattice`, primitivize, and
    merge coincident rows, keeping criterion flags and joining sources.

    A normal a becomes (a . b for b in basis) and rhs drops by a . origin,
    all from one `_row_values` product.  Rows that vanish (the balance pair
    of a bipartite graph) are removed; coincident rows with conflicting
    flags raise.
    """
    frame = _point_matrix([lattice.origin, *lattice.basis])
    values = _row_values([ineq.normal for ineq in system], frame)
    merged: dict[tuple[tuple[int, ...], int], AffineInequality] = {}
    for ineq, (shift, *normal) in zip(system, (v.tolist() for v in values)):
        rhs = ineq.rhs - shift
        if not any(normal):
            if rhs < 0:
                raise InconsistentFacetsError(
                    f"row {ineq.source} became infeasible after normalization"
                )
            continue
        key = primitivize(normal, rhs)
        row = merged.get(key)
        if row is None:
            merged[key] = AffineInequality(*key, ineq.facet, ineq.source)
        elif row.facet != ineq.facet:
            raise InconsistentFacetsError(
                f"coincident rows with conflicting facet flags: {row.source} vs {ineq.source}"
            )
        else:
            merged[key] = AffineInequality(*key, row.facet, f"{row.source}|{ineq.source}")
    return list(merged.values())


def bipartite_projection(
    g: Graph, pts: PointSet | None = None, system=None
) -> NormalizedPolytope:
    """Normalize a connected bipartite graph's polytope.

    Its points span the lattice {x : sum over one color class = sum over the
    other}, whose Hermite basis is e_i +- e_n, so the map drops the last
    coordinate, which the balance equality recovers.
    """
    if bipartition(g) is None:
        raise NotBipartiteError("bipartite projection needs a bipartite graph")
    if not is_connected(g):
        raise DisconnectedError("bipartite projection needs a connected graph")
    if pts is None:
        pts = lattice_points(g)
    if system is None:
        system = inequality_system(g, pts)
    return normalize_lattice(pts, system)


def normalize_lattice(pts: PointSet, system) -> NormalizedPolytope:
    """Rewrite the polytope and every row of `system` in coordinates of the
    lattice its points span.  A row that some lattice point violates raises
    InconsistentFacetsError."""
    if len(pts.points) < 2:
        raise DegeneratePointSetError("need at least two points to normalize")
    lat = pts.lattice
    coords, inside = _lattice_reduce(pts.matrix, 1, lat)
    if not inside.all():
        raise DegeneratePointSetError("point outside its own spanning lattice")
    rows = tuple(_transport_flagged(system, lat))
    for row, values in zip(rows, _row_values([row.normal for row in rows], coords)):
        if values.max() > row.rhs:
            raise InconsistentFacetsError(
                f"inequality {row.normal} <= {row.rhs} is violated by a lattice point"
            )
    return NormalizedPolytope(lat.rank, tuple(map(tuple, coords.tolist())), rows, lat)


def gorenstein_geometric(g: Graph) -> GorensteinCertificate | None:
    """Search for the dilation index and interior vector by exact solving.

    Works in normalized (full-dimensional, point-lattice) coordinates.  Facet
    rows are the rows the criterion flags (`verify_facet_flags` checks those
    flags against exact active-set ranks); a lattice point violating any row
    raises InconsistentFacetsError in `normalize_lattice`.  Returns None
    when no dilation up to dim+1 has a valid interior lattice vector.
    """
    if not is_connected(g):
        raise DisconnectedError("the geometric decision procedure needs a connected graph")
    pts = lattice_points(g)
    if len(pts.points) == 1:
        return GorensteinCertificate(1, (), pts.points[0], degenerate=True)
    norm = normalize_lattice(pts, inequality_system(g, pts))
    facets = norm.facets
    # index t asks for normals . x = t * rhs - 1: one elimination of
    # [normals | rhs | 1] serves every t
    solved = solve_unique_columns(
        [row.normal for row in facets], [[row.rhs for row in facets], [1] * len(facets)]
    )
    if solved is None:
        return None
    (per_index, shift), (residue, residue_shift) = solved
    for index in range(1, norm.dim + 2):
        if any(index * a != b for a, b in zip(residue, residue_shift)):
            continue
        alpha = as_integer_vector([index * x - y for x, y in zip(per_index, shift)])
        if alpha is None:
            continue
        if all(row.value(alpha) < index * row.rhs for row in norm.rows):
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
    """The codes whose points lie in `lat`."""
    _, inside = _lattice_reduce(codes[:, None] // weights % (k + 1), k, lat)
    return codes[inside]


def dilate_checks(g: Graph, k: int, modes) -> tuple[DilateCheck, ...]:
    """Check that every lattice point of the k-th dilate splits into k points,
    once per mode in `modes`, in that order.

    Mode "idp" ranges over all integer points of the dilate; mode "normality"
    restricts to the lattice spanned by the polytope's own points.  The
    witness, when present, is the lexicographically first indecomposable
    point.

    The dilate's points are enumerated once for all modes by
    `_dilate_codes`, so the cost follows the prefixes that survive its
    pruning, not (k+1)^n.  A point's code is sum x_i (k+1)^(n-1-i); the
    digits of a sum of k 0/1 points stay at most k, so codes add without
    carries and a point decomposes exactly when its code is a sum of k
    point codes.
    """
    for mode in modes:
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
    if bipartition(g) is not None:
        rows = [(ineq.normal, ineq.rhs) for ineq in _bipartite_system(g)]
    else:
        rows = [row[:2] for row in _bound_rows(g.n) + list(_odd_set_rows(g))]
    codes = _dilate_codes([normal for normal, _ in rows], [k * rhs for _, rhs in rows], g.n, k)
    weights = (k + 1) ** np.arange(g.n - 1, -1, -1, dtype=np.int64)
    singles = pts.matrix @ weights
    sums = singles
    for _ in range(k - 1):
        sums = np.unique(sums[:, None] + singles)
    checks = []
    for mode in modes:
        kept = _lattice_codes(codes, weights, k, pts.lattice) if mode == "normality" else codes
        at = np.minimum(np.searchsorted(sums, kept), len(sums) - 1)
        missing = np.flatnonzero(sums[at] != kept)
        witness = None
        if len(missing):
            code = int(kept[missing[0]])
            witness = tuple(code // w % (k + 1) for w in weights.tolist())
        checks.append(DilateCheck(k, mode, witness is None, witness, len(kept)))
    return tuple(checks)


def idp_check(g: Graph, k: int, mode: str = "idp") -> DilateCheck:
    """The dilate check of `dilate_checks` in the one mode `mode`: "idp"
    over all integer points of the k-th dilate, "normality" over the
    lattice spanned by the polytope's own points."""
    (check,) = dilate_checks(g, k, (mode,))
    return check
