"""Polytopes of perfectly matchable vertex sets.

The polytope of a graph is the convex hull of the indicator vectors of its
perfectly matchable vertex sets (the empty set included).  This module
enumerates the lattice points, emits the known inequality description with
per-row facet flags, normalizes away the affine hull, and decides geometric
properties (facet ranks, Gorenstein interior vectors, dilate decompositions)
in exact integer arithmetic.

A point set is one integer matrix, one row per point: the 0/1 rows of
`PointSet.matrix`, or the coordinate rows `normalize_lattice` maps.  An
inequality system is one `RowSystem`: a matrix of normals with vectors of
right-hand sides, facet flags and sources, one entry per row.  The row
builders emit it; the transport to lattice coordinates, the validity guard,
the facet scans, the Gorenstein search, the dilate checks, the `facets`
writers and the bipartite deciders of `classify` read its arrays; and
the values of all rows over all points come from block products
(`_row_values`).  The tuples of `PointSet.points` (built on first read)
and `NormalizedPolytope.points`, and the `AffineInequality` rows a
`RowSystem` yields when iterated, are the public view.  A graph keeps its
point set (with the lattice it spans) and its system with its subset
tables: `lattice_points` and `inequality_system` build each once per graph,
with read-only arrays, and every routine asking about that graph reads the
same objects.

The facet flags of a system are criteria read off the graph and its subset
tables (`_bound_facets` for every bound row), so a system build ranks
nothing and enumerates no point; only the oracles (`verify_facet_flags`,
`oracle.sullivant_compressed`) rank rows, with `facet_scan`.  The `facets`
writers read the text of each normal off tables of the texts of all half
rows with entries in {-1, 0, 1} (`_normal_texts`).

There is one normalization: points and rows are rewritten in the Hermite
basis of the lattice the points span (`normalize_lattice`), the lattice of
the edges, which `_edge_lattice` gives in closed form.  For a connected
bipartite graph that basis is e_i +- e_n, so the map drops the last
coordinate (`bipartite_projection`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import compress
from json.encoder import encode_basestring_ascii

import numpy as np

from .budgets import DILATE_VERTEX_LIMIT, ENUMERATION_LIMIT
from .errors import (
    DegeneratePointSetError,
    DisconnectedError,
    InconsistentFacetsError,
    NotBipartiteError,
    TooLargeError,
)
from .graph import (
    Graph,
    bipartition,
    is_connected,
    mask_colorings,
    mask_is_connected,
    mask_neighborhood,
    mask_vertices,
    proper_nonempty_submasks,
)
from .intlattice import (
    INT64_SAFE,
    _point_matrix,
    _top,
    affine_rank,
    as_integer_vector,
    solve_unique_columns,
)
from .matchable import matchable_masks
from .subsets import CRITICAL, NONBIPARTITE, ODD_SET, subset_tables


@dataclass(frozen=True)
class AffineLattice:
    """Affine lattice `origin + Z-span(basis)` with its Hermite basis, the
    canonical one: the entries above each pivot lie in [0, pivot)."""

    ambient_n: int
    origin: tuple[int, ...]
    basis: tuple[tuple[int, ...], ...]
    pivots: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.basis)

    def to_ambient(self, coords) -> tuple[int, ...]:
        basis = _point_matrix(self.basis).reshape(self.rank, self.ambient_n)
        return tuple((_point_matrix(self.origin) + _point_matrix(coords) @ basis).tolist())


def _edge_lattice(g: Graph) -> AffineLattice:
    """The lattice the points of `g` span: every matchable set is a
    disjoint union of edges, so it is the lattice of the edges, with origin
    0 (the empty set).  Per component C with last vertex l, its Hermite
    basis is e_i + e_l (i in C, i < l) and 2 e_l when C is not bipartite
    ({x : sum over C even}), and e_i -+ e_l when it is ({x : the color
    classes of C have equal sums}; minus when i and l share a color)."""
    n = g.n
    rows = {}  # pivot column -> basis row
    for comp, color in mask_colorings(g.adj_masks, g.full_mask):
        *rest, last = (v - 1 for v in mask_vertices(comp))
        for i in rest:
            rows[i] = row = [0] * n
            row[i] = 1
            row[last] = 1 if color is None or (color >> i ^ color >> last) & 1 else -1
        if color is None:
            rows[last] = row = [0] * n
            row[last] = 2
    pivots = sorted(rows)
    basis = tuple(tuple(rows[p]) for p in pivots)
    return AffineLattice(n, (0,) * n, basis, tuple(pivots))


def _lattice_coordinates(points: np.ndarray, lat: AffineLattice) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates over the basis of an `_edge_lattice` `lat` (origin 0) of
    the rows x of an int64 `points` matrix, and the mask of the rows in
    `lat`: x at each pivot 1, (x_l less the other rows' shares of x_l) // 2
    for a row 2 e_l, and in `lat` when the coordinates map back to x.
    Exact in int64 for points in [0, k]."""
    basis = np.array(lat.basis, dtype=np.int64).reshape(lat.rank, lat.ambient_n)
    pivots = np.array(lat.pivots, dtype=np.intp)
    coords = points[:, pivots]
    rows = np.flatnonzero(basis[np.arange(lat.rank), pivots] == 2)  # the rows 2 e_l
    last = pivots[rows]
    coords[:, rows] = 0
    coords[:, rows] = (points[:, last] - coords @ basis[:, last]) // 2
    return coords, (coords @ basis == points).all(axis=1)


@dataclass(frozen=True, eq=False)
class PointSet:
    """Indicator vectors of the matchable sets, as the 0/1 rows of a
    read-only int64 `matrix`, plus the affine lattice they span.  `points`
    is a tuple view of the rows, built on first read.  Point sets compare
    by identity; compare `points` for the rows."""

    ambient_n: int
    matrix: np.ndarray = field(repr=False)
    lattice: AffineLattice

    def __post_init__(self) -> None:
        self.matrix.flags.writeable = False

    @cached_property
    def points(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.matrix.tolist()))

    def __len__(self) -> int:
        return len(self.matrix)

    def to_json(self) -> dict:
        return {
            "ambient_dimension": self.ambient_n,
            "count": len(self),
            "points": self.matrix.tolist(),
        }


@dataclass(frozen=True)
class AffineInequality:
    """One inequality `normal . x <= rhs` with a criterion-derived facet flag."""

    normal: tuple[int, ...]
    rhs: int
    facet: bool
    source: str


# the text before a row's normal, after the close of the row before it
_JSON_HEADS = np.array(
    ['"},{"facet":false,"normal":[', '"},{"facet":true,"normal":['], dtype=object
)
_TEXT_TAGS = np.array(["valid)\n", "facet)\n"], dtype=object)


@cache
def _ternary_texts(width: int, sep: str, closed: bool) -> np.ndarray:
    """The texts of all 3^width rows with entries in {-1, 0, 1}: the
    entries joined by `sep`, and followed by one more `sep` unless
    `closed`.  A read-only object array, indexed by the base-3 code
    sum (e_i + 1) 3^i of the row."""
    texts = [""]
    for _ in range(width):
        texts = [digit + rest for rest in texts for digit in (f"-1{sep}", f"0{sep}", f"1{sep}")]
    if closed and width:
        texts = [text[: -len(sep)] for text in texts]
    table = np.array(texts, dtype=object)
    table.flags.writeable = False
    return table


def _normal_texts(normals: np.ndarray, sep: str) -> tuple[list[str], list[str]]:
    """The entries of each row of `normals` joined by `sep`, as two pieces
    per row that concatenate to it.  Rows with entries in {-1, 0, 1} are
    coded in base 3, one product per half of the columns, and read off two
    `_ternary_texts` tables, the low piece ending in `sep` (or empty, for
    n = 1).  Any other matrix is written one `json.dumps` per row,
    with an empty high piece."""
    rows, n = normals.shape
    if normals.dtype.kind != "i" or _top(normals) > 1:
        texts = [json.dumps(row, separators=(sep, ":"))[1:-1] for row in normals.tolist()]
        return texts, [""] * rows
    half = n // 2
    low = (normals[:, :half] + 1) @ 3 ** np.arange(half, dtype=np.int64)
    high = (normals[:, half:] + 1) @ 3 ** np.arange(n - half, dtype=np.int64)
    return (
        _ternary_texts(half, sep, False)[low].tolist(),
        _ternary_texts(n - half, sep, True)[high].tolist(),
    )


def _value_texts(values: np.ndarray, template: str) -> list[str]:
    """`template` formatted with each entry of `values`, formatted once per
    distinct value."""
    distinct, index = np.unique(values, return_inverse=True)
    return np.array([template.format(v) for v in distinct.tolist()], dtype=object)[index].tolist()


def _interleave(columns: list) -> str:
    """The pieces of every row, row after row, joined into one string:
    column j holds the j-th piece of each row."""
    pieces = [""] * sum(map(len, columns))
    for j, column in enumerate(columns):
        pieces[j :: len(columns)] = column
    return "".join(pieces)


@dataclass(frozen=True, eq=False)
class RowSystem:
    """Inequalities `normals[i] . x <= rhs[i]`, one entry per row in each
    field: `normals` an int64 matrix, `rhs` an int64 vector (either an
    object array of Python ints when a value does not fit), `facet` the
    criterion flags as a bool vector, and `sources` the row names.  The
    arrays are read-only.

    Iterating yields the rows as `AffineInequality`, in order.  Systems
    compare by identity; compare `list(system)` for the rows.
    """

    normals: np.ndarray
    rhs: np.ndarray
    facet: np.ndarray
    sources: tuple[str, ...]

    def __post_init__(self) -> None:
        for array in (self.normals, self.rhs, self.facet):
            array.flags.writeable = False

    def __len__(self) -> int:
        return len(self.sources)

    def _lists(self):
        return zip(self.normals.tolist(), self.rhs.tolist(), self.facet.tolist(), self.sources)

    def __iter__(self):
        for normal, rhs, facet, source in self._lists():
            yield AffineInequality(tuple(normal), rhs, facet, source)

    def to_json(self) -> dict:
        return {
            "count": len(self),
            "inequalities": [
                {"normal": normal, "rhs": rhs, "facet": facet, "source": source}
                for normal, rhs, facet, source in self._lists()
            ],
        }

    def to_json_text(self) -> str:
        """The text of `json.dumps(self.to_json(), sort_keys=True,
        separators=(",", ":"))`, written without the dicts: the keys in
        sorted order, the normals from `_normal_texts`, the sources escaped
        as `json.dumps` escapes them (only when one of them needs it), all
        pieces joined at once."""
        if not len(self):
            return '{"count":0,"inequalities":[]}'
        low, high = _normal_texts(self.normals, ",")
        heads = _JSON_HEADS[self.facet.astype(np.intp)].tolist()
        heads[0] = heads[0][3:]  # no row closes before the first
        joined = "".join(self.sources)
        sources = self.sources
        if encode_basestring_ascii(joined) != f'"{joined}"':  # some source needs escapes
            sources = [encode_basestring_ascii(s)[1:-1] for s in sources]
        rhs = _value_texts(self.rhs, '],"rhs":{},"source":"')
        body = _interleave([heads, low, high, rhs, sources])
        return f'{{"count":{len(self)},"inequalities":[{body}"}}]}}'

    def to_text(self) -> str:
        """The rows as lines `source: [normal] <= rhs (tag)`, the normal's
        entries separated by spaces and the tag `facet` or `valid`, joined
        by newlines; the normals from `_normal_texts`."""
        if not len(self):
            return ""
        low, high = _normal_texts(self.normals, " ")
        tags = _TEXT_TAGS[self.facet.astype(np.intp)].tolist()
        tags[-1] = tags[-1][:-1]  # no newline after the last line
        rhs = _value_texts(self.rhs, "] <= {} (")
        return _interleave([self.sources, [": ["] * len(self), low, high, rhs, tags])


@dataclass(frozen=True)
class NormalizedPolytope:
    """Full-dimensional model of the polytope in the coordinates of the
    lattice its points span (`transform`).  `rows` are the transported
    inequalities with their criterion flags."""

    dim: int
    points: tuple[tuple[int, ...], ...]
    rows: RowSystem
    transform: AffineLattice


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


def _reach(normals: np.ndarray) -> int:
    """The largest sum of absolute entries over the rows of `normals`,
    exactly (0 for none): summed in int64 only when no such sum can reach
    2^63."""
    if _top(normals) * normals.shape[-1] >= 1 << 63:
        normals = normals.astype(object)
    return int(abs(normals).sum(axis=-1).max(initial=0))


def lattice_points(g: Graph) -> PointSet:
    """All lattice points of the polytope: indicators of matchable sets.
    Built once per graph and kept with its subset tables."""
    masks = matchable_masks(g)
    tables = subset_tables(g)
    if tables.points is None:
        matrix = masks[:, None] >> np.arange(g.n) & 1
        tables.points = PointSet(g.n, matrix, _edge_lattice(g))
    return tables.points


def _bipartite_parts(adj_masks, mask: int) -> int:
    """The number of bipartite components (isolated vertices too) on `mask`."""
    return sum(even is not None for _, even in mask_colorings(adj_masks, mask))


def dimension(g: Graph) -> int:
    """Dimension of the polytope: n minus the number of bipartite components."""
    return g.n - _bipartite_parts(g.adj_masks, g.full_mask)


_VALUES_BLOCK = 1 << 14  # row values (rows x points) multiplied out at a time


def _row_values(normals: np.ndarray, matrix: np.ndarray):
    """Yield (rows, values) per block of the rows of `normals`: the slice of
    the rows, and one array per normal of its exact values `normal . x`
    over the rows x of `matrix`.  The products run in int64 when no value
    can reach INT64_SAFE (the largest sum |a_i| over the rows, times
    max |x|), in Python integers otherwise."""
    dtype = np.int64 if _reach(normals) * max(1, _top(matrix)) < INT64_SAFE else object
    normals = normals.astype(dtype, copy=False)
    points_t = matrix.astype(dtype, copy=False).T
    step = max(1, _VALUES_BLOCK // max(1, len(matrix)))
    for start in range(0, len(normals), step):
        rows = slice(start, start + step)
        yield rows, normals[rows] @ points_t


def _tight_stack(matrix: np.ndarray, tight: np.ndarray, width: int) -> np.ndarray:
    """Per row of `tight` (a bool mask over the rows of `matrix`, each with
    a True entry), `width` >= 2 of its tight points, as a (rows, width, n)
    stack: every tight point, in order, repeated to fill when there are at
    most `width` of them; an even spread from the first to the last when
    there are more."""
    counts = tight.sum(axis=1)
    _, where = np.nonzero(tight)  # the tight points of each row, row after row
    starts = np.cumsum(counts) - counts
    picks = starts[:, None] + np.arange(width) * (counts[:, None] - 1) // (width - 1)
    return matrix[where[picks]]


def facet_scan(matrix: np.ndarray, dim: int, normals: np.ndarray, rhs: np.ndarray):
    """Yield (values, facet) per row of `normals` and `rhs`: `normal . p`
    for every row p of `matrix`, and whether the row's tight points have
    affine rank dim - 1, dim being the rank of all the points.  Tight on
    some but not all points, a row cuts their affine hull in a hyperplane,
    so the rank cannot pass dim - 1.  Validity is left to the caller.

    The proper rows of a block are ranked in one `affine_rank` stack of
    k = 2 dim + 1 tight points each: all of them when there are at most k,
    else an even spread.  A spread's rank is at most that of all the tight
    points, so a spread reaching dim - 1 proves a facet.  The rows whose
    spread falls short are ranked again in one more stack, on the spread
    followed by all their tight points: `affine_rank` screens the points
    after the first k against the span of those, and eliminates in full
    only a set with a point outside it.  `affine_rank` is exact on every
    0/1 point matrix up to `ENUMERATION_LIMIT` columns, and raises on a
    matrix past its Hadamard bound rather than answer wrongly.
    """
    k = 2 * dim + 1
    stop = dim - 1
    for rows, block in _row_values(normals, matrix):
        tight = block == rhs[rows, None]
        counts = tight.sum(axis=1)
        proper = np.flatnonzero((0 < counts) & (counts < len(matrix)))
        facet = np.zeros(len(block), dtype=bool)
        if proper.size:
            tight = tight[proper]
            spread = _tight_stack(matrix, tight, k)
            ranks = affine_rank(spread, stop)
            short = np.flatnonzero((ranks < stop) & (counts[proper] > k))
            if short.size:
                full = _tight_stack(matrix, tight[short], int(counts[proper[short]].max()))
                ranks[short] = affine_rank(np.concatenate([spread[short], full], axis=1), stop)
            facet[proper] = ranks == stop
        yield from zip(block, facet.tolist())


@cache
def _label_texts(name: str, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(low, high): two read-only object arrays whose entries add up to
    the text `name(labels)` of a vertex mask of n bits, its vertices as
    ascending comma-separated labels.  Entry m of `high` lists the
    vertices of the high bits m (those from n // 2 up) and the closing
    parenthesis, and is empty for m = 0.  Entry m of `low` opens with the
    name and lists the vertices of the low bits m with a comma after them;
    entry 2^(n // 2) + m closes the list instead, for a mask with no high
    bit."""
    half = n // 2

    def labels(offset: int, width: int) -> list[str]:
        return [
            ",".join(str(offset + i + 1) for i in range(width) if m >> i & 1)
            for m in range(1 << width)
        ]

    low = labels(0, half)
    opened = [f"{name}({text}," if text else f"{name}(" for text in low]
    closed = [f"{name}({text})" for text in low]
    high = [f"{text})" if text else "" for text in labels(half, n - half)]
    tables = np.array(opened + closed, dtype=object), np.array(high, dtype=object)
    for table in tables:
        table.flags.writeable = False
    return tables


def _member_sources(name: str, masks: np.ndarray, n: int) -> list[str]:
    """The source `name(labels)` of each mask, the labels of its vertices
    ascending and comma-separated, read off the `_label_texts` tables."""
    low, high = _label_texts(name, n)
    half = n // 2
    top = masks >> half
    return (low[(masks & (1 << half) - 1) + (top == 0) * (1 << half)] + high[top]).tolist()


def _bounds(n: int) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Normals, rhs and sources of the rows -x_v <= 0, then x_v <= 1."""
    eye = np.eye(n, dtype=np.int64)
    sources = [f"{name}({v})" for name in ("NonNeg", "UpperOne") for v in range(1, n + 1)]
    return np.vstack([-eye, eye]), np.repeat(np.arange(2), n), sources


def _bound_facets(g: Graph) -> list[bool]:
    """Facet flags of the bound rows of a connected graph.  The face x_v = 0
    is P(G - v) (Balas & Pulleyblank, Combinatorica 9, 1989); the face
    x_v = 1, moved to the origin, is spanned by e_u - e_w (u, w in N(v))
    and e_a + e_b (ab an edge of G - v, N(v) not inside {a, b}), a signed
    graph of rank n - 1 less its balanced components (Zaslavsky, Discrete
    Appl. Math. 4, 1982): the bipartite ones of G less those edges (at the
    neighbor of a v of degree 1, all but va; for v of degree 2, a triangle's
    third edge), v tying N(v) to one color.  So a row is a facet exactly when
    n > 1 and G - v, or G less those edges, has n - dim P bipartite ones."""
    adj, full, balanced = g.adj_masks, g.full_mask, g.n - dimension(g)
    lower, upper = [], []
    for v in g.vertices():
        bit, nbrs = 1 << (v - 1), adj[v]
        lower.append(_bipartite_parts(adj, full ^ bit))
        if nbrs.bit_count() == 1:
            upper.append(1 + _bipartite_parts(adj, full ^ bit ^ nbrs))
        elif nbrs.bit_count() == 2 and adj[nbrs.bit_length()] & nbrs:
            kept = list(adj)
            for u in mask_vertices(nbrs):
                kept[u] &= ~nbrs
            upper.append(_bipartite_parts(kept, full))
        else:
            upper.append(balanced)
    return [g.n > 1 and parts == balanced for parts in lower + upper]


def _bipartite_system(g: Graph) -> RowSystem:
    """A connected bipartite graph's rows with facet flags: the bound rows
    (`_bound_facets`), one cut row per proper nonempty subset S of the
    first color class, sorted by (cardinality, mask), and the balance pair.
    The cut row of S is 1 on S and -1 on its neighborhood N(S), rhs 0, and
    a facet when S + N(S) and the rest of the graph both induce connected
    subgraphs.  This is the one scan of the color-class subsets: the
    bipartite deciders of `classify` read these rows."""
    v1, v2 = bipartition(g)
    n = g.n
    normals, rhs, sources = _bounds(n)
    adj = g.adj_masks
    found = []
    for s in proper_nonempty_submasks(v1.mask):
        gam = mask_neighborhood(adj, s)
        rest = v1.mask & ~s | v2.mask & ~gam
        found.append((s, gam, mask_is_connected(adj, s | gam) and mask_is_connected(adj, rest)))
    subs, gams, facets = np.array(found, dtype=np.int64).reshape(-1, 3).T
    bit = np.arange(n)
    balance = np.where(v1.mask >> bit & 1, 1, -1)
    cut_rows = (subs[:, None] >> bit & 1) - (gams[:, None] >> bit & 1)
    sources += _member_sources("BipartiteCut", subs, n)
    sources += ["Balance(upper)", "Balance(lower)"]
    return RowSystem(
        np.vstack([normals, cut_rows, balance, -balance]),
        np.concatenate([rhs, np.zeros(len(found) + 2, dtype=np.int64)]),
        np.concatenate([_bound_facets(g), facets.astype(bool), [False, False]]),
        tuple(sources),
    )


def _nonbipartite_rows(g: Graph):
    """(normals, rhs, masks, gams): the rows of a nonbipartite graph's
    system without facet flags.  First the bound rows, then one odd-set row
    per vertex set S whose induced components are single vertices or odd
    and nonbipartite, in increasing mask order: 1 on S, -1 on its
    neighborhood N, rhs |S| - #components.  `masks` and `gams` hold S and
    N of the odd-set rows.  The sets and their facts are read off the
    graph's subset tables (`subset_tables`)."""
    tables = subset_tables(g)
    facts, count = tables.component_facts
    masks = np.flatnonzero(facts & ODD_SET)[1:]  # mask 0 has no component
    gams = tables.neighbors[masks] & ~masks
    bit = np.arange(g.n)
    normals, rhs, _ = _bounds(g.n)
    odd = (masks[:, None] >> bit & 1) - (gams[:, None] >> bit & 1)
    rhs = np.concatenate([rhs, tables.popcount[masks] - count[masks]])
    return np.vstack([normals, odd]), rhs, masks, gams


def _connected_after_internal_deletion(neighbors, s, gam) -> np.ndarray:
    """Per pair (S, N) of masks, whether the graph induced on S and its
    neighborhood N stays connected without the edges inside N.  The
    component of the lowest vertex grows one layer a round over the pairs
    still growing: a vertex of S reaches S and N (its neighbors all lie
    there), a vertex of N reaches only S."""
    allowed = s | gam
    comp = allowed & -allowed
    growing = np.arange(len(s))
    while growing.size:
        before = comp[growing]
        inside = s[growing]
        after = before | neighbors[before & inside] | neighbors[before & gam[growing]] & inside
        moved = after != before
        growing = growing[moved]
        comp[growing] = after[moved]
    return comp == allowed


def _odd_set_facets(g: Graph, masks: np.ndarray, gams: np.ndarray) -> np.ndarray:
    """The facet criterion of the odd-set rows of `_nonbipartite_rows`, one
    flag per pair (S, N) of `masks` and `gams`: every component of S is
    critical, every component outside S and N is nonbipartite, and S + N
    stays connected without the edges inside N.  Read off the subset
    tables; no rank is computed."""
    tables = subset_tables(g)
    facts, _ = tables.component_facts
    outside = facts[g.full_mask & ~(masks | gams)]
    criterion = (facts[masks] & CRITICAL != 0) & (outside & NONBIPARTITE != 0)
    maybe = np.flatnonzero(criterion)
    criterion[maybe] = _connected_after_internal_deletion(
        tables.neighbors, masks[maybe], gams[maybe]
    )
    return criterion


def _nonbipartite_system(g: Graph) -> RowSystem:
    """The rows of `_nonbipartite_rows` with facet flags, the bound rows
    flagged by `_bound_facets` and the odd-set rows by `_odd_set_facets`."""
    normals, rhs, masks, gams = _nonbipartite_rows(g)
    sources = _bounds(g.n)[2] + _member_sources("OddSet", masks, g.n)
    flags = np.concatenate([_bound_facets(g), _odd_set_facets(g, masks, gams)])
    return RowSystem(normals, rhs, flags, tuple(sources))


def inequality_system(g: Graph) -> RowSystem:
    """Complete inequality description of the polytope with facet flags, as
    one `RowSystem`, built once per graph and kept with its subset tables.

    Connected graphs only.  Bipartite graphs get the bound rows, one row
    per proper nonempty subset of the first color class, and the balance
    pair; nonbipartite graphs get the bound rows and one row per
    admissible odd vertex set.  Every flag is a criterion read off the
    graph (`_bound_facets` for the bound rows): no rank is computed and no
    point is enumerated.
    """
    if not is_connected(g):
        raise DisconnectedError("inequality systems are defined per connected graph")
    if g.n > ENUMERATION_LIMIT:
        raise TooLargeError(
            f"inequality system enumeration capped at {ENUMERATION_LIMIT} vertices, got {g.n}"
        )
    tables = subset_tables(g)
    if tables.system is None:
        build = _bipartite_system if bipartition(g) is not None else _nonbipartite_system
        tables.system = build(g)
    return tables.system


def verify_facet_flags(g: Graph) -> FacetCheckReport:
    """Compare criterion facet flags against exact active-set ranks."""
    pts = lattice_points(g)
    system = inequality_system(g)
    dim = pts.lattice.rank
    scan = facet_scan(pts.matrix, dim, system.normals, system.rhs)
    disagreements = []
    for (values, facet), rhs, flag, source in zip(
        scan, system.rhs.tolist(), system.facet.tolist(), system.sources
    ):
        valid = bool(values.max() <= rhs)
        geometric = valid and facet
        if not valid or geometric != flag:
            disagreements.append(FacetCheckEntry(source, flag, geometric, valid))
    return FacetCheckReport(dim, len(system), tuple(disagreements))


def _transport_flagged(system: RowSystem, lattice: AffineLattice) -> RowSystem:
    """Rewrite every row in the coordinates of `lattice`, primitivize, and
    merge coincident rows, keeping criterion flags and joining sources.

    A normal a becomes (a . b for b in basis) and rhs drops by a . origin,
    all from one product with [origin | basis].  A row that vanishes (the
    balance pair of a bipartite graph) is removed, or raises when it has
    become infeasible.  A row whose rhs the gcd of its normal divides is
    divided by it.  Coincident rows merge in first-occurrence order, and
    raise when their flags conflict.
    """
    frame = _point_matrix([lattice.origin, *lattice.basis])
    # the empty head keeps the shape of an empty system
    head = np.zeros((0, len(frame)), dtype=np.int64)
    values = np.vstack([head, *(block for _, block in _row_values(system.normals, frame))])
    rhs = system.rhs
    if values.dtype == object or _top(rhs) >= INT64_SAFE:
        rhs = rhs.astype(object)
    rhs = rhs - values[:, 0]
    normals = values[:, 1:]
    keep = (normals != 0).any(axis=1)
    infeasible = np.flatnonzero(~keep & (rhs < 0))
    if infeasible.size:
        source = system.sources[infeasible[0]]
        raise InconsistentFacetsError(f"row {source} became infeasible after normalization")
    normals, rhs, facet = normals[keep], rhs[keep], system.facet[keep]
    sources = list(compress(system.sources, keep.tolist()))
    divisor = np.gcd.reduce(normals, axis=1)
    divisor = np.where((divisor > 1) & (rhs % divisor == 0), divisor, 1)
    normals, rhs = normals // divisor[:, None], rhs // divisor
    first: dict = {}  # (normal, rhs) -> index of its first row
    merged: dict[int, str] = {}  # that index -> the joined sources
    flags = facet.tolist()
    for i, key in enumerate(zip(map(tuple, normals.tolist()), rhs.tolist())):
        j = first.setdefault(key, i)
        if flags[j] != flags[i]:
            raise InconsistentFacetsError(
                f"coincident rows with conflicting facet flags: {merged[j]} vs {sources[i]}"
            )
        merged[j] = f"{merged[j]}|{sources[i]}" if j < i else sources[i]
    keep = list(merged)
    return RowSystem(normals[keep], rhs[keep], facet[keep], tuple(merged.values()))


def bipartite_projection(g: Graph) -> NormalizedPolytope:
    """Normalize a connected bipartite graph's polytope.

    Its points span the lattice {x : sum over one color class = sum over the
    other}, whose Hermite basis is e_i +- e_n, so the map drops the last
    coordinate, which the balance equality recovers.
    """
    if bipartition(g) is None:
        raise NotBipartiteError("bipartite projection needs a bipartite graph")
    if not is_connected(g):
        raise DisconnectedError("bipartite projection needs a connected graph")
    return normalize_lattice(lattice_points(g), inequality_system(g))


def normalize_lattice(pts: PointSet, system: RowSystem) -> NormalizedPolytope:
    """Rewrite the polytope and every row of `system` in coordinates of the
    lattice its points span.  A row that some lattice point violates raises
    InconsistentFacetsError; the check is one comparison per block of
    row values."""
    if len(pts) < 2:
        raise DegeneratePointSetError("need at least two points to normalize")
    lat = pts.lattice
    coords, inside = _lattice_coordinates(pts.matrix, lat)
    if not inside.all():
        raise DegeneratePointSetError("point outside its own spanning lattice")
    rows = _transport_flagged(system, lat)
    for block, values in _row_values(rows.normals, coords):
        violated = np.flatnonzero(values.max(axis=1) > rows.rhs[block])
        if violated.size:
            i = block.start + violated[0]
            normal = tuple(rows.normals[i].tolist())
            raise InconsistentFacetsError(
                f"inequality {normal} <= {int(rows.rhs[i])} is violated by a lattice point"
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
    if len(pts) == 1:
        return GorensteinCertificate(1, (), tuple(pts.matrix[0].tolist()), degenerate=True)
    norm = normalize_lattice(pts, inequality_system(g))
    rows = norm.rows
    rhs = rows.rhs[rows.facet].tolist()
    # index t asks for normals . x = t * rhs - 1: one elimination of
    # [normals | rhs | 1] serves every t
    solved = solve_unique_columns(rows.normals[rows.facet].tolist(), [rhs, [1] * len(rhs)])
    if solved is None:
        return None
    (per_index, shift), (residue, residue_shift) = solved
    for index in range(1, norm.dim + 2):
        if any(index * a != b for a, b in zip(residue, residue_shift)):
            continue
        alpha = as_integer_vector([index * x - y for x, y in zip(per_index, shift)])
        if alpha is None:
            continue
        values = _row_values(rows.normals, _point_matrix([alpha]))
        if all((v[:, 0] < index * rows.rhs[block]).all() for block, v in values):
            return GorensteinCertificate(index, alpha, norm.transform.to_ambient(alpha))
    return None


_DILATE_BLOCK = 1 << 16  # row values (parents x digits x rows), or sums, made at a time
_DILATE_TYPES = (np.int8, np.int16, np.int32, np.int64)


def _dilate_codes(normals, bound, n: int, k: int) -> np.ndarray:
    """Ascending codes of the points x of [0, k]^n with normals @ x <= bound.

    The code of x is sum x_i (k+1)^(n-1-i), so numeric order is lex order.
    Coordinates are fixed one at a time, carrying the row values of each
    prefix.  A prefix is dropped once some row exceeds its bound even with
    every later coordinate at its least share, k * min(0, a_i); fixing x_j
    moves neither the value nor the limit of a row with a_j = 0, so only
    the other rows are tested.  Children follow their parent in ascending
    digit order, so each level is in lex order.

    With B the larger of max |bound| and max k * |normal|_1, every prefix
    value, move and limit lies within +-2B, so the row values are held in
    the smallest of int8, int16, int32 and int64 whose range holds 2B, and
    in Python ints once B reaches INT64_SAFE.
    """
    normals, bound = _point_matrix(normals), _point_matrix(bound)
    reach = max(k * _reach(normals), _top(bound))
    dtype = object
    if reach < INT64_SAFE:
        dtype = next(t for t in _DILATE_TYPES if 2 * reach <= np.iinfo(t).max)
    cols = normals.astype(dtype).reshape(-1, n).T
    m = cols.shape[1]
    # limits[j]: the most each row may take on a prefix of length j
    tails = np.zeros((n + 1, m), dtype=dtype)
    tails[:n] = np.cumsum((k * np.minimum(cols, 0))[::-1], axis=0, dtype=dtype)[::-1]
    limits = bound.astype(dtype) - tails
    codes = np.zeros(int((limits[0] >= 0).all()), dtype=np.int64)
    values = np.zeros((len(codes), m), dtype=dtype)
    digits = np.arange(k + 1).astype(dtype)
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
                next_values.append(block[parent] + digits[digit, None] * cols[j])
        codes = np.concatenate(next_codes)
        if not last:
            values = np.concatenate(next_values)
    return codes


def _dilate_rows(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """(normals, rhs): the rows that cut out the polytope of a connected
    graph, and so its dilates.  A bipartite graph keeps
    the rows of its system flagged as facets and the balance pair, its
    last two rows, which give the affine hull.  A nonbipartite graph keeps
    every bound row and the odd-set rows the criterion flags
    (`_odd_set_facets`).  Every other row is implied."""
    if bipartition(g) is not None:
        system = inequality_system(g)
        keep = system.facet.copy()
        keep[-2:] = True
        return system.normals[keep], system.rhs[keep]
    normals, rhs, masks, gams = _nonbipartite_rows(g)
    keep = np.concatenate([np.ones(2 * g.n, dtype=bool), _odd_set_facets(g, masks, gams)])
    return normals[keep], rhs[keep]


def dilate_checks(g: Graph, k: int, modes) -> tuple[DilateCheck, ...]:
    """Check that every lattice point of the k-th dilate splits into k points,
    once per mode in `modes`, in that order.

    Mode "idp" ranges over all integer points of the dilate; mode "normality"
    restricts to the lattice spanned by the polytope's own points.  The
    witness, when present, is the lexicographically first indecomposable
    point.

    The dilate's points are enumerated once for all modes by
    `_dilate_codes` over the facet rows of `_dilate_rows`, so the cost
    follows the prefixes that survive its pruning, not (k+1)^n.  A point's
    code is sum x_i (k+1)^(n-1-i); the digits of a sum of k 0/1 points
    stay at most k, so codes add without carries, every sum lies below
    (k+1)^n, and a point decomposes exactly when its code is marked in a
    dense table of the sums of k point codes.  The empty set is a point,
    with code 0, so a sum of fewer points is a sum of k and each round
    adds the points to every sum marked so far.  It is also the origin of
    the point lattice, so a sum of k points lies in the lattice: normality
    mode tests only the points that do not split.
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
    normals, rhs = _dilate_rows(g)
    codes = _dilate_codes(normals, k * rhs, g.n, k)
    weights = (k + 1) ** np.arange(g.n - 1, -1, -1, dtype=np.int64)
    singles = pts.matrix @ weights
    hit = np.zeros((k + 1) ** g.n, dtype=bool)
    hit[singles] = True
    step = max(1, _DILATE_BLOCK // len(singles))
    for _ in range(k - 1):
        sums = np.flatnonzero(hit)
        for start in range(0, len(sums), step):
            hit[sums[start : start + step, None] + singles] = True
    unsplit = codes[~hit[codes]]
    checks = []
    for mode in modes:
        missing, count = unsplit, len(codes)
        if mode == "normality":
            points = unsplit[:, None] // weights % (k + 1)
            missing = unsplit[_lattice_coordinates(points, pts.lattice)[1]]
            count = len(codes) - len(unsplit) + len(missing)
        witness = None
        if len(missing):
            code = int(missing[0])
            witness = tuple(code // w % (k + 1) for w in weights.tolist())
        checks.append(DilateCheck(k, mode, witness is None, witness, count))
    return tuple(checks)


def idp_check(g: Graph, k: int, mode: str = "idp") -> DilateCheck:
    """The dilate check of `dilate_checks` in the one mode `mode`: "idp"
    over all integer points of the k-th dilate, "normality" over the
    lattice spanned by the polytope's own points."""
    (check,) = dilate_checks(g, k, (mode,))
    return check
