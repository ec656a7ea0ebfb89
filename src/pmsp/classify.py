"""Graph-side deciders for polytope properties.

Each decider reads off the answer from the graph (block shapes, degree
patterns, the complete multipartite table) and returns a Verdict carrying
the method used, an optional witness for negative answers, and a Gorenstein
certificate for positive ones.  The two bipartite deciders read the cut rows
of the graph's kept inequality system (`inequality_system`) instead of
scanning subsets themselves: one product tests the vectors the bound facets
pin down against every facet row.  The geometric routines in the polytope
module serve as independent cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .budgets import (
    DILATE_VERTEX_LIMIT,
    ENUMERATION_LIMIT,
    ODD_CYCLE_VERTEX_LIMIT,
    SUBSET_SCAN_LIMIT,
)
from .errors import (
    DisconnectedError,
    NotBipartiteError,
    NotPseudotreeError,
    TooLargeError,
    UnsupportedShapeError,
)
from .graph import (
    Graph,
    as_integer,
    bipartition,
    blocks_and_cut_vertices,
    connected_components,
    cut_vertex_mask,
    induced_subgraph,
    is_connected,
    mask_components,
    mask_vertices,
    pseudotree_profile,
)
from .matchable import has_perfect_matching, matchable_masks
from .polytope import (
    DilateCheck,
    GorensteinCertificate,
    dilate_checks,
    dimension,
    gorenstein_geometric,
    inequality_system,
)
from .subsets import subset_tables


@dataclass(frozen=True)
class Verdict:
    """Outcome of one property decision."""

    property_name: str
    value: bool
    method: str
    hypothesis_ok: bool = True
    witness: dict | None = None
    certificate: GorensteinCertificate | None = None
    caveat: str | None = None

    def to_json(self) -> dict:
        return {
            "property": self.property_name,
            "value": self.value,
            "method": self.method,
            "hypothesis_ok": self.hypothesis_ok,
            "witness": self.witness,
            "certificate": None
            if self.certificate is None
            else self.certificate.to_json(),
            "caveat": self.caveat,
        }


def compressed_by_theorem(g: Graph) -> Verdict:
    """Compressedness from the block decomposition.

    Within each component every block must be complete bipartite, allowing
    at most one exceptional block shaped K4 or K_{1,1,q}.
    """
    dec = blocks_and_cut_vertices(g)
    comp_id = _component_index(g)
    exceptional: dict[int, tuple[tuple[int, int], ...]] = {}
    for block, kind in zip(dec.blocks, dec.block_kinds):
        if kind.name == "CompleteBipartite":
            continue
        cid = comp_id[block[0][0]]
        if kind.name in ("K4", "K11n"):
            if cid in exceptional:
                witness = {
                    "reason": "two-exceptional-blocks",
                    "blocks": [
                        [list(e) for e in exceptional[cid]],
                        [list(e) for e in block],
                    ],
                }
                return Verdict("compressed", False, "block-classification", witness=witness)
            exceptional[cid] = block
        else:
            witness = {
                "reason": "forbidden-block",
                "block": [list(e) for e in block],
                "kind": str(kind),
            }
            return Verdict("compressed", False, "block-classification", witness=witness)
    return Verdict("compressed", True, "block-classification")


def _members(mask: int) -> list[int]:
    return list(mask_vertices(mask))


def _component_index(g: Graph) -> list[int]:
    """Index of each vertex's connected component, by minimum vertex (entry
    0 unused)."""
    index = [0] * (g.n + 1)
    for idx, comp in enumerate(connected_components(g)):
        for v in comp:
            index[v] = idx
    return index


def _checked_cut_vertices(g: Graph, name: str) -> int:
    """The cut vertex mask of g, once g has passed the guards of the
    bipartite deciders: bipartite, connected and within the subset-scan
    budget.  `name` names the decider in the error messages."""
    if bipartition(g) is None:
        raise NotBipartiteError(f"{name} needs a bipartite graph")
    if not is_connected(g):
        raise DisconnectedError(f"{name} needs a connected graph")
    if g.n > SUBSET_SCAN_LIMIT:
        raise TooLargeError(f"subset scan capped at {SUBSET_SCAN_LIMIT} vertices, got {g.n}")
    return cut_vertex_mask(g)


def _pinned_vectors(g: Graph, cuts: int, top: int):
    """The vectors the bound facets pin down for the indices t = 2..top and
    how the graph's inequality system meets them, all in one product.

    Returns (alphas, normals, misses, balanced): `alphas` has one row per t,
    1 on a non-cut vertex and t - 1 on a cut vertex; `normals` are the
    facet rows of the system, and `misses[i, t - 2]` holds when facet row i
    does not meet the vector of t at lattice distance one (normal . alpha
    != t * rhs - 1); `balanced` holds per t when the color classes carry
    equal weight (the system's balance row is 0).
    """
    system = inequality_system(g)
    t = np.arange(2, top + 1)
    alphas = np.where(cuts >> np.arange(g.n) & 1, t[:, None] - 1, 1)
    values = system.normals @ alphas.T
    misses = values[system.facet] != t * system.rhs[system.facet, None] - 1
    return alphas, system.normals[system.facet], misses, values[-2] == 0


def _interior_vector(g: Graph, cuts: int) -> GorensteinCertificate | None:
    if g.n == 1:
        return GorensteinCertificate(1, (), (0,), degenerate=True)
    alphas, _, misses, balanced = _pinned_vectors(g, cuts, g.n)
    passing = np.flatnonzero(balanced & ~misses.any(axis=0))
    if not passing.size:
        return None
    alpha = tuple(alphas[passing[0]].tolist())
    return GorensteinCertificate(int(passing[0]) + 2, alpha[:-1], alpha)


def gorenstein_bipartite(g: Graph) -> Verdict:
    """Neighborhood-surplus test for connected bipartite graphs.

    When some non-cut vertex has degree at least two, the polytope is
    Gorenstein (necessarily of index 2) exactly when the graph has a perfect
    matching and every facet cut row of `inequality_system` meets the
    all-ones vector at distance one, that is, every relevant subset S of
    the first color class satisfies |N(S)| = |S| + 1.  The witness is the
    first cut row that fails.  Without such a vertex the forced
    interior-vector system decides instead.
    """
    cuts = _checked_cut_vertices(g, "gorenstein_bipartite")
    hypothesis = any(
        g.degree(v) >= 2 and not (cuts >> (v - 1)) & 1 for v in g.vertices()
    )
    if not hypothesis:
        cert = _interior_vector(g, cuts)
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
            "gorenstein",
            False,
            "neighborhood-surplus",
            witness={"reason": "no-perfect-matching"},
        )
    alphas, normals, misses, _ = _pinned_vectors(g, cuts, 2)
    failed = np.flatnonzero(misses[:, 0])
    if failed.size:
        row = normals[failed[0]]
        return Verdict(
            "gorenstein",
            False,
            "neighborhood-surplus",
            witness={
                "subset": (np.flatnonzero(row == 1) + 1).tolist(),
                "neighborhood": (np.flatnonzero(row == -1) + 1).tolist(),
            },
        )
    ones = tuple(alphas[0].tolist())
    cert = GorensteinCertificate(2, ones[:-1], ones)
    return Verdict("gorenstein", True, "neighborhood-surplus", certificate=cert)


def solve_interior_vector(g: Graph) -> GorensteinCertificate | None:
    """Solve the forced interior-vector system of a connected bipartite graph.

    Every coordinate is pinned: non-cut vertices take 1, cut vertices take
    index-1.  A candidate index works when the two color classes balance and
    the vector meets every facet row of `inequality_system` at lattice
    distance one; the first index from 2 up that works is returned.
    """
    return _interior_vector(g, _checked_cut_vertices(g, "the interior-vector system"))


def gorenstein_pseudotree(g: Graph) -> Verdict:
    """Degree-pattern test for connected graphs with at most one cycle.

    Positive cases: very small trees, trees with exactly two distinct
    degrees, the five-cycle, triangles with matching attachment degrees, and
    even cycles of uniform degree with attachment degrees in {1, degree-1}.
    """
    cycle = pseudotree_profile(g)
    if cycle is None:
        raise NotPseudotreeError("gorenstein_pseudotree needs at most one cycle")
    method = "pseudotree-degree-cases"
    degrees = [g.degree(v) for v in g.vertices()]
    length = len(cycle)
    if not length:
        if g.n == 1:
            cert = GorensteinCertificate(1, (), (0,), degenerate=True)
            return Verdict(
                "gorenstein", True, method, witness={"case": "single-vertex"}, certificate=cert
            )
        if g.n == 2:
            cert = GorensteinCertificate(2, (1,), (1, 1))
            return Verdict(
                "gorenstein", True, method, witness={"case": "single-edge"}, certificate=cert
            )
        degree_values = sorted(set(degrees))
        if len(degree_values) != 2:
            return Verdict(
                "gorenstein",
                False,
                method,
                witness={
                    "reason": "tree-degrees-not-two-valued",
                    "degrees": degree_values,
                },
            )
        big = degree_values[1]
        alpha = tuple(1 if d == 1 else big for d in degrees)
        cert = GorensteinCertificate(big + 1, alpha[:-1], alpha)
        return Verdict(
            "gorenstein", True, method, witness={"case": "bidegreed-tree"}, certificate=cert
        )
    if length % 2:
        if length == 5:
            if g.n == 5:
                return Verdict(
                    "gorenstein", True, method, witness={"case": "five-cycle"}
                )
            return Verdict(
                "gorenstein",
                False,
                method,
                witness={"reason": "five-cycle-with-attachments"},
            )
        if length == 3:
            bad_cycle = [v for v in cycle if g.degree(v) not in (2, 3)]
            bad_rest = [
                v
                for v in g.vertices()
                if v not in cycle and g.degree(v) not in (1, 3)
            ]
            if bad_cycle or bad_rest:
                return Verdict(
                    "gorenstein",
                    False,
                    method,
                    witness={
                        "reason": "triangle-degree-mismatch",
                        "vertices": bad_cycle + bad_rest,
                    },
                )
            return Verdict(
                "gorenstein", True, method, witness={"case": "triangle-with-trees"}
            )
        return Verdict(
            "gorenstein",
            False,
            method,
            witness={"reason": "odd-cycle-length-unsupported", "cycle_length": length},
        )
    cycle_degrees = sorted({g.degree(v) for v in cycle})
    if len(cycle_degrees) != 1:
        return Verdict(
            "gorenstein",
            False,
            method,
            witness={"reason": "cycle-degrees-not-uniform", "degrees": cycle_degrees},
        )
    index = cycle_degrees[0]
    offending = [
        v
        for v in g.vertices()
        if v not in cycle and g.degree(v) not in (1, index - 1)
    ]
    if offending:
        return Verdict(
            "gorenstein",
            False,
            method,
            witness={
                "reason": "attachment-degree-mismatch",
                "vertices": offending,
                "cycle_degree": index,
            },
        )
    alpha = tuple(1 if d == 1 else index - 1 for d in degrees)
    cert = GorensteinCertificate(index, alpha[:-1], alpha)
    return Verdict(
        "gorenstein", True, method, witness={"case": "even-cycle-uniform"}, certificate=cert
    )


def complete_multipartite_shape(g: Graph) -> tuple[int, ...] | None:
    """Part sizes if g is complete multipartite, in ascending order.

    Detected through the complement: the parts are its connected components,
    and each must be a clique there.
    """
    full = g.full_mask
    co_adj = [0] * (g.n + 1)
    for v in g.vertices():
        co_adj[v] = full & ~g.adj_masks[v] & ~(1 << (v - 1))
    parts = mask_components(co_adj, full)
    for part in parts:
        for v in mask_vertices(part):
            if co_adj[v] & part != part & ~(1 << (v - 1)):
                return None
    return tuple(sorted(p.bit_count() for p in parts))


def gorenstein_complete_multipartite(shape) -> Verdict:
    """Table lookup for the complete multipartite shapes with known answers.

    Complete graphs up to four vertices, complete bipartite K_{p,q} with
    p = 1 or p = q, and K_{1,1,q} with q <= 2 are Gorenstein; the other
    members of those families are not.  Remaining shapes raise.
    """
    shape = tuple(shape)
    sizes = [as_integer(s) for s in shape]
    if None in sizes:
        raise ValueError(f"part sizes must be integers, got {shape}")
    shape = tuple(sorted(sizes))
    if not shape or shape[0] < 1:
        raise ValueError(f"invalid part sizes {shape}")
    method = "complete-multipartite-table"
    if all(s == 1 for s in shape):
        value = len(shape) <= 4
        family = "complete"
    elif len(shape) == 2:
        value = shape[0] == 1 or shape[0] == shape[1]
        family = "complete-bipartite"
    elif len(shape) == 3 and shape[1] == 1:
        value = shape[2] <= 2
        family = "tripartite-two-singletons"
    else:
        raise UnsupportedShapeError(f"no closed-form rule for part sizes {shape}")
    return Verdict(
        "gorenstein",
        value,
        method,
        witness={"shape": list(shape), "family": family},
    )


def odd_cycle_condition(g: Graph) -> Verdict:
    """Any two disjoint odd cycles in a component must be joined by an edge.

    This decides normality of the edge polytope.  Scanning induced odd
    cycles suffices: every odd cycle contains an induced one on a subset of
    its vertices, and an edge joining the induced pair joins the original
    pair as well.  The induced odd cycles are the connected masks of odd
    size at least 3 in the subset tables in which every vertex has two
    neighbors, one numpy pass per vertex, in increasing mask order.
    """
    if g.n > ODD_CYCLE_VERTEX_LIMIT:
        raise TooLargeError(
            f"odd cycle scan capped at {ODD_CYCLE_VERTEX_LIMIT} vertices, got {g.n}"
        )
    adj = g.adj_masks
    tables = subset_tables(g)
    size = tables.popcount
    connected = tables.component == np.arange(len(size))
    masks = np.flatnonzero((size >= 3) & (size % 2 == 1) & connected)
    for v in g.vertices():
        outside = masks >> (v - 1) & 1 == 0
        masks = masks[outside | (np.bitwise_count(masks & adj[v]) == 2)]
    cycles = masks.tolist()
    comp_id = _component_index(g)
    for i, a in enumerate(cycles):
        for b in cycles[i + 1 :]:
            if a & b:
                continue
            if comp_id[(a & -a).bit_length()] != comp_id[(b & -b).bit_length()]:
                continue
            if not any(adj[v] & b for v in mask_vertices(a)):
                return Verdict(
                    "edge-polytope-normal",
                    False,
                    "disjoint-odd-cycles",
                    witness={"cycles": [_members(a), _members(b)]},
                )
    return Verdict("edge-polytope-normal", True, "disjoint-odd-cycles")


def gorenstein_decide(g: Graph) -> Verdict:
    """Route one connected graph to the cheapest applicable decider.

    Order: single vertex, pseudotree, bipartite, complete multipartite
    table, then the exact geometric search as the catch-all.
    """
    if not is_connected(g):
        raise DisconnectedError("gorenstein_decide needs a connected graph")
    if g.n == 1:
        return Verdict(
            "gorenstein",
            True,
            "single-vertex",
            certificate=GorensteinCertificate(1, (), (0,), degenerate=True),
        )
    if g.edge_count <= g.n:
        return gorenstein_pseudotree(g)
    if bipartition(g) is not None:
        return gorenstein_bipartite(g)
    shape = complete_multipartite_shape(g)
    if shape is not None:
        try:
            return gorenstein_complete_multipartite(shape)
        except UnsupportedShapeError:
            pass
    cert = gorenstein_geometric(g)
    return Verdict(
        "gorenstein",
        cert is not None,
        "geometric",
        witness=None if cert else {"reason": "no-interior-lattice-vector"},
        certificate=cert,
        caveat=(
            "decided over the lattice spanned by the polytope's own points; "
            "this equals the toric-ring property whenever the polytope is normal"
        ),
    )


@dataclass(frozen=True)
class ComponentReport:
    """Classification results for one connected component."""

    vertices: tuple[int, ...]
    dimension: int
    point_count: int | None
    compressed: Verdict
    gorenstein: Verdict
    edge_polytope_normal: Verdict | None
    dilate_checks: tuple[DilateCheck, ...]

    def to_json(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "dimension": self.dimension,
            "point_count": self.point_count,
            "compressed": self.compressed.to_json(),
            "gorenstein": self.gorenstein.to_json(),
            "edge_polytope_normal": None
            if self.edge_polytope_normal is None
            else self.edge_polytope_normal.to_json(),
            "dilate_checks": [d.to_json() for d in self.dilate_checks],
        }


@dataclass(frozen=True)
class ClassificationReport:
    """Per-component classification plus the conjunction verdicts."""

    vertex_count: int
    edge_count: int
    components: tuple[ComponentReport, ...]
    compressed: bool
    gorenstein: bool

    def to_json(self) -> dict:
        return {
            "vertex_count": self.vertex_count,
            "edge_count": self.edge_count,
            "compressed": self.compressed,
            "gorenstein": self.gorenstein,
            "components": [c.to_json() for c in self.components],
        }


def classify_all(g: Graph) -> ClassificationReport:
    """Classify every component and conjoin the component verdicts.

    The polytope of a disconnected graph is the product of the component
    polytopes, so compressedness and Gorensteinness hold exactly when they
    hold for every factor.
    """
    reports = []
    for comp in connected_components(g):
        sub = induced_subgraph(g, comp)
        compressed = compressed_by_theorem(sub)
        gorenstein = gorenstein_decide(sub)
        normal = (
            odd_cycle_condition(sub) if sub.n <= ODD_CYCLE_VERTEX_LIMIT else None
        )
        dilates: tuple[DilateCheck, ...] = ()
        if sub.n <= DILATE_VERTEX_LIMIT:
            dilates = dilate_checks(sub, 2, ("normality", "idp"))
        count = len(matchable_masks(sub)) if sub.n <= ENUMERATION_LIMIT else None
        reports.append(
            ComponentReport(
                vertices=comp.members(),
                dimension=dimension(sub),
                point_count=count,
                compressed=compressed,
                gorenstein=gorenstein,
                edge_polytope_normal=normal,
                dilate_checks=dilates,
            )
        )
    return ClassificationReport(
        vertex_count=g.n,
        edge_count=g.edge_count,
        components=tuple(reports),
        compressed=all(r.compressed.value for r in reports),
        gorenstein=all(r.gorenstein.value for r in reports),
    )
