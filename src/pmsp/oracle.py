"""Brute-force validators and corpus generation for cross-checking.

The routines here avoid the recurrences and criteria used by the modules
they validate: matchability is re-decided by extending matchings edge by
edge per subset, compressedness is re-decided by counting facet levels over
the actual lattice points with rank-detected facets, and isomorphism dedup
uses a branch-and-bound minimum adjacency encoding.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations

from .budgets import BRUTE_FORCE_LIMIT, CORPUS_CAPS, LABELED_CAP, SULLIVANT_LIMIT
from .classify import (
    Verdict,
    complete_multipartite_shape,
    compressed_by_theorem,
    gorenstein_bipartite,
    gorenstein_complete_multipartite,
    gorenstein_decide,
    gorenstein_pseudotree,
)
from .errors import DisconnectedError, TooLargeError, UnsupportedShapeError
from .graph import Graph, VertexSet, bipartition, is_connected, mask_vertices
from .matchable import MatchableFamily, matchable_subsets
from .polytope import facet_scan, gorenstein_geometric, inequality_system, lattice_points


def _edge_scan_cover(edge_bits, target: int, start: int) -> bool:
    if target == 0:
        return True
    for i in range(start, len(edge_bits)):
        eb = edge_bits[i]
        if eb & target == eb:
            if _edge_scan_cover(edge_bits, target & ~eb, i + 1):
                return True
    return False


def brute_force_matchable(g: Graph) -> MatchableFamily:
    """Matchable subsets recomputed by per-subset matching enumeration.

    Each even-cardinality subset is tested independently by trying to cover
    it with pairwise disjoint edges taken in list order; no recurrence or
    memo is shared across subsets.
    """
    if g.n > BRUTE_FORCE_LIMIT:
        raise TooLargeError(
            f"brute-force enumeration capped at {BRUTE_FORCE_LIMIT} vertices, got {g.n}"
        )
    edge_bits = [(1 << (u - 1)) | (1 << (v - 1)) for u, v in g.edges]
    masks = [
        m
        for m in range(1 << g.n)
        if m.bit_count() % 2 == 0 and _edge_scan_cover(edge_bits, m, 0)
    ]
    masks.sort(key=lambda m: (m.bit_count(), m))
    return MatchableFamily(
        universe=g.n, subsets=tuple(VertexSet(m, g.n) for m in masks)
    )


def sullivant_compressed(g: Graph):
    """Two-level test over the actual lattice points: (value, witness).

    Facets are detected from active-set ranks, ignoring the criterion flags.
    The polytope is compressed exactly when every facet row sees at most two
    distinct values; a witness records one facet with three levels and a
    realizing point per level.
    """
    if not is_connected(g):
        raise DisconnectedError("the level-count test needs a connected graph")
    if g.n > SULLIVANT_LIMIT:
        raise TooLargeError(
            f"level-count test capped at {SULLIVANT_LIMIT} vertices, got {g.n}"
        )
    pts = lattice_points(g)
    system = inequality_system(g)
    scan = facet_scan(pts.matrix, pts.lattice.rank, system.normals, system.rhs)
    for (values, facet), rhs, source in zip(scan, system.rhs.tolist(), system.sources):
        if not facet:
            continue
        values = values.tolist()
        distinct = sorted(set(values))
        if len(distinct) > 2:
            witness = {
                "source": source,
                "levels": [v - rhs for v in distinct],
                "values": distinct,
                "points": [pts.matrix[values.index(v)].tolist() for v in distinct[:3]],
            }
            return False, witness
    return True, None


@dataclass(frozen=True)
class CorpusSpec:
    """What to enumerate: size cap, family filter, and dedup switch."""

    max_n: int
    family: str = "all"
    dedup: bool = True

    def __post_init__(self) -> None:
        if self.family not in CORPUS_CAPS:
            raise ValueError(f"unknown family {self.family!r}")
        if self.max_n < 1:
            raise ValueError("max_n must be at least 1")
        cap = CORPUS_CAPS[self.family] if self.dedup else LABELED_CAP
        if self.max_n > cap:
            raise TooLargeError(
                f"family {self.family!r} corpus capped at {cap} vertices"
                f"{' without dedup' if not self.dedup else ''}, got {self.max_n}"
            )


def canonical_code(g: Graph) -> int:
    """Isomorphism key: vertex count plus minimum adjacency encoding.

    Vertices are placed one at a time; the code lists, for each new vertex,
    its adjacency bits to the already placed ones (earlier placements more
    significant).  Grouping bits by the later endpoint makes the code of a
    partial placement a prefix of every completion, so only placements
    matching the running minimum survive each level (branch and bound).
    The vertex count sits above the adjacency bits so graphs of different
    sizes never share a code.

    Twins are pruned exactly.  Two vertices are twins when their
    neighborhoods agree apart from each other.  Swapping two twins is an
    automorphism and twinship is an equivalence, so every order has a
    partner with the same code that places each twin class in label
    order.  Those orders alone therefore reach the least prefix at every
    level, and a vertex is skipped, from the first level on, while a
    smaller twin of it is still unplaced.
    """
    n = g.n
    adj = g.adj_masks
    twins_below = [0] * (n + 1)
    for u in range(1, n + 1):
        for v in range(1, u):
            bits = 1 << (u - 1) | 1 << (v - 1)
            if adj[u] & ~bits == adj[v] & ~bits:
                twins_below[u] |= 1 << (v - 1)
    partials = [((v,), 1 << (v - 1)) for v in range(1, n + 1) if not twins_below[v]]
    code = 0
    for level in range(1, n):
        best = None
        survivors = []
        for placed, used in partials:
            for u in range(1, n + 1):
                bit = 1 << (u - 1)
                if used & bit or twins_below[u] & ~used:
                    continue
                block = 0
                for w in placed:
                    block = block << 1 | (adj[u] >> (w - 1)) & 1
                if best is None or block < best:
                    best = block
                    survivors = [(placed + (u,), used | bit)]
                elif block == best:
                    survivors.append((placed + (u,), used | bit))
        partials = survivors
        code = code << level | best
    return n << (n * (n - 1) // 2) | code


def _family_member(g: Graph, family: str) -> bool:
    if family == "bipartite":
        return bipartition(g) is not None
    if family == "pseudotree":
        return g.edge_count <= g.n
    if family == "multipartite":
        return complete_multipartite_shape(g) is not None
    return True


def _ascending_partitions(total: int, parts: int, minimum: int = 1):
    if parts == 1:
        yield (total,)
        return
    for first in range(minimum, total // parts + 1):
        for rest in _ascending_partitions(total - first, parts - 1, first):
            yield (first,) + rest


def _multipartite_shapes(max_n: int) -> list[tuple[int, ...]]:
    shapes = [(1,)]
    for n in range(2, max_n + 1):
        for k in range(2, n + 1):
            shapes.extend(_ascending_partitions(n, k))
    shapes.sort(key=lambda s: (sum(s), len(s), s))
    return shapes


def _labeled_corpus(spec: CorpusSpec):
    for n in range(1, spec.max_n + 1):
        pairs = list(combinations(range(1, n + 1), 2))
        for picks in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if picks >> i & 1]
            g = Graph(n, edges)
            if not is_connected(g):
                continue
            if _family_member(g, spec.family):
                yield g


def _augmented_corpus(spec: CorpusSpec):
    level = [Graph(1, [])]
    if _family_member(level[0], spec.family):
        yield level[0]
    for n in range(2, spec.max_n + 1):
        seen: dict[int, Graph] = {}
        for parent in level:
            base_edges = parent.edges
            for hood in range(1, 1 << (n - 1)):
                if spec.family == "pseudotree":
                    if parent.edge_count + hood.bit_count() > n:
                        continue
                edges = base_edges + tuple(
                    (v, n) for v in mask_vertices(hood)
                )
                g = Graph(n, edges)
                if not _family_member(g, spec.family):
                    continue
                code = canonical_code(g)
                if code not in seen:
                    seen[code] = g
        level = [seen[c] for c in sorted(seen)]
        yield from level


def generate_corpus(spec: CorpusSpec):
    """Connected graphs up to spec.max_n, smallest first.

    With dedup, one representative per isomorphism class, grown by vertex
    augmentation (every connected graph arises by deleting a non-cut vertex,
    and the bipartite / pseudotree families are closed under that move).
    Without dedup, every labeled graph, in edge-set order.  The multipartite
    family enumerates part-size shapes directly.
    """
    if spec.dedup and spec.family == "multipartite":
        from .graph import complete_multipartite_graph

        for shape in _multipartite_shapes(spec.max_n):
            yield complete_multipartite_graph(*shape)
        return
    if spec.dedup:
        yield from _augmented_corpus(spec)
    else:
        yield from _labeled_corpus(spec)


@dataclass(frozen=True)
class SweepRecord:
    """One theorem-versus-oracle comparison on one graph."""

    graph: dict
    property_name: str
    theorem_value: object
    oracle_value: object
    agree: bool
    micros: int

    def to_json(self, include_timing: bool = False) -> dict:
        out = {
            "graph": self.graph,
            "property": self.property_name,
            "theorem_value": self.theorem_value,
            "oracle_value": self.oracle_value,
            "agree": self.agree,
        }
        if include_timing:
            out["micros"] = self.micros
        return out


@dataclass(frozen=True)
class SweepReport:
    """All records of one corpus sweep."""

    spec: CorpusSpec
    records: tuple[SweepRecord, ...]

    @property
    def disagreements(self) -> tuple[SweepRecord, ...]:
        return tuple(r for r in self.records if not r.agree)

    @property
    def ok(self) -> bool:
        return not self.disagreements

    def to_jsonl(self, include_timing: bool = False) -> str:
        import json

        return "\n".join(
            json.dumps(r.to_json(include_timing), sort_keys=True, separators=(",", ":"))
            for r in self.records
        )


def _theorem_gorenstein(g: Graph, family: str) -> Verdict | None:
    """The family-appropriate structural verdict, or None when only the
    geometric route applies (nothing independent to compare)."""
    if family == "bipartite":
        return gorenstein_bipartite(g)
    if family == "pseudotree":
        return gorenstein_pseudotree(g)
    if family == "multipartite":
        shape = complete_multipartite_shape(g)
        try:
            return gorenstein_complete_multipartite(shape)
        except UnsupportedShapeError:
            return None
    verdict = gorenstein_decide(g)
    return None if verdict.method == "geometric" else verdict


def agreement_sweep(spec: CorpusSpec) -> SweepReport:
    """Compare structural deciders against brute-force recomputations.

    Per graph: the matchable family against the per-subset oracle, the block
    characterization against the level-count test, and the structural
    Gorenstein verdict (when one applies) against the geometric search,
    including the dilation index whenever both sides produce a certificate.
    """
    records = []
    for g in generate_corpus(spec):
        graph_json = g.to_json()
        if g.n <= BRUTE_FORCE_LIMIT:
            start = time.perf_counter_ns()
            fast = matchable_subsets(g)
            slow = brute_force_matchable(g)
            agree = [s.mask for s in fast.subsets] == [s.mask for s in slow.subsets]
            micros = (time.perf_counter_ns() - start) // 1000
            records.append(
                SweepRecord(
                    graph_json,
                    "matchable-family",
                    len(fast),
                    len(slow),
                    agree,
                    micros,
                )
            )
        if g.n <= SULLIVANT_LIMIT:
            start = time.perf_counter_ns()
            theorem = compressed_by_theorem(g)
            oracle_value, _ = sullivant_compressed(g)
            micros = (time.perf_counter_ns() - start) // 1000
            records.append(
                SweepRecord(
                    graph_json,
                    "compressed",
                    theorem.value,
                    oracle_value,
                    theorem.value == oracle_value,
                    micros,
                )
            )
        verdict = _theorem_gorenstein(g, spec.family)
        if verdict is not None:
            start = time.perf_counter_ns()
            cert = gorenstein_geometric(g)
            agree = verdict.value == (cert is not None)
            if agree and cert is not None and verdict.certificate is not None:
                agree = (
                    verdict.certificate.index == cert.index
                    and verdict.certificate.interior_point_ambient
                    == cert.interior_point_ambient
                )
            micros = (time.perf_counter_ns() - start) // 1000
            records.append(
                SweepRecord(
                    graph_json,
                    "gorenstein",
                    verdict.value,
                    cert is not None,
                    agree,
                    micros,
                )
            )
    return SweepReport(spec, tuple(records))
