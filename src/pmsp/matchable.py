"""Perfect matchings and the family of perfectly matchable vertex subsets.

A subset S of vertices is perfectly matchable when the induced subgraph on S
has a perfect matching; the empty set always qualifies.  The family is the
combinatorial core of everything downstream: its indicator vectors are the
lattice points of the polytope built in :mod:`pmsp.polytope`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotBipartiteError, TooLargeError
from .graph import Graph, VertexSet, bipartition, mask_neighborhood, mask_vertices
from .subsets import ENUMERATION_LIMIT, subset_tables


def mask_perfectly_matchable(adj_masks, mask: int, memo: dict[int, bool]) -> bool:
    """Perfect matching test on the induced subgraph given by `mask`.

    Branches on the minimum unmatched vertex, which must be matched to one of
    its unmatched neighbors; memoized on the unmatched-set mask, so a single
    memo dict can be shared across calls on the same graph.
    """
    if mask == 0:
        return True
    known = memo.get(mask)
    if known is not None:
        return known
    if mask.bit_count() % 2:
        memo[mask] = False
        return False
    low = mask & -mask
    u = low.bit_length()
    rest = mask ^ low
    result = False
    for v in mask_vertices(adj_masks[u] & rest):
        if mask_perfectly_matchable(adj_masks, rest ^ (1 << (v - 1)), memo):
            result = True
            break
    memo[mask] = result
    return result


def has_perfect_matching(g: Graph) -> bool:
    """True iff g has a perfect matching (exact search, exponential worst case)."""
    return mask_perfectly_matchable(g.adj_masks, g.full_mask, {})


@dataclass(frozen=True)
class MatchableFamily:
    """All perfectly matchable subsets, sorted by (cardinality, bitmask)."""

    universe: int
    subsets: tuple[VertexSet, ...]

    def __len__(self) -> int:
        return len(self.subsets)

    def __iter__(self):
        return iter(self.subsets)

    def masks(self) -> frozenset[int]:
        return frozenset(s.mask for s in self.subsets)

    def as_lists(self) -> list[list[int]]:
        return [list(s.members()) for s in self.subsets]


def matchable_subsets(g: Graph) -> MatchableFamily:
    """The perfectly matchable subset family of g, read off the graph's
    matchable subset table (`subsets.SubsetTables.matchable`).  Budget:
    n <= 20.
    """
    if g.n > ENUMERATION_LIMIT:
        raise TooLargeError(f"matchable_subsets supports n <= {ENUMERATION_LIMIT}")
    tables = subset_tables(g)
    members = np.flatnonzero(tables.matchable)
    members = members[np.argsort(tables.popcount[members], kind="stable")]
    return MatchableFamily(
        universe=g.n,
        subsets=tuple(VertexSet(m, g.n) for m in members.tolist()),
    )


def hall_violations(g: Graph, side: VertexSet) -> list[VertexSet]:
    """Nonempty subsets S of `side` with |S| > |neighborhood(S)|.

    `side` must be one part of a bipartition of g.  The list is sorted by
    (cardinality, bitmask); it is empty iff g has a matching covering `side`.
    """
    if bipartition(g) is None:
        raise NotBipartiteError("hall_violations requires a bipartite graph")
    other = g.full_mask & ~side.mask
    for v in side:
        if g.adj_masks[v] & side.mask:
            raise NotBipartiteError("side is not an independent side of g")
    for v in mask_vertices(other):
        if g.adj_masks[v] & other:
            raise NotBipartiteError("side is not an independent side of g")
    k = len(side)
    if k > ENUMERATION_LIMIT:
        raise TooLargeError(f"hall_violations supports |side| <= {ENUMERATION_LIMIT}")
    members = side.members()
    out = []
    for sub in range(1, 1 << k):
        mask = 0
        for i in range(k):
            if sub >> i & 1:
                mask |= 1 << (members[i] - 1)
        if mask.bit_count() > mask_neighborhood(g.adj_masks, mask).bit_count():
            out.append(mask)
    out.sort(key=lambda m: (m.bit_count(), m))
    return [VertexSet(m, g.n) for m in out]
