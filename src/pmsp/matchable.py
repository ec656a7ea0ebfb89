"""Perfect matchings and the family of perfectly matchable vertex subsets.

A subset S of vertices is perfectly matchable when the induced subgraph on S
has a perfect matching; the empty set always qualifies.  The family is the
combinatorial core of everything downstream: its indicator vectors are the
lattice points of the polytope built in :mod:`pmsp.polytope`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .budgets import ENUMERATION_LIMIT
from .errors import NotBipartiteError, TooLargeError
from .graph import (
    Graph,
    VertexSet,
    bipartition,
    mask_neighborhood,
    mask_vertices,
    proper_nonempty_submasks,
)
from .subsets import subset_tables


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

    def as_lists(self) -> list[list[int]]:
        return [list(s.members()) for s in self.subsets]


def matchable_masks(g: Graph) -> np.ndarray:
    """Masks of the perfectly matchable sets of g, sorted by (cardinality,
    bitmask), read off the graph's subset tables.  Budget: n <= 20.
    """
    if g.n > ENUMERATION_LIMIT:
        raise TooLargeError(f"matchable_subsets supports n <= {ENUMERATION_LIMIT}")
    return subset_tables(g).matchable_masks


def matchable_subsets(g: Graph) -> MatchableFamily:
    """The perfectly matchable subset family of g.  Budget: n <= 20."""
    return MatchableFamily(
        universe=g.n,
        subsets=tuple(VertexSet(m, g.n) for m in matchable_masks(g).tolist()),
    )


def hall_violations(g: Graph, side: VertexSet) -> list[VertexSet]:
    """Nonempty subsets S of `side` with |S| > |neighborhood(S)|.

    `side` must be one part of a bipartition of g.  The list is sorted by
    (cardinality, bitmask); it is empty iff g has a matching covering `side`.
    """
    if bipartition(g) is None:
        raise NotBipartiteError("hall_violations requires a bipartite graph")
    other = g.full_mask & ~side.mask
    if any(g.adj_masks[v] & m for m in (side.mask, other) for v in mask_vertices(m)):
        raise NotBipartiteError("side is not an independent side of g")
    if len(side) > ENUMERATION_LIMIT:
        raise TooLargeError(f"hall_violations supports |side| <= {ENUMERATION_LIMIT}")
    return [
        VertexSet(m, g.n)
        for m in proper_nonempty_submasks(side.mask) + [side.mask]
        if m.bit_count() > mask_neighborhood(g.adj_masks, m).bit_count()
    ]
