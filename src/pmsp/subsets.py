"""Tables over all 2^n vertex subsets of a graph, built once per graph.

Entry m of every table describes the vertex set with bitmask m, so a fact
about a subset is one array lookup, and a fact about all subsets is one
numpy pass.  The perfectly matchable family (`matchable_subsets`), the
lattice points (`polytope.lattice_points`) and the odd-set rows of the
inequality system (`polytope.inequality_system`) read their facts from
here.  A graph keeps its tables (`subset_tables`), and with them its point
set (whose lattice it spans) and its inequality system, so the several
questions asked about one graph build each of them once.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .budgets import ENUMERATION_LIMIT
from .errors import TooLargeError
from .graph import Graph

# bits of `SubsetTables.component_facts`: every component of the mask is
ODD_SET = 1  # a single vertex, or odd and nonbipartite
CRITICAL = 2  # critical: odd, and perfectly matchable after deleting any vertex
NONBIPARTITE = 4  # nonbipartite


class SubsetTables:
    """The subset tables of one graph, each built on its first use.

    Masks are int32, which holds every mask up to the 20-vertex budget.
    `points` and `system` hold the graph's `PointSet` and `RowSystem` once
    `polytope.lattice_points` and `polytope.inequality_system` have built
    them.
    """

    def __init__(self, n: int, adj_masks) -> None:
        if n > ENUMERATION_LIMIT:
            raise TooLargeError(f"subset tables support n <= {ENUMERATION_LIMIT}")
        self.n = n
        self.adj_masks = adj_masks
        self.points = None
        self.system = None

    @cached_property
    def neighbors(self) -> np.ndarray:
        """Union of the adjacency masks of the mask's vertices (it may meet
        the mask), by highest-bit doubling."""
        table = np.zeros(1 << self.n, dtype=np.int32)
        for i in range(self.n):
            table[1 << i : 2 << i] = table[: 1 << i] | self.adj_masks[i + 1]
        return table

    @cached_property
    def popcount(self) -> np.ndarray:
        return np.bitwise_count(np.arange(1 << self.n, dtype=np.int32))

    @cached_property
    def component(self) -> np.ndarray:
        """Component of the mask's lowest vertex in the graph induced on the
        mask (0 for the empty mask): `comp = (comp | N[comp]) & mask` grows
        one breadth-first layer a round, over the masks still growing."""
        masks = np.arange(1 << self.n, dtype=np.int32)
        comp = masks & -masks
        growing = masks[1:]
        while growing.size:
            before = comp[growing]
            after = (before | self.neighbors[before]) & growing
            moved = after != before
            growing = growing[moved]
            comp[growing] = after[moved]
        return comp

    @cached_property
    def matchable(self) -> np.ndarray:
        """Whether the mask is perfectly matchable, by highest vertex: a mask
        with top vertex i+1 is matchable iff, for some lower neighbor j+1 of
        i+1 in it, the mask without both is.  Over the block of masks with
        top vertex i+1 that is one strided pass per lower neighbor."""
        good = np.zeros(1 << self.n, dtype=bool)
        good[0] = True
        for i in range(self.n):
            lower = good[: 1 << i]
            block = good[1 << i : 2 << i]
            for j in range(i):
                if self.adj_masks[i + 1] >> j & 1:
                    block.reshape(-1, 2, 1 << j)[:, 1] |= lower.reshape(-1, 2, 1 << j)[:, 0]
        return good

    @cached_property
    def matchable_masks(self) -> np.ndarray:
        """The masks where `matchable` holds, sorted by (popcount, mask)."""
        masks = np.flatnonzero(self.matchable)
        return masks[np.argsort(self.popcount[masks], kind="stable")]

    @cached_property
    def component_facts(self) -> tuple[np.ndarray, np.ndarray]:
        """(facts, count): the ODD_SET, CRITICAL and NONBIPARTITE bits that
        hold for every component of the mask, and the number of components.

        A connected mask is nonbipartite when the vertices an even walk
        from its lowest vertex reaches are all of it (a two-colour closure
        `even = low | N[N[even] & mask] & mask`); it is critical when it
        stays matchable without any one vertex (one strided pass per
        vertex).  A mask then takes its lowest component's facts and those
        of the rest, whose lowest vertex is higher: n rounds, one per
        lowest vertex, from the top down.
        """
        size = 1 << self.n
        popcount = self.popcount
        comp = self.component
        connected = np.flatnonzero(comp == np.arange(size, dtype=np.int32))
        connected = connected[popcount[connected] > 2]  # smaller ones are bipartite
        low = connected & -connected
        even = low.copy()
        growing = np.arange(len(connected))
        while growing.size:
            mask = connected[growing]
            before = even[growing]
            after = low[growing] | self.neighbors[self.neighbors[before] & mask] & mask
            moved = after != before
            growing = growing[moved]
            even[growing] = after[moved]
        nonbipartite = np.zeros(size, dtype=bool)
        nonbipartite[connected[even == connected]] = True
        critical = np.ones(size, dtype=bool)
        for v in range(self.n):
            critical.reshape(-1, 2, 1 << v)[:, 1] &= self.matchable.reshape(-1, 2, 1 << v)[:, 0]
        odd_set = (popcount == 1) | nonbipartite & (popcount % 2 == 1)
        # the facts of a connected mask, read only at connected masks
        own = np.uint8(ODD_SET) * odd_set | np.uint8(CRITICAL) * critical
        own |= np.uint8(NONBIPARTITE) * nonbipartite
        facts = np.empty(size, dtype=np.uint8)
        count = np.empty(size, dtype=np.uint8)
        facts[0] = ODD_SET | CRITICAL | NONBIPARTITE
        count[0] = 0
        for b in range(self.n - 1, -1, -1):
            lowest = slice(1 << b, size, 2 << b)  # the masks with lowest bit b
            first = comp[lowest]
            rest = np.arange(1 << b, size, 2 << b, dtype=np.int32) ^ first
            facts[lowest] = own[first] & facts[rest]
            count[lowest] = count[rest] + 1
        return facts, count


def subset_tables(g: Graph) -> SubsetTables:
    """The subset tables of g, made on first use and kept on g.

    Raises TooLargeError over ENUMERATION_LIMIT vertices, before any table
    is allocated.
    """
    if g._tables is None:
        g._tables = SubsetTables(g.n, g.adj_masks)
    return g._tables
