"""Finite simple graphs with 1-based labels and bitmask vertex sets.

Vertices are labelled 1..n and bit v-1 of a mask stands for vertex v, so
subset work is plain integer arithmetic.  Everything that returns vertices,
edges, or families of sets uses a fixed canonical order (sorted labels,
lexicographic edges) to keep downstream output byte-stable.

A graph holds at most `GRAPH_VERTEX_LIMIT` vertices, checked before the
adjacency masks are allocated.  Each structural question takes one pass:
one low-link scan yields the blocks and the cut vertex mask, each block is
classified on the graph's own adjacency masks restricted to its vertices
(no subgraph is built), and the pseudotree profile is the unique cycle left
after peeling leaves.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass

from .budgets import GRAPH_VERTEX_LIMIT
from .errors import (
    DisconnectedError,
    GraphParseError,
    NotBiconnectedError,
    SelfLoopError,
    TooLargeError,
)


def mask_vertices(mask: int):
    """Yield the vertices of a bitmask in increasing label order."""
    while mask:
        low = mask & -mask
        yield low.bit_length()
        mask ^= low


def as_integer(value) -> int | None:
    """`value` as an int (numpy integers included), or None for a bool or a
    value that is not integral."""
    if isinstance(value, bool):
        return None
    try:
        return operator.index(value)
    except TypeError:
        return None


@dataclass(frozen=True)
class VertexSet:
    """Subset of {1..universe} stored as a bitmask."""

    mask: int
    universe: int

    def __post_init__(self) -> None:
        if self.mask < 0 or self.mask >> self.universe:
            raise ValueError(f"mask {self.mask:#x} outside universe {self.universe}")

    @staticmethod
    def from_vertices(vertices, universe: int) -> "VertexSet":
        mask = 0
        for v in vertices:
            if not 1 <= v <= universe:
                raise ValueError(f"vertex {v} outside 1..{universe}")
            mask |= 1 << (v - 1)
        return VertexSet(mask, universe)

    def members(self) -> tuple[int, ...]:
        return tuple(mask_vertices(self.mask))

    def __iter__(self):
        return mask_vertices(self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, v: int) -> bool:
        return 1 <= v <= self.universe and bool(self.mask >> (v - 1) & 1)

    def __repr__(self) -> str:
        return f"VertexSet({{{', '.join(map(str, self.members()))}}}, n={self.universe})"


class Graph:
    """Immutable simple graph on vertices 1..n.

    `_tables` holds the graph's subset tables once `subsets.subset_tables`
    has built them, and `_cuts` its cut vertex mask once `cut_vertex_mask`
    has found it; they are derived data and take no part in equality,
    hashing or JSON.
    """

    __slots__ = ("n", "edges", "adj_masks", "_hash", "_tables", "_cuts")

    def __init__(self, n: int, edges) -> None:
        n = as_integer(n)
        if n is None:
            raise GraphParseError("vertex count must be an integer")
        if n < 1:
            raise GraphParseError("vertex count must be at least 1")
        if n > GRAPH_VERTEX_LIMIT:
            raise TooLargeError(f"graph has {n} vertices, over the cap {GRAPH_VERTEX_LIMIT}")
        seen: set[tuple[int, int]] = set()
        for edge in edges:
            try:
                if isinstance(edge, (str, bytes)):  # "12" would unpack into two characters
                    raise TypeError
                u, v = edge
            except (TypeError, ValueError):
                raise GraphParseError(f"edge {edge!r} is not a pair of labels") from None
            if type(u) is not int or type(v) is not int:  # bools, numpy integers, ...
                u, v = as_integer(u), as_integer(v)
                if u is None or v is None:
                    raise GraphParseError(f"edge {edge!r} has a non-integer label")
            if u == v:
                raise SelfLoopError(f"self-loop at vertex {u}")
            if not (1 <= u <= n and 1 <= v <= n):
                raise GraphParseError(f"edge ({u}, {v}) outside 1..{n}")
            seen.add((u, v) if u < v else (v, u))
        self.n = n
        self.edges = tuple(sorted(seen))
        masks = [0] * (n + 1)
        for u, v in self.edges:
            masks[u] |= 1 << (v - 1)
            masks[v] |= 1 << (u - 1)
        self.adj_masks = tuple(masks)
        self._hash = hash((self.n, self.edges))
        self._tables = None
        self._cuts = None

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return self.adj_masks[v].bit_count()

    def vertices(self) -> range:
        return range(1, self.n + 1)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={len(self.edges)})"

    def to_json(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in self.edges]}


# ---------------------------------------------------------------------------
# parsing and construction


def _check_cap(n: int, max_n: int | None) -> None:
    if max_n is not None and n > max_n:
        raise TooLargeError(f"graph has {n} vertices, over the requested cap {max_n}")


def parse_graph(text: str, max_n: int | None = None) -> Graph:
    """Parse an edge-list: one "u v" pair per line, optional leading "n <count>".

    '#' starts a comment, blank lines are ignored, duplicate edges collapse.
    A vertex count over `max_n` raises TooLargeError before the graph is built.
    """
    declared: int | None = None
    edges: list[tuple[int, int]] = []
    max_label = 0
    first_data_line = True
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if first_data_line and tokens[0] == "n":
            if len(tokens) != 2:
                raise GraphParseError(f"line {lineno}: expected 'n <count>'")
            declared = _parse_label(tokens[1], lineno, allow_name="count")
            first_data_line = False
            continue
        first_data_line = False
        if len(tokens) != 2:
            raise GraphParseError(f"line {lineno}: expected 'u v', got {line!r}")
        u = _parse_label(tokens[0], lineno)
        v = _parse_label(tokens[1], lineno)
        if u == v:
            raise SelfLoopError(f"line {lineno}: self-loop at vertex {u}")
        edges.append((u, v))
        max_label = max(max_label, u, v)
    if declared is None:
        if max_label == 0:
            raise GraphParseError("no vertices: give edges or a leading 'n <count>' line")
        n = max_label
    else:
        if max_label > declared:
            raise GraphParseError(
                f"edge label {max_label} exceeds declared vertex count {declared}"
            )
        n = declared
    _check_cap(n, max_n)
    return Graph(n, edges)


def _parse_label(token: str, lineno: int, allow_name: str = "vertex label") -> int:
    try:
        value = int(token)
    except ValueError:
        raise GraphParseError(f"line {lineno}: non-integer {allow_name} {token!r}") from None
    if value <= 0:
        raise GraphParseError(f"line {lineno}: {allow_name} must be positive, got {value}")
    return value


def parse_graph_json(text: str, max_n: int | None = None) -> Graph:
    """Parse {"n": int, "edges": [[u, v], ...]}.

    A vertex count over `max_n` raises TooLargeError before the graph is
    built; `Graph` checks the edge entries.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphParseError(f"invalid JSON: {exc}") from None
    n = obj.get("n") if isinstance(obj, dict) else None
    if not isinstance(n, int) or isinstance(n, bool):
        raise GraphParseError('expected an object with integer "n"')
    raw_edges = obj.get("edges", [])
    if not isinstance(raw_edges, list):
        raise GraphParseError('"edges" must be a list of pairs')
    if n < 1:
        raise GraphParseError("vertex count must be at least 1")
    _check_cap(n, max_n)
    return Graph(n, raw_edges)


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return Graph(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(1, n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)])


def complete_bipartite_graph(p: int, q: int) -> Graph:
    return complete_multipartite_graph(p, q)


def complete_multipartite_graph(*sizes: int) -> Graph:
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError("part sizes must be positive")
    part_of = []
    for index, size in enumerate(sizes):
        part_of.extend([index] * size)
    n = len(part_of)
    edges = [
        (u, v)
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if part_of[u - 1] != part_of[v - 1]
    ]
    return Graph(n, edges)


# ---------------------------------------------------------------------------
# mask-level helpers (shared by the polytope construction hot loops)


def mask_component(adj_masks, allowed: int, seed: int) -> int:
    """Connected component of the induced subgraph on `allowed` containing `seed`."""
    comp = 0
    frontier = seed
    while frontier:
        comp |= frontier
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= adj_masks[low.bit_length()]
            frontier ^= low
        frontier = nxt & allowed & ~comp
    return comp


def mask_components(adj_masks, mask: int) -> list[int]:
    comps = []
    while mask:
        comp = mask_component(adj_masks, mask, mask & -mask)
        comps.append(comp)
        mask &= ~comp
    return comps


def mask_is_connected(adj_masks, mask: int) -> bool:
    """Vacuously true for the empty set, true for singletons."""
    if mask == 0:
        return True
    return mask_component(adj_masks, mask, mask & -mask) == mask


def mask_two_color(adj_masks, mask: int) -> int | None:
    """Two-coloring of the induced subgraph on `mask`: the vertices at even
    breadth-first depth from the lowest vertex of their component, or None
    when some layer holds an edge (all other edges join adjacent layers)."""
    even = 0
    while mask:
        seen = frontier = mask & -mask
        at_even = True
        while frontier:
            if at_even:
                even |= frontier
            at_even = not at_even
            reach = 0
            rest = frontier
            while rest:
                low = rest & -rest
                reach |= adj_masks[low.bit_length()]
                rest ^= low
            reach &= mask
            if reach & frontier:
                return None
            frontier = reach & ~seen
            seen |= frontier
        mask &= ~seen
    return even


def mask_neighborhood(adj_masks, mask: int) -> int:
    out = 0
    rest = mask
    while rest:
        low = rest & -rest
        out |= adj_masks[low.bit_length()]
        rest ^= low
    return out & ~mask


def proper_nonempty_submasks(mask: int) -> list[int]:
    """Proper nonempty submasks of `mask`, sorted by (cardinality, bitmask)."""
    subs = []
    sub = (mask - 1) & mask
    while sub:
        subs.append(sub)
        sub = (sub - 1) & mask
    subs.sort(key=lambda m: (m.bit_count(), m))
    return subs


# ---------------------------------------------------------------------------
# structure


def connected_components(g: Graph) -> list[VertexSet]:
    """Components ordered by their minimum vertex."""
    return [VertexSet(m, g.n) for m in mask_components(g.adj_masks, g.full_mask)]


def is_connected(g: Graph) -> bool:
    return mask_is_connected(g.adj_masks, g.full_mask)


def bipartition(g: Graph) -> tuple[VertexSet, VertexSet] | None:
    """Deterministic 2-coloring: each component's minimum vertex lands in V1."""
    m1 = mask_two_color(g.adj_masks, g.full_mask)
    if m1 is None:
        return None
    return VertexSet(m1, g.n), VertexSet(g.full_mask ^ m1, g.n)


@dataclass(frozen=True)
class BlockKind:
    """Shape tag for a block: CompleteBipartite(p,q), K4, K11n(q), or Other."""

    name: str
    params: tuple[int, ...] = ()

    def __str__(self) -> str:
        if self.params:
            return f"{self.name}({','.join(map(str, self.params))})"
        return self.name


@dataclass(frozen=True)
class BlockDecomposition:
    blocks: tuple[tuple[tuple[int, int], ...], ...]
    cut_vertices: VertexSet
    block_kinds: tuple[BlockKind, ...]


def _block_scan(g: Graph):
    """Edge sets of the blocks plus the cut vertex mask (iterative low-link
    scan).  Blocks are ordered by (minimum vertex, edge list)."""
    disc = [0] * (g.n + 1)
    low = [0] * (g.n + 1)
    timer = 1
    cut = 0
    raw_blocks: list[list[tuple[int, int]]] = []
    estack: list[tuple[int, int]] = []
    for root in g.vertices():
        if disc[root]:
            continue
        disc[root] = low[root] = timer
        timer += 1
        root_children = 0
        frames: list[tuple[int, int]] = [(root, 0)]
        iters = {root: mask_vertices(g.adj_masks[root])}
        while frames:
            v, parent = frames[-1]
            descended = False
            for w in iters[v]:
                if w == parent:
                    continue
                if not disc[w]:
                    estack.append((v, w) if v < w else (w, v))
                    disc[w] = low[w] = timer
                    timer += 1
                    if v == root:
                        root_children += 1
                    frames.append((w, v))
                    iters[w] = mask_vertices(g.adj_masks[w])
                    descended = True
                    break
                if disc[w] < disc[v]:
                    estack.append((v, w) if v < w else (w, v))
                    low[v] = min(low[v], disc[w])
            if descended:
                continue
            frames.pop()
            if not frames:
                break
            u = frames[-1][0]
            low[u] = min(low[u], low[v])
            if low[v] >= disc[u]:
                mark = (u, v) if u < v else (v, u)
                comp = []
                while estack:
                    e = estack.pop()
                    comp.append(e)
                    if e == mark:
                        break
                raw_blocks.append(comp)
                if u != root or root_children > 1:
                    cut |= 1 << (u - 1)
    # a sorted block's first edge starts at its minimum vertex
    return sorted(tuple(sorted(b)) for b in raw_blocks), cut


def _block_kind(adj_masks, mask: int, m: int) -> BlockKind:
    """Shape of the block on the vertex mask `mask` with `m` edges.

    `adj_masks` may belong to a larger graph: the graph induced on a
    block's vertices has exactly the block's edges, because adding an edge
    keeps a block 2-connected.
    """
    if m == 1:
        return BlockKind("CompleteBipartite", (1, 1))
    n = mask.bit_count()
    if n == 4 and m == 6:
        return BlockKind("K4")
    if m == 2 * n - 3:
        # K_{1,1,q}: two vertices adjacent to all others, and no further edge
        hubs = [v for v in mask_vertices(mask) if (adj_masks[v] | 1 << (v - 1)) & mask == mask]
        if len(hubs) >= 2:
            return BlockKind("K11n", (n - 2,))
    even = mask_two_color(adj_masks, mask)
    if even is not None:
        p, q = sorted((even.bit_count(), n - even.bit_count()))
        if m == p * q:
            return BlockKind("CompleteBipartite", (p, q))
    return BlockKind("Other")


def blocks_and_cut_vertices(g: Graph) -> BlockDecomposition:
    """Biconnected components as edge sets, cut vertices, and block kinds.

    Blocks are ordered by (minimum vertex, edge list) and classified on
    g's own adjacency.  Isolated vertices belong to no block.  The cut
    vertex mask is kept with g, as `cut_vertex_mask` keeps it.
    """
    raw_blocks, cut = _block_scan(g)
    g._cuts = cut
    kinds = []
    for block in raw_blocks:
        mask = 0
        for u, v in block:
            mask |= 1 << (u - 1) | 1 << (v - 1)
        kinds.append(_block_kind(g.adj_masks, mask, len(block)))
    return BlockDecomposition(
        blocks=tuple(raw_blocks),
        cut_vertices=VertexSet(cut, g.n),
        block_kinds=tuple(kinds),
    )


def cut_vertex_mask(g: Graph) -> int:
    """Bitmask of the cut vertices of g, found by one block scan per graph
    and kept with it."""
    if g._cuts is None:
        g._cuts = _block_scan(g)[1]
    return g._cuts


def classify_block(g: Graph) -> BlockKind:
    """Shape of a 2-connected graph (a single edge counts as K_{1,1}).

    Checks K4 before K_{1,1,2} so the five-edge and six-edge shapes on four
    vertices get distinct tags; K3 is tagged K11n(1).
    """
    if len(_block_scan(g)[0]) != 1 or not is_connected(g):
        raise NotBiconnectedError(f"{g!r} is not 2-connected or a single edge")
    return _block_kind(g.adj_masks, g.full_mask, g.edge_count)


def induced_subgraph(g: Graph, s: VertexSet) -> Graph:
    """Induced subgraph relabelled to 1..|s| preserving label order.

    New vertex i corresponds to s.members()[i-1].
    """
    members = s.members()
    if not members:
        raise ValueError("induced subgraph needs at least one vertex")
    index = {old: new for new, old in enumerate(members, start=1)}
    edges = [
        (index[u], index[v]) for u, v in g.edges if u in index and v in index
    ]
    return Graph(len(members), edges)


def pseudotree_profile(g: Graph) -> VertexSet | None:
    """The unique cycle of a connected graph with m <= n edges (empty for a
    tree), or None when m > n."""
    if not is_connected(g):
        raise DisconnectedError("pseudotree profile requires a connected graph")
    if g.edge_count > g.n:
        return None
    remaining = 0
    if g.edge_count == g.n:
        # peel leaves until only the cycle is left
        remaining = g.full_mask
        deg = [g.degree(v) for v in range(g.n + 1)]
        stack = [v for v in g.vertices() if deg[v] == 1]
        while stack:
            v = stack.pop()
            remaining &= ~(1 << (v - 1))
            for w in mask_vertices(g.adj_masks[v] & remaining):
                deg[w] -= 1
                if deg[w] == 1:
                    stack.append(w)
    return VertexSet(remaining, g.n)
