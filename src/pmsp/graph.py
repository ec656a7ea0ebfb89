"""Finite simple graphs with 1-based labels and bitmask vertex sets.

Vertices are labelled 1..n and bit v-1 of a mask stands for vertex v, so
subset work is plain integer arithmetic.  Everything that returns vertices,
edges, or families of sets uses a fixed canonical order (sorted labels,
lexicographic edges) to keep downstream output byte-stable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

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

    def _check(self, other: "VertexSet") -> None:
        if self.universe != other.universe:
            raise ValueError("vertex sets live in different universes")

    def union(self, other: "VertexSet") -> "VertexSet":
        self._check(other)
        return VertexSet(self.mask | other.mask, self.universe)

    def intersection(self, other: "VertexSet") -> "VertexSet":
        self._check(other)
        return VertexSet(self.mask & other.mask, self.universe)

    def difference(self, other: "VertexSet") -> "VertexSet":
        self._check(other)
        return VertexSet(self.mask & ~other.mask, self.universe)

    def complement(self) -> "VertexSet":
        return VertexSet(~self.mask & (1 << self.universe) - 1, self.universe)

    def issubset(self, other: "VertexSet") -> bool:
        self._check(other)
        return self.mask & ~other.mask == 0

    def __repr__(self) -> str:
        return f"VertexSet({{{', '.join(map(str, self.members()))}}}, n={self.universe})"


class Graph:
    """Immutable simple graph on vertices 1..n."""

    __slots__ = ("n", "edges", "adj", "adj_masks", "_hash")

    def __init__(self, n: int, edges) -> None:
        if n < 1:
            raise GraphParseError("vertex count must be at least 1")
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            if u == v:
                raise SelfLoopError(f"self-loop at vertex {u}")
            if not (1 <= u <= n and 1 <= v <= n):
                raise GraphParseError(f"edge ({u}, {v}) outside 1..{n}")
            seen.add((u, v) if u < v else (v, u))
        self.n = n
        self.edges = tuple(sorted(seen))
        adj: list[list[int]] = [[] for _ in range(n + 1)]
        masks = [0] * (n + 1)
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
            masks[u] |= 1 << (v - 1)
            masks[v] |= 1 << (u - 1)
        self.adj = tuple(tuple(sorted(a)) for a in adj)
        self.adj_masks = tuple(masks)
        self._hash = hash((self.n, self.edges))

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adj[v]

    def vertices(self) -> range:
        return range(1, self.n + 1)

    def vertex_set(self) -> VertexSet:
        return VertexSet(self.full_mask, self.n)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj_masks[u] >> (v - 1) & 1)

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

    A vertex count over `max_n` raises TooLargeError before the graph is built.
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
    edges = []
    for item in raw_edges:
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in item)
        ):
            raise GraphParseError(f"bad edge entry {item!r}")
        edges.append((item[0], item[1]))
    if n < 1:
        raise GraphParseError("vertex count must be at least 1")
    _check_cap(n, max_n)
    return Graph(n, edges)


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


def mask_is_bipartite(adj_masks, mask: int) -> bool:
    """Two-colorability of the induced subgraph on `mask`: no breadth-first
    layer of any component holds an edge (all other edges join adjacent layers)."""
    while mask:
        seen = frontier = mask & -mask
        while frontier:
            reach = 0
            rest = frontier
            while rest:
                low = rest & -rest
                reach |= adj_masks[low.bit_length()]
                rest ^= low
            reach &= mask
            if reach & frontier:
                return False
            frontier = reach & ~seen
            seen |= frontier
        mask &= ~seen
    return True


def mask_neighborhood(adj_masks, mask: int) -> int:
    out = 0
    for v in mask_vertices(mask):
        out |= adj_masks[v]
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


def _two_color(g: Graph):
    """Return (colors, None) for bipartite g, else (None, odd closed walk).

    Colors is a list indexed by vertex with 0 for the side of each component's
    minimum vertex.  The walk witness is a vertex sequence of odd length
    closing on itself.
    """
    color: list[int | None] = [None] * (g.n + 1)
    parent = [0] * (g.n + 1)
    for start in g.vertices():
        if color[start] is not None:
            continue
        color[start] = 0
        queue = [start]
        head = 0
        while head < len(queue):
            v = queue[head]
            head += 1
            for w in g.adj[v]:
                if color[w] is None:
                    color[w] = color[v] ^ 1
                    parent[w] = v
                    queue.append(w)
                elif color[w] == color[v]:
                    return None, _odd_walk(parent, v, w)
    return color, None


def _odd_walk(parent, u: int, v: int) -> tuple[int, ...]:
    # ancestors of u up to the root, then the v-side climbed to the meet point
    up = [u]
    depth = {u: 0}
    x = u
    while parent[x]:
        x = parent[x]
        depth[x] = len(up)
        up.append(x)
    x = v
    right = []
    while x not in depth:
        right.append(x)
        x = parent[x]
    left = up[: depth[x] + 1]
    return tuple(left + right[::-1])


def bipartition(g: Graph) -> tuple[VertexSet, VertexSet] | None:
    """Deterministic 2-coloring: each component's minimum vertex lands in V1."""
    color, _ = _two_color(g)
    if color is None:
        return None
    m1 = m2 = 0
    for v in g.vertices():
        if color[v] == 0:
            m1 |= 1 << (v - 1)
        else:
            m2 |= 1 << (v - 1)
    return VertexSet(m1, g.n), VertexSet(m2, g.n)


def odd_closed_walk(g: Graph) -> tuple[int, ...] | None:
    """A closed walk of odd length if one exists (g nonbipartite), else None."""
    _, walk = _two_color(g)
    return walk


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
    """Edge sets of the blocks plus the cut vertices (iterative low-link scan)."""
    disc = [0] * (g.n + 1)
    low = [0] * (g.n + 1)
    timer = 1
    cut: set[int] = set()
    raw_blocks: list[list[tuple[int, int]]] = []
    estack: list[tuple[int, int]] = []
    for root in g.vertices():
        if disc[root]:
            continue
        disc[root] = low[root] = timer
        timer += 1
        root_children = 0
        frames: list[tuple[int, int]] = [(root, 0)]
        iters = {root: iter(g.adj[root])}
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
                    iters[w] = iter(g.adj[w])
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
                    cut.add(u)
    raw_blocks = [tuple(sorted(b)) for b in raw_blocks]
    raw_blocks.sort(key=lambda b: (min(v for e in b for v in e), b))
    return raw_blocks, cut


def blocks_and_cut_vertices(g: Graph) -> BlockDecomposition:
    """Biconnected components as edge sets, cut vertices, and block kinds.

    Blocks are ordered by (minimum vertex, edge list).  Isolated vertices
    belong to no block.
    """
    raw_blocks, cut = _block_scan(g)
    kinds = []
    for block in raw_blocks:
        verts = sorted({v for e in block for v in e})
        sub = induced_subgraph(g, VertexSet.from_vertices(verts, g.n))
        kinds.append(classify_block(sub))
    return BlockDecomposition(
        blocks=tuple(raw_blocks),
        cut_vertices=VertexSet.from_vertices(sorted(cut), g.n),
        block_kinds=tuple(kinds),
    )


def cut_vertex_mask(g: Graph) -> int:
    """Bitmask of the cut vertices of g."""
    return sum(1 << (v - 1) for v in _block_scan(g)[1])


def classify_block(g: Graph) -> BlockKind:
    """Shape of a 2-connected graph (a single edge counts as K_{1,1}).

    Checks K4 before K_{1,1,2} so the five-edge and six-edge shapes on four
    vertices get distinct tags; K3 is tagged K11n(1).
    """
    n, m = g.n, len(g.edges)
    if n == 2 and m == 1:
        return BlockKind("CompleteBipartite", (1, 1))
    blocks, cut = _block_scan(g)
    if n < 3 or len(blocks) != 1 or cut or not is_connected(g):
        raise NotBiconnectedError(f"{g!r} is not 2-connected or a single edge")
    if n == 4 and m == 6:
        return BlockKind("K4")
    full = g.full_mask
    for a, b in g.edges:
        rest = full & ~(1 << (a - 1)) & ~(1 << (b - 1))
        if rest and g.adj_masks[a] & rest == rest and g.adj_masks[b] & rest == rest:
            if all(g.adj_masks[v] & rest == 0 for v in mask_vertices(rest)):
                return BlockKind("K11n", (n - 2,))
    sides = bipartition(g)
    if sides is not None:
        p, q = sorted((len(sides[0]), len(sides[1])))
        if m == p * q:
            return BlockKind("CompleteBipartite", (p, q))
    return BlockKind("Other")


def neighborhood(g: Graph, s: VertexSet) -> VertexSet:
    """Vertices outside s adjacent to some vertex of s."""
    return VertexSet(mask_neighborhood(g.adj_masks, s.mask), g.n)


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


def has_odd_cycle_ge5(g: Graph) -> bool:
    """True iff g contains an odd cycle of length at least five as a subgraph.

    Decided block by block: a block contributes such a cycle exactly when it
    is nonbipartite and neither K4 nor K_{1,1,q}.
    """
    raw_blocks, _ = _block_scan(g)
    for block in raw_blocks:
        verts = sorted({v for e in block for v in e})
        mask = sum(1 << (v - 1) for v in verts)
        if mask_is_bipartite(g.adj_masks, mask):
            continue
        kind = classify_block(induced_subgraph(g, VertexSet(mask, g.n)))
        if kind.name not in ("K4", "K11n"):
            return True
    return False


def is_critical(g: Graph) -> bool:
    """Odd order and every single-vertex deletion is perfectly matchable.

    Single vertices are critical (deleting one leaves the empty matching).
    """
    if g.n % 2 == 0:
        return False
    from .matchable import mask_perfectly_matchable

    memo: dict[int, bool] = {}
    full = g.full_mask
    return all(
        mask_perfectly_matchable(g.adj_masks, full ^ (1 << (v - 1)), memo)
        for v in g.vertices()
    )


@dataclass(frozen=True)
class PseudotreeProfile:
    """Cycle data and degree partition of a connected graph with m <= n edges.

    cycle_vertices holds the unique cycle (empty for trees), internal_vertices
    the off-cycle vertices of degree at least two, leaves the rest.
    """

    cycle: tuple[int, ...] | None
    cycle_parity: str  # "even" | "odd" | "none"
    cycle_vertices: VertexSet
    internal_vertices: VertexSet
    leaves: VertexSet


def pseudotree_profile(g: Graph) -> PseudotreeProfile | None:
    """Profile of a connected pseudotree, or None when m > n."""
    if not is_connected(g):
        raise DisconnectedError("pseudotree profile requires a connected graph")
    m = len(g.edges)
    if m > g.n:
        return None
    if m == g.n - 1:
        cycle_mask = 0
        cycle: tuple[int, ...] | None = None
        parity = "none"
    else:
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
        cycle_mask = remaining
        cycle = _walk_cycle(g, cycle_mask)
        parity = "odd" if len(cycle) % 2 else "even"
    internal = 0
    leaf = 0
    for v in g.vertices():
        if cycle_mask >> (v - 1) & 1:
            continue
        if g.degree(v) >= 2:
            internal |= 1 << (v - 1)
        else:
            leaf |= 1 << (v - 1)
    return PseudotreeProfile(
        cycle=cycle,
        cycle_parity=parity,
        cycle_vertices=VertexSet(cycle_mask, g.n),
        internal_vertices=VertexSet(internal, g.n),
        leaves=VertexSet(leaf, g.n),
    )


def _walk_cycle(g: Graph, cycle_mask: int) -> tuple[int, ...]:
    start = (cycle_mask & -cycle_mask).bit_length()
    walk = [start]
    prev = 0
    cur = start
    while True:
        nxt = min(
            w
            for w in mask_vertices(g.adj_masks[cur] & cycle_mask)
            if w != prev or cycle_mask.bit_count() == 2
        )
        if nxt == start:
            break
        walk.append(nxt)
        prev, cur = cur, nxt
    return tuple(walk)


def line_graph(g: Graph) -> Graph:
    """Line graph; vertex i corresponds to g.edges[i-1] (lexicographic order)."""
    m = len(g.edges)
    if m == 0:
        raise ValueError("line graph of an edgeless graph is empty")
    edges = [
        (i + 1, j + 1)
        for i in range(m)
        for j in range(i + 1, m)
        if set(g.edges[i]) & set(g.edges[j])
    ]
    return Graph(m, edges)
