"""One sha256 per output family over fixed graph sets, to show that a
change leaves every computed output byte-identical.

The inputs are the `all` corpus with n <= N, the `bipartite` corpus with
n <= N + 1, and the fixture graphs with n <= 20.  The families are the
inequality rows, the point lattice, the normalized polytope, the Gorenstein
certificate, the facet-flag check, the level-count test, the k = 2, 3
dilate checks, the odd-cycle verdict, `classify_all`, and the `facets`
verb's JSON and text output.  One more family, the two bipartite deciders
called directly (`gorenstein_bipartite` and `solve_interior_vector`), runs
over the `bipartite` corpus alone: `classify_all` sends trees to the
pseudotree decider, so only a direct call reaches the interior-vector
search over every index.  The `structure` family digests the graph layer
and the structural deciders called directly: the blocks, cut vertices and
block kinds with `compressed_by_theorem` over the `all` corpus with n <= N;
`compressed_by_theorem` and `odd_cycle_condition` over the disjoint unions
of two such graphs with n <= N + 1 (`classify_all` splits components
first, so no other family reaches a disconnected graph's component
table); and `gorenstein_pseudotree` over the `pseudotree` corpus with
n <= N + 2.  A computation over its budget contributes the name of the
error it raised, as does a disconnected graph where a family needs a
connected one.  Run it once per checkout and compare:

    PYTHONPATH=src python3 scripts/digest_outputs.py --max-n 6

Prints one sorted-key JSON object.  Only long-standing public names are
used, so the same script digests older checkouts of the package.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from pmsp import (
    CorpusSpec,
    Graph,
    PmspError,
    blocks_and_cut_vertices,
    classify_all,
    compressed_by_theorem,
    gorenstein_bipartite,
    gorenstein_geometric,
    gorenstein_pseudotree,
    inequality_system,
    lattice_points,
    normalize_lattice,
    odd_cycle_condition,
    solve_interior_vector,
    sullivant_compressed,
    verify_facet_flags,
)
from pmsp.cli import main as cli_main
from pmsp.graph import parse_graph
from pmsp.oracle import generate_corpus
from pmsp.polytope import dilate_checks

FIXTURES = Path(__file__).resolve().parent.parent / "tests" / "fixtures"


def bipartite_graphs(max_n: int):
    return generate_corpus(CorpusSpec(max_n=max_n + 1, family="bipartite"))


def connected_graphs(max_n: int):
    return generate_corpus(CorpusSpec(max_n=max_n))


def disjoint_unions(max_n: int):
    """Every unordered pair of `all` corpus graphs, side by side, with at
    most N + 1 vertices in total."""
    small = list(connected_graphs(max_n))
    for i, a in enumerate(small):
        for b in small[i:]:
            if a.n + b.n <= max_n + 1:
                shifted = tuple((u + a.n, v + a.n) for u, v in b.edges)
                yield Graph(a.n + b.n, a.edges + shifted)


def pseudotrees(max_n: int):
    return generate_corpus(CorpusSpec(max_n=max_n + 2, family="pseudotree"))


def graphs(max_n: int):
    yield from connected_graphs(max_n)
    yield from bipartite_graphs(max_n)
    for path in sorted(FIXTURES.glob("*.edges")):
        g = parse_graph(path.read_text())
        if g.n <= 20:
            yield g


def rows(system) -> list:
    return [[list(r.normal), r.rhs, r.facet, r.source] for r in system]


def cli_output(g, fmt: str) -> str:
    text = json.dumps(g.to_json(), separators=(",", ":"))  # short: --input tests it as a path
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli_main(["facets", "--input", text, "--format", fmt])
    return f"{code}\n{out.getvalue()}"


def normalized(g) -> dict:
    norm = normalize_lattice(lattice_points(g), inequality_system(g))
    lat = norm.transform
    return {
        "dim": norm.dim,
        "points": [list(p) for p in norm.points],
        "rows": rows(norm.rows),
        "transform": [list(lat.origin), [list(b) for b in lat.basis], list(lat.pivots)],
    }


def lattice(g) -> list:
    lat = lattice_points(g).lattice
    return [list(lat.origin), [list(b) for b in lat.basis], list(lat.pivots)]


def certificate(g):
    cert = gorenstein_geometric(g)
    return None if cert is None else cert.to_json()


def bipartite_deciders(g) -> list:
    cert = solve_interior_vector(g)
    return [gorenstein_bipartite(g).to_json(), None if cert is None else cert.to_json()]


def blocks(g) -> list:
    dec = blocks_and_cut_vertices(g)
    return [
        [[list(e) for e in block] for block in dec.blocks],
        list(dec.cut_vertices.members()),
        [str(kind) for kind in dec.block_kinds],
        compressed_by_theorem(g).to_json(),
    ]


def component_tables(g) -> list:
    return [compressed_by_theorem(g).to_json(), odd_cycle_condition(g).to_json()]


def dilates(g) -> list:
    return [c.to_json() for k in (2, 3) for c in dilate_checks(g, k, ("idp", "normality"))]


FAMILIES = {
    "rows": lambda g: rows(inequality_system(g)),
    "lattice": lattice,
    "normalized": normalized,
    "certificate": certificate,
    "facet_flags": lambda g: verify_facet_flags(g).to_json(),
    "sullivant": lambda g: list(sullivant_compressed(g)),
    "dilates": dilates,
    "odd_cycle": lambda g: odd_cycle_condition(g).to_json(),
    "classify": lambda g: classify_all(g).to_json(),
    "facets_json": lambda g: cli_output(g, "json"),
    "facets_text": lambda g: cli_output(g, "text"),
}
# (families, graph source) pairs; a family named under several sources
# digests all of them in this order
SOURCES = (
    (FAMILIES, graphs),
    ({"bipartite_deciders": bipartite_deciders}, bipartite_graphs),
    ({"structure": blocks}, connected_graphs),
    ({"structure": component_tables}, disjoint_unions),
    ({"structure": lambda g: gorenstein_pseudotree(g).to_json()}, pseudotrees),
)


def digest(max_n: int) -> dict[str, str]:
    hashes = {}
    for families, source in SOURCES:
        for name in families:
            hashes.setdefault(name, hashlib.sha256())
        for g in source(max_n):
            for name, compute in families.items():
                try:
                    value = compute(g)
                except PmspError as exc:
                    value = f"error: {type(exc).__name__}"
                record = json.dumps([g.n, list(map(list, g.edges)), value], sort_keys=True)
                hashes[name].update(record.encode() + b"\n")
    return {name: h.hexdigest() for name, h in hashes.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, required=True)
    args = parser.parse_args(argv)
    try:
        report = digest(args.max_n)
    except PmspError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
