"""Time and peak memory of the 2^n layers on one seeded graph.

Builds a uniform connected nonbipartite G(n, m) from `--seed`, then times
`lattice_points` and `inequality_system` on it and reports the process's
peak resident set size.  The system reads the point set that
`lattice_points` kept on the graph, so the two times do not overlap.  Run it in a fresh process per graph, so the peak
belongs to that graph alone:

    python3 scripts/measure_scale.py --n 20 --m 50 --seed 0

Prints one sorted-key JSON object.  Exits 2 on a usage error and 3 with the
budget message when n is over the enumeration cap.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
from itertools import combinations
from time import perf_counter

from pmsp import Graph, TooLargeError, bipartition, inequality_system, is_connected, lattice_points


def seeded_graph(n: int, m: int, seed: int) -> Graph:
    """Uniform connected nonbipartite graph with n vertices and m edges."""
    rng = random.Random(seed)
    pairs = list(combinations(range(1, n + 1), 2))
    while True:
        g = Graph(n, sorted(rng.sample(pairs, m)))
        if is_connected(g) and bipartition(g) is None:
            return g


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--m", type=int, required=True)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.n < 3 or not args.n <= args.m <= args.n * (args.n - 1) // 2:
        parser.error("need n >= 3 and n <= m <= n(n-1)/2 for a connected nonbipartite graph")
    g = seeded_graph(args.n, args.m, args.seed)
    try:
        start = perf_counter()
        pts = lattice_points(g)
        middle = perf_counter()
        system = inequality_system(g)
        end = perf_counter()
    except TooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    report = {
        "n": args.n,
        "m": args.m,
        "seed": args.seed,
        "points": len(pts),
        "rows": len(system),
        "lattice_points_s": round(middle - start, 3),
        "inequality_system_s": round(end - middle, 3),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
