#!/usr/bin/env python3
"""Exhaustive dilate decomposition checks over small corpora.

Verifies that second and third dilates decompose into sums of polytope
points: in the ambient integer lattice for bipartite graphs, and in the
lattice spanned by the points themselves for everything else.  Exits 1 on
any failed decomposition, and 3 with the budget message on stderr when
--max-n is over the corpus cap, as in the CLI; a cap below 1 exits 2.
"""

from __future__ import annotations

import argparse
import sys
import time

from pmsp import CorpusSpec, TooLargeError, bipartition, generate_corpus, idp_check
from pmsp.cli import EXIT_BUDGET, EXIT_USAGE


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=7,
                        help="vertex cap for the connected-graph corpus")
    parser.add_argument("--k", type=int, nargs="+", choices=(2, 3), default=[2, 3])
    args = parser.parse_args()

    try:
        spec = CorpusSpec(max_n=args.max_n)
    except TooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    started = time.perf_counter()
    checked = 0
    failures = []
    for g in generate_corpus(spec):
        mode = "idp" if bipartition(g) is not None else "normality"
        for k in args.k:
            result = idp_check(g, k, mode=mode)
            checked += 1
            if not result.ok:
                failures.append((g, k, mode, result.witness))
    elapsed = time.perf_counter() - started
    print(f"checked {checked} (graph, k) pairs in {elapsed:.1f}s; "
          f"{len(failures)} failures")
    for g, k, mode, witness in failures:
        print(f"  FAIL n={g.n} edges={g.edges} k={k} mode={mode} witness={witness}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
