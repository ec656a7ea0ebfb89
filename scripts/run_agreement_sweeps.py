#!/usr/bin/env python3
"""Run the theorem-versus-oracle agreement sweeps over every family.

Each record compares a structural decider with an independent brute-force
oracle on one graph.  The script prints a summary table and exits 1 on any
disagreement.  A vertex cap over a family's corpus budget is refused before
any sweep runs, with the budget message on stderr and exit code 3, as in the
CLI; a cap below 1 exits 2.  JSONL output goes to --out when given.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from pmsp import CorpusSpec, TooLargeError, agreement_sweep
from pmsp.cli import EXIT_BUDGET, EXIT_USAGE

DEFAULT_PLAN = [
    ("all", 7),
    ("bipartite", 8),
    ("pseudotree", 9),
    ("multipartite", 12),
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--family", choices=[f for f, _ in DEFAULT_PLAN], default=None,
                        help="run a single family instead of the full plan")
    parser.add_argument("--max-n", type=int, default=None,
                        help="override the vertex cap for the chosen family")
    parser.add_argument("--out", type=Path, default=None,
                        help="append JSONL records to this file")
    parser.add_argument("--timing", action="store_true",
                        help="include per-record timing in the JSONL output")
    args = parser.parse_args()

    plan = DEFAULT_PLAN
    if args.family is not None:
        cap = args.max_n if args.max_n is not None else dict(DEFAULT_PLAN)[args.family]
        plan = [(args.family, cap)]
    elif args.max_n is not None:
        plan = [(family, min(cap, args.max_n)) for family, cap in DEFAULT_PLAN]

    try:
        specs = [CorpusSpec(max_n=cap, family=family) for family, cap in plan]
    except TooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    failures = 0
    for spec in specs:
        family, cap = spec.family, spec.max_n
        started = time.perf_counter()
        report = agreement_sweep(spec)
        elapsed = time.perf_counter() - started
        bad = len(report.disagreements)
        failures += bad
        print(
            f"{family:<13} n<={cap}  records={len(report.records):>5}  "
            f"disagreements={bad}  ({elapsed:.1f}s)"
        )
        for rec in report.disagreements:
            print(f"  DISAGREE {rec.property_name}: {rec.graph} "
                  f"theorem={rec.theorem_value} oracle={rec.oracle_value}")
        if args.out is not None:
            with args.out.open("a") as fh:
                text = report.to_jsonl(include_timing=args.timing)
                if text:
                    fh.write(text + "\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
