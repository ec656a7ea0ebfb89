#!/usr/bin/env python3
"""pmsp benchmark: one workload, one seed, one JSON result line.

    python3 pmspbench/run.py --workload query --seed 0 --seconds 20 --trace 0

Run from the root of a checkout.  Every measurement runs ``worker.py`` in a
fresh interpreter against ``src/pmsp`` of the checkout:

* ``--trace 0`` measures the workload untraced; between its passes the
  worker sets the workload up again in fresh processes, and ``setup_s`` is
  the median of those.  Times are scaled to the host's reference speed
  (``speed.py``).  The last line lists every end-to-end metric.
* ``--trace 1`` measures the workload with the outside-in tracer on and
  again with it off; the last line lists every per-layer metric.

``correct`` is false when an operation failed, or when the outputs of the
recorded seed do not hash to the digest in ``expected.json``.  Without a
``src/pmsp`` to measure the script exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("query", "facets", "sweep", "dilate")
CHILD_TIMEOUT_S = 150
# pmsp never calls BLAS, but importing numpy starts an OpenBLAS thread per
# core.  One thread keeps the client single-threaded and takes the thread
# start-up, which varied set-up time by half, out of setup_s.
WORKER_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}


def run_worker(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT, env=WORKER_ENV, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def digest_problem(workload: str, seed: int, digest: str | None, tiny: bool) -> str | None:
    """Compare the first pass's output digest with the recorded one."""
    expected = json.loads((HERE / "expected.json").read_text())[workload]
    if tiny or expected["seed"] not in (None, seed):
        return None
    if digest != expected["sha256"]:
        return f"output digest {digest} differs from the recorded {expected['sha256']}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small decks for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pmsp" / "__init__.py").is_file():
        print(f"error: no pmsp package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        common.append("--tiny")
    try:
        report = run_worker(*common, "--seconds", str(args.seconds),
                            "--trace", str(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    problems = list(report["problems"])
    mismatch = digest_problem(args.workload, args.seed, report["digest"], args.tiny)
    if mismatch:
        problems.append(mismatch)
    if args.trace:
        metrics = report["layers"]
    else:
        metrics = {
            "setup_s": {
                "value": statistics.median(report["setup_samples"]) * report["speed_factor"],
                "unit": "s",
            },
            "ops_per_s": {"value": report["ops_per_s"], "unit": "1/s"},
            "op_p50_ms": {"value": report["op_p50_ms"], "unit": "ms"},
            "op_tail_ms": {"value": report["op_tail_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": report["passes"],
        "deck_items": report["deck_items"],
        "samples": report["samples"],
        "op_tail_percentile": report["tail_percentile"],
        "digest": report["digest"],
        "problems": problems,
    }
    if not args.trace:
        detail["setup_samples"] = report["setup_samples"]
        detail["unscaled_ops_per_s"] = report["unscaled_ops_per_s"]
        detail["speed_samples"] = report["speed_samples"]
        detail["speed_factor"] = report["speed_factor"]
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": not problems and report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
