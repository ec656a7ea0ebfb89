"""One benchmark process: set up a workload, run it, report JSON on stdout.

Run by ``run.py`` in a fresh interpreter for every measurement, so import
state and module caches such as ``polytope._BOX_CACHE`` start cold each
time, as they do for a command-line user.  Within the run, cache reuse is
part of the program being measured.

The run is one closed-loop client with no threads.  It executes whole
passes over the deck, as many as fit in the requested seconds, so every run
measures the same mix of operations.  Measured time is the sum of the
operations' own wall times; checking outputs happens between operations and
is not measured.  Untraced, every latency is scaled to the reference speed
of the host (``speed.py``), which drifts by about half in stretches of
seconds; an operation's latency is then its median over the passes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from speed import SpeedProbe
from tracer import ROUTES, Tracer
from workloads import NUMPY_SHARE, PASS_CHECKS, TAIL_PERCENTILE, WORKLOADS, CliOp

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPANS_DIR = ROOT / ".pmspbench_out"
SETUPS_PER_BREAK = 2  # set-up samples before the first pass and after each


class PassRunner:
    """Runs whole passes over a deck and keeps latencies and checks."""

    def __init__(self, deck, pass_check, between=None, speed=None) -> None:
        self.deck = deck
        self.pass_check = pass_check
        self.between = between  # called before the first pass and after each
        self.speed = speed or SpeedProbe(enabled=False)
        self.timings: list[list] = [[] for _ in deck]  # per item, per pass: [(start, s)]
        self.executions = 0
        self.work_s = 0.0
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.stdout_bytes = 0
        self.first_pass: list[str] = []  # sha256 of each item's output text
        self.digest = None

    def run(self, seconds: float, passes: int | None = None) -> None:
        """Run `passes` passes, or else as many as fit in `seconds` of
        measured time at reference speed (at least one), judging the next
        pass by the last one.  So the host's speed does not change how many
        passes a run makes, only how long it takes."""
        measured = 0.0
        while True:
            if self.between and self.passes == 0:
                self.between()
            timings = self._one_pass()
            self.speed.sample()  # the sample after the pass's last operation
            pass_s = sum(s * self.speed.factor(start) for start, s in timings)
            measured += pass_s
            if self.between:
                self.between()
            if passes is not None:
                if self.passes >= passes:
                    return
            elif measured + pass_s > seconds:
                return

    def _one_pass(self) -> list:
        """Run the deck once; return the (start, seconds) of its operations."""
        results = []
        pass_timings = []
        pass_work = 0.0
        digest = hashlib.sha256()
        for index, item in enumerate(self.deck):
            try:
                timings, elapsed, result = item.execute(self.speed.pause)
            except Exception as exc:  # an unexpected raise is a failed operation
                self._fail(f"{item.key}: raised {type(exc).__name__}: {exc}")
                results.append(None)
                continue
            pass_work += elapsed
            self.executions += len(timings)
            self.timings[index].append(timings)
            pass_timings.extend(timings)
            if isinstance(item, CliOp):
                self.stdout_bytes += len(result[1].encode())
            attempted, failed, text, problems = item.check(result)
            self.attempted += attempted
            self.failed += failed
            self.problems.extend(f"{item.key}: {p}" for p in problems)
            item_sha = hashlib.sha256(text.encode()).hexdigest()
            digest.update(f"{item.key}\0{item_sha}\n".encode())
            if self.passes == 0:
                self.first_pass.append(item_sha)
            elif self.first_pass[index] != item_sha:
                self._fail(f"{item.key}: output differs from the first pass")
            results.append(result)
        if self.pass_check is not None and None not in results:
            extra = self.pass_check(self.deck, results)
            self.failed += len(extra)
            self.problems.extend(extra)
        if self.passes == 0:
            self.digest = digest.hexdigest()
        self.passes += 1
        self.work_s += pass_work
        return pass_timings

    def _fail(self, message: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.problems.append(message)

    def scaled_latencies(self) -> list[list[float]]:
        """Per operation of the deck, its latency in each pass, scaled to
        the reference speed."""
        factor = self.speed.factor
        out = []
        for passes in self.timings:
            for runs in zip(*passes):
                out.append([s * factor(start) for start, s in runs])
        return out


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail(sorted_values, preferred: int) -> tuple[int, float]:
    """The preferred percentile, lowered in steps of five until at least ten
    samples lie above it (tiny runs fall back as far as the median)."""
    p = preferred
    n = len(sorted_values)
    while p > 50 and n - math.ceil(p / 100 * n) < 10:
        p -= 5
    return p, percentile(sorted_values, p)


def end_to_end(runner: PassRunner, workload: str) -> dict:
    """Throughput over every execution; latency percentiles over the deck's
    operations, each at its median over the passes.  All at reference speed."""
    scaled = runner.scaled_latencies()
    scaled_s = sum(map(sum, scaled))
    raw_s = sum(s for passes in runner.timings for timings in passes for _, s in timings)
    lats = sorted(statistics.median(runs) for runs in scaled)
    p, tail_s = tail(lats, TAIL_PERCENTILE[workload])
    return {
        "ops_per_s": runner.executions / scaled_s,
        "op_p50_ms": statistics.median(lats) * 1000,
        "op_tail_ms": tail_s * 1000,
        "tail_percentile": p,
        "samples": len(lats),
        "executions": runner.executions,
        "unscaled_ops_per_s": runner.executions / runner.work_s,
        "speed_samples": len(runner.speed.seconds),
        "speed_factor": scaled_s / raw_s,  # the run's mean scale factor
    }


def per_layer(tracer, traced: PassRunner, untraced: PassRunner) -> dict:
    times = tracer.self_times()
    counts = tracer.counts
    ops = traced.executions

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    out: dict[str, tuple[float, str]] = {}
    for layer, (calls, self_s) in times.items():
        out[f"{layer}.calls"] = (calls, "count")
        out[f"{layer}.self_s"] = (self_s, "s")
    for key in ("matchable.masks_scanned", "matchable.points",
                "intlattice.affine_rank.points_in", "polytope.rows", "polytope.facet_rows",
                "polytope.idp.box_points", "polytope.idp.dilate_points",
                "oracle.corpus.graphs", "oracle.sweep.records"):
        out[key] = (counts.get(key, 0), "count")
    decided = times["classify.decide"][0]
    for route in ROUTES:
        out[f"classify.route.{route}"] = (counts.get(f"classify.route.{route}", 0), "count")
    out["cli.stdout_bytes"] = (traced.stdout_bytes, "bytes")
    out["polytope.lattice_points.calls_per_op"] = (
        ratio(times["polytope.lattice_points"][0], ops), "ratio")
    out["polytope.facet_ratio"] = (
        ratio(counts.get("polytope.facet_rows", 0), counts.get("polytope.rows", 0)), "ratio")
    out["polytope.geometric.solves_per_call"] = (
        ratio(tracer.solves_under_geometric(), times["polytope.geometric"][0]), "ratio")
    out["polytope.idp.kept_ratio"] = (
        ratio(counts.get("polytope.idp.dilate_points", 0),
              counts.get("polytope.idp.box_points", 0)), "ratio")
    out["classify.structural_ratio"] = (
        ratio(decided - counts.get("classify.route.geometric", 0), decided), "ratio")
    out["oracle.dedup_ratio"] = (
        ratio(counts.get("oracle.corpus.graphs", 0), times["oracle.canonical"][0]), "ratio")
    out["trace.wall_s"] = (traced.work_s, "s")
    out["trace.outside_s"] = (traced.work_s - tracer.top_level_seconds(), "s")
    out["trace.overhead_frac"] = (ratio(traced.work_s, untraced.work_s) - 1, "ratio")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()}


def setup_probe(args) -> float:
    """Set the workload up in a fresh interpreter; its import-plus-deck time."""
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
           "--setup-only"] + (["--tiny"] if args.tiny else [])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    return json.loads(proc.stdout)["setup_s"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    start = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import pmsp

    if Path(pmsp.__file__).resolve().parent != ROOT / "src" / "pmsp":
        raise SystemExit(f"imported pmsp from {pmsp.__file__}, not from this checkout")
    deck = WORKLOADS[args.workload](args.seed, args.tiny)
    setup_s = perf_counter() - start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    pass_check = PASS_CHECKS.get(args.workload)
    report: dict = {}
    if args.trace:
        tracer = Tracer()
        traced = PassRunner(deck, pass_check)
        with tracer:
            traced.run(args.seconds / 2)
        untraced = PassRunner(deck, pass_check)
        untraced.run(0, passes=traced.passes)
        runner = traced
        report["layers"] = per_layer(tracer, traced, untraced)
        traced.attempted += untraced.attempted
        traced.failed += untraced.failed
        traced.problems += untraced.problems
        if untraced.digest != traced.digest:
            traced._fail("traced and untraced outputs differ")
        SPANS_DIR.mkdir(exist_ok=True)
        tracer.write(SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        # Set-up samples are taken between passes.  They are scaled by the
        # run's mean factor, not each by the samples around it: one set-up
        # is too short and noisy to pair with one reference sample.
        setups: list[float] = []

        def probe() -> None:
            setups.extend(setup_probe(args) for _ in range(SETUPS_PER_BREAK))

        speed = SpeedProbe(numpy_share=NUMPY_SHARE.get(args.workload, 0.0))
        runner = PassRunner(deck, pass_check, probe, speed)
        runner.run(args.seconds)
        report["setup_samples"] = setups
    report.update(end_to_end(runner, args.workload))
    report.update(
        passes=runner.passes,
        deck_items=len(deck),
        attempted=runner.attempted,
        failed=runner.failed,
        problems=runner.problems[:20],
        digest=runner.digest,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
