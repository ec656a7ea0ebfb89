"""Tests of the benchmark itself, at tiny deck sizes.

    python3 -m pytest pmspbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import PassRunner  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "pmspbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_workload_names_match_benchmark_json():
    assert NAMES == list(run.WORKLOADS)
    assert set(NAMES) == set(workloads.WORKLOADS) == set(workloads.TAIL_PERCENTILE)
    assert SPEC["command"] == ["python3", "pmspbench/run.py"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_workload_runs_tiny(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                 "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    if trace:
        layers = result["metrics"]
        self_s = sum(m["value"] for name, m in layers.items() if name.endswith(".self_s"))
        accounted = self_s + layers["trace.outside_s"]["value"]
        assert accounted == pytest.approx(layers["trace.wall_s"]["value"], rel=1e-6)


@pytest.mark.parametrize("workload", NAMES)
def test_traced_and_untraced_outputs_identical(workload):
    deck = workloads.WORKLOADS[workload](5, True)
    plain = PassRunner(deck, workloads.PASS_CHECKS.get(workload))
    plain.run(0, passes=1)
    tracer = Tracer()
    traced = PassRunner(deck, workloads.PASS_CHECKS.get(workload))
    with tracer:
        traced.run(0, passes=1)
    assert plain.failed == traced.failed == 0, plain.problems + traced.problems
    assert plain.first_pass == traced.first_pass
    assert tracer.spans, "the tracer recorded nothing"


def test_tracer_patches_internal_bindings_and_restores_them():
    import pmsp.classify
    import pmsp.polytope

    originals = (pmsp.polytope.affine_rank, pmsp.classify.gorenstein_geometric)
    tracer = Tracer()
    with tracer:
        assert pmsp.polytope.affine_rank is not originals[0]
        assert pmsp.classify.gorenstein_geometric is pmsp.polytope.gorenstein_geometric
        pmsp.classify.gorenstein_decide(pmsp.parse_graph("1 2\n2 3\n3 1\n3 4\n4 5\n5 1"))
    assert (pmsp.polytope.affine_rank, pmsp.classify.gorenstein_geometric) == originals
    layers = {layer for layer, *_ in tracer.spans}
    assert {"classify.decide", "polytope.geometric", "intlattice.affine_rank"} <= layers
    calls, self_s = tracer.self_times()["polytope.geometric"]
    assert calls == 1 and self_s > 0


def test_seed_fixes_the_inputs():
    first = [op.key + op.source for op in workloads.query_deck(7, False)]
    again = [op.key + op.source for op in workloads.query_deck(7, False)]
    other = [op.key + op.source for op in workloads.query_deck(8, False)]
    assert first == again != other


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "pmspbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "query", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_speed_probe_scales_by_the_samples_around_a_time():
    probe = speed.SpeedProbe()
    probe.times, probe.seconds = [1.0, 2.0, 3.0], [0.001, 0.002, 0.004]
    assert probe.factor(1.5) == pytest.approx(speed.REFERENCE_S / 0.0015)
    assert probe.factor(0.5) == pytest.approx(speed.REFERENCE_S / 0.001)
    assert probe.factor(3.5) == pytest.approx(speed.REFERENCE_S / 0.004)
    off = speed.SpeedProbe(enabled=False)
    assert off.pause() == 0.0 and off.factor(1.0) == 1.0 and not off.seconds


def test_sweep_leaves_pauses_out_of_its_timings():
    def pause():
        time.sleep(0.02)
        return 0.02

    timings, elapsed, (_, graphs) = workloads.SweepUnit("all", 3).execute(pause)
    assert graphs == len(timings) >= 2
    assert elapsed < 0.02 * graphs
    assert all(seconds < 0.02 for _, seconds in timings)


def test_dilate_witness_check_is_independent_of_pmsp():
    triangle = ((1, 2), (1, 3), (2, 3))
    vertices = workloads.matchable_vectors(3, triangle)
    assert sorted(vertices) == [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]
    assert not workloads.in_dilate((1, 1, 1), 1, 3, triangle)
    assert workloads.in_dilate((1, 1, 1), 2, 3, triangle)
    assert not workloads.in_dilate((2, 0, 0), 2, 3, triangle)


def test_speed_probe_with_a_numpy_share_samples():
    probe = speed.SpeedProbe(numpy_share=0.5)
    assert probe.sample() > 0 and probe.seconds[0] > 0
    assert probe.factor(probe.times[0]) == pytest.approx(speed.REFERENCE_S / probe.seconds[0])
