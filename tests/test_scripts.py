"""The standalone drivers in scripts/: exit codes of whole runs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent


def run_script(name: str, *argv) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.mark.parametrize(
    "name, argv, message",
    [
        ("run_agreement_sweeps.py", ["--family", "all", "--max-n", "9"],
         "family 'all' corpus capped at 8 vertices, got 9"),
        ("run_agreement_sweeps.py", ["--family", "bipartite", "--max-n", "10"],
         "family 'bipartite' corpus capped at 9 vertices, got 10"),
        ("run_dilate_checks.py", ["--max-n", "11"],
         "family 'all' corpus capped at 8 vertices, got 11"),
        ("measure_scale.py", ["--n", "21", "--m", "30"], "matchable_subsets supports n <= 20"),
    ],
)
def test_over_budget_exits_3_with_the_budget_message(name, argv, message):
    # exit 1 would read as a disagreement or a failed decomposition
    result = run_script(name, *argv)
    assert result.returncode == 3
    assert result.stdout == ""
    assert result.stderr == f"error: {message}\n"


@pytest.mark.parametrize(
    "name, argv",
    [
        ("run_agreement_sweeps.py", ["--max-n", "0"]),
        ("run_agreement_sweeps.py", ["--max-n", "-3"]),
        ("run_agreement_sweeps.py", ["--family", "bipartite", "--max-n", "0"]),
        ("run_dilate_checks.py", ["--max-n", "0"]),
    ],
)
def test_cap_below_one_exits_2_with_a_usage_message(name, argv):
    result = run_script(name, *argv)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == "error: max_n must be at least 1\n"


@pytest.mark.parametrize("name", ["run_agreement_sweeps.py", "run_dilate_checks.py"])
def test_small_runs_exit_0(name):
    result = run_script(name, "--max-n", "4")
    assert result.returncode == 0, result.stdout + result.stderr


def test_digest_prints_one_stable_line():
    first = run_script("digest_outputs.py", "--max-n", "3")
    assert first.returncode == 0, first.stderr
    lines = first.stdout.splitlines()
    assert len(lines) == 1
    digests = json.loads(lines[0])
    assert "rows" in digests and "facets_json" in digests and "bipartite_deciders" in digests
    assert "structure" in digests
    assert len(set(digests.values())) == len(digests)
    assert run_script("digest_outputs.py", "--max-n", "3").stdout == first.stdout
