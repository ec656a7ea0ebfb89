"""CLI behavior: exit codes, schemas, and byte-for-byte determinism."""

import hashlib
import json
import os
from argparse import Namespace
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from pmsp.budgets import ENUMERATION_LIMIT
from pmsp import cli, polytope
from pmsp.cli import main, read_graph
from pmsp.graph import Graph
from pmsp.polytope import inequality_system

from .conftest import FIXTURES

ROOT = Path(__file__).parent.parent
SCHEMAS = ROOT / "docs" / "schemas"


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_schema(name: str) -> dict:
    return json.loads((SCHEMAS / name).read_text())


def validate(payload: str, schema_name: str) -> None:
    jsonschema.validate(json.loads(payload), load_schema(schema_name))


C4 = str(FIXTURES / "c4.edges")
C5 = str(FIXTURES / "c5.edges")
K23 = str(FIXTURES / "k23.edges")
K4 = str(FIXTURES / "k4.edges")


class TestExitCodes:
    def test_true_property(self, capsys):
        code, _, _ = run_cli(capsys, "check-compressed", "--input", C4)
        assert code == 0

    def test_false_property(self, capsys):
        code, out, _ = run_cli(capsys, "check-compressed", "--input", C5)
        assert code == 1
        assert "witness" in out

    def test_parse_error(self, capsys):
        code, _, err = run_cli(capsys, "dim", "--input", "not a graph at all")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("n", ["true", "false", "2.0", '"3"'])
    def test_non_integer_vertex_count(self, capsys, n):
        text = '{"n": %s, "edges": []}' % n
        code, out, err = run_cli(capsys, "dim", "--input", text)
        assert code == 2
        assert out == ""
        assert 'integer "n"' in err

    @pytest.mark.parametrize(
        "edge, message",
        [
            ("[1, 2.0]", "non-integer label"),
            ("[1, true]", "non-integer label"),
            ("[1, 2, 3]", "not a pair"),
            ('"12"', "not a pair"),
            ('"1"', "not a pair"),
            ("null", "not a pair"),
        ],
    )
    def test_malformed_json_edge(self, capsys, edge, message):
        text = '{"n": 3, "edges": [[1, 3], %s]}' % edge
        code, out, err = run_cli(capsys, "dim", "--input", text)
        assert (code, out) == (2, "")
        assert err.startswith("error: edge ") and message in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "dim", "--input", "no/such/file.edges")
        assert code == 2

    def test_empty_input_is_a_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "dim", "--input", "")
        assert (code, out) == (2, "")
        assert err.startswith("error: --input is empty")

    def test_directory_input_is_an_input_error(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "dim", "--input", str(tmp_path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read input file {tmp_path}:")

    def test_undecodable_file_is_an_input_error(self, capsys, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_bytes(b"\xff1 2\n")
        code, out, err = run_cli(capsys, "dim", "--input", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read input file {path}:")

    def test_closed_stdout_ends_quietly(self):
        """A reader that stops early (as `| head -c 20` does) closes the
        pipe while pmsp still writes: no traceback, and no exit code that
        reads as a verdict.  The output (93 kB) is larger than a pipe's
        buffer, so the write meets the closed pipe."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
        )
        argv = ["facets", "--format", "text", "--input", str(FIXTURES / "blocks_k33_k4_k23.edges")]
        proc = subprocess.Popen(
            [sys.executable, "-m", "pmsp.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.read(20) == b"NonNeg(1): [-1 0 0 0"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 141
        assert err == b""

    def test_closed_stdout_after_one_long_write(self):
        """The JSON of `facets` is one string (about 100 kB here), longer
        than the pipe holds: a reader that stops early still ends the
        write with 141, not with the success code of a full output."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
        )
        argv = ["facets", "--input", str(FIXTURES / "blocks_k33_k4_k23.edges")]
        proc = subprocess.Popen(
            [sys.executable, "-m", "pmsp.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.read(20) == b'{"count":1340,"inequ'
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 141
        assert err == b""

    def test_internal_error_is_not_a_verdict(self, capsys, monkeypatch):
        """Any other exception ends with exit 70 and one line on stderr,
        never with 1 ("property false") and a traceback."""
        def broken(g, args):
            raise RuntimeError("index out of step")

        monkeypatch.setattr(cli, "_run_check_compressed", broken)
        code, out, err = run_cli(capsys, "check-compressed", "--input", C4)
        assert code == cli.EXIT_INTERNAL == 70
        assert out == ""
        assert err == "error: internal: RuntimeError: index out of step\n"

    def test_keyboard_interrupt_is_not_caught(self, monkeypatch):
        def interrupted(g, args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_run_dim", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["dim", "--input", C4])

    def test_budget_exceeded(self, capsys):
        code, _, err = run_cli(capsys, "points", "--input", C4, "--max-n", "3")
        assert code == 3

    @pytest.mark.parametrize(
        "text", ['{"n": 2000000, "edges": []}', "n 2000000\n", "1 2000000\n"]
    )
    def test_budget_checked_before_graph_is_built(self, capsys, monkeypatch, tmp_path, text):
        def refuse(self, n, edges):
            raise AssertionError(f"Graph({n}, ...) built before the --max-n check")

        monkeypatch.setattr(Graph, "__init__", refuse)
        path = tmp_path / "big.txt"
        path.write_text(text)
        code, out, err = run_cli(capsys, "dim", "--max-n", "20", "--input", str(path))
        assert code == 3
        assert out == ""
        assert err == "error: graph has 2000000 vertices, over the requested cap 20\n"

    @pytest.mark.parametrize(
        "text, n",
        [
            ("n 100000000000000000000000", 100000000000000000000000),
            ('{"n": 1000000000000000000000, "edges": []}', 1000000000000000000000),
            ("n 65537", 65537),
        ],
    )
    def test_vertex_count_over_the_graph_cap(self, capsys, text, n):
        # an OverflowError traceback (exit 1) would read as "property false"
        code, out, err = run_cli(capsys, "dim", "--input", text)
        assert code == 3
        assert out == ""
        assert err == f"error: graph has {n} vertices, over the cap 65536\n"

    def test_sweep_budget(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--max-n", "30")
        assert code == 3

    @pytest.mark.parametrize("max_n", ["0", "-3"])
    def test_sweep_cap_below_one_is_a_usage_error(self, capsys, max_n):
        # exit 1 would read as a disagreement
        code, out, err = run_cli(capsys, "sweep", "--max-n", max_n)
        assert code == 2
        assert out == ""
        assert err == "error: max_n must be at least 1\n"

    @pytest.mark.parametrize("max_n", ["0", "-3"])
    @pytest.mark.parametrize(
        "verb",
        ["points", "facets", "dim", "matchable", "check-compressed",
         "check-gorenstein", "check-normal", "classify"],
    )
    def test_graph_verb_cap_below_one_is_a_usage_error(self, capsys, verb, max_n):
        # exit 3 would read as a graph over the budget
        code, out, err = run_cli(capsys, verb, "--input", "1 2;2 3", "--max-n", max_n)
        assert code == 2
        assert out == ""
        assert err == "error: max_n must be at least 1\n"

    def test_gorenstein_false(self, capsys):
        code, out, _ = run_cli(capsys, "check-gorenstein", "--input", K23)
        assert code == 1
        assert "no-perfect-matching" in out

    def test_interior_point_in_the_canonical_basis(self, capsys):
        """A nonbipartite graph's `interior_point` is in the coordinates of
        the Hermite basis e_i + e_n, 2 e_n of {x : sum x even}."""
        edges = "1 2;1 3;1 5;2 4;2 6;3 5;4 6"
        code, out, _ = run_cli(capsys, "check-gorenstein", "--input", edges)
        assert code == 0
        (component,) = json.loads(out)["components"]
        certificate = component["verdict"]["certificate"]
        assert certificate["index"] == 2
        assert certificate["interior_point"] == [1, 1, 1, 1, 1, -2]
        assert certificate["interior_point_ambient"] == [1, 1, 1, 1, 1, 1]


class TestSchemas:
    def test_points(self, capsys):
        _, out, _ = run_cli(capsys, "points", "--input", C4)
        validate(out, "points.schema.json")

    def test_facets(self, capsys):
        _, out, _ = run_cli(capsys, "facets", "--input", K4)
        validate(out, "inequalities.schema.json")

    def test_dim(self, capsys):
        _, out, _ = run_cli(capsys, "dim", "--input", C4)
        validate(out, "dimension.schema.json")

    def test_matchable(self, capsys):
        _, out, _ = run_cli(capsys, "matchable", "--input", C4)
        validate(out, "matchable.schema.json")

    def test_verdict(self, capsys):
        for fixture in (C4, C5, K4):
            _, out, _ = run_cli(capsys, "check-compressed", "--input", fixture)
            validate(out, "verdict.schema.json")

    def test_gorenstein(self, capsys):
        for fixture in (C4, K23):
            _, out, _ = run_cli(capsys, "check-gorenstein", "--input", fixture)
            validate(out, "gorenstein.schema.json")

    def test_normal(self, capsys):
        _, out, _ = run_cli(capsys, "check-normal", "--input", K4, "--k", "2")
        validate(out, "normal.schema.json")

    def test_classify(self, capsys):
        for fixture in (C4, C5, K23):
            _, out, _ = run_cli(capsys, "classify", "--input", fixture)
            validate(out, "classify_report.schema.json")

    def test_sweep_records(self, capsys):
        _, out, _ = run_cli(capsys, "sweep", "--max-n", "4")
        schema = load_schema("sweep_record.schema.json")
        lines = out.strip().splitlines()
        assert lines
        for line in lines:
            jsonschema.validate(json.loads(line), schema)


class TestDeterminism:
    VERBS = [
        ("points",),
        ("facets",),
        ("dim",),
        ("matchable",),
        ("check-compressed",),
        ("check-gorenstein",),
        ("check-normal", "--k", "2"),
        ("classify",),
    ]
    FIXTURE_FILES = ["c4.edges", "c5.edges", "c7.edges", "k4.edges", "k23.edges",
                     "k33.edges", "blocks_k33_k4_k23.edges", "c4_deg4_trees.edges",
                     "c4.json"]

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_repeated_runs_byte_identical(self, capsys, fmt):
        for fixture in self.FIXTURE_FILES:
            path = str(FIXTURES / fixture)
            for verb in self.VERBS:
                if verb[0] == "check-normal" and fixture == "c4_deg4_trees.edges":
                    continue  # 22 vertices is over the dilate budget
                argv = [verb[0], "--input", path, "--format", fmt, *verb[1:]]
                first = run_cli(capsys, *argv)
                second = run_cli(capsys, *argv)
                assert first == second, argv

    def test_facets_output_reads_the_rows(self, capsys):
        """Both formats of `facets` print the rows of `to_json()`: the JSON
        its sorted-key dump, the text one line per row."""
        for fixture in self.FIXTURE_FILES:
            path = str(FIXTURES / fixture)
            g = read_graph(Namespace(input=path, max_n=None))
            if g.n > ENUMERATION_LIMIT:
                continue
            system = inequality_system(g)
            _, out, _ = run_cli(capsys, "facets", "--input", path)
            assert out == json.dumps(system.to_json(), sort_keys=True, separators=(",", ":")) + "\n"
            _, out, _ = run_cli(capsys, "facets", "--input", path, "--format", "text")
            lines = [
                f"{row['source']}: [{' '.join(map(str, row['normal']))}] <= {row['rhs']} "
                f"({'facet' if row['facet'] else 'valid'})"
                for row in system.to_json()["inequalities"]
            ]
            assert out.splitlines() == lines, fixture

    def test_sweep_deterministic(self, capsys):
        a = run_cli(capsys, "sweep", "--max-n", "5", "--family", "pseudotree")
        b = run_cli(capsys, "sweep", "--max-n", "5", "--family", "pseudotree")
        assert a == b


class TestFacetsVerb:
    """`facets` prints flags read off the graph: it enumerates no point,
    and its bytes are pinned on a triangle with a pendant vertex
    (nonbipartite) and a 4-cycle with one (bipartite)."""

    TRIANGLE_TAIL = "1 2;2 3;1 3;3 4"
    C4_TAIL = "1 2;2 3;3 4;1 4;4 5"
    TEXT = {
        TRIANGLE_TAIL: """\
NonNeg(1): [-1 0 0 0] <= 0 (valid)
NonNeg(2): [0 -1 0 0] <= 0 (valid)
NonNeg(3): [0 0 -1 0] <= 0 (valid)
NonNeg(4): [0 0 0 -1] <= 0 (facet)
UpperOne(1): [1 0 0 0] <= 1 (valid)
UpperOne(2): [0 1 0 0] <= 1 (valid)
UpperOne(3): [0 0 1 0] <= 1 (facet)
UpperOne(4): [0 0 0 1] <= 1 (valid)
OddSet(1): [1 -1 -1 0] <= 0 (valid)
OddSet(2): [-1 1 -1 0] <= 0 (valid)
OddSet(3): [-1 -1 1 -1] <= 0 (facet)
OddSet(1,2,3): [1 1 1 -1] <= 2 (facet)
OddSet(4): [0 0 -1 1] <= 0 (valid)
OddSet(1,4): [1 -1 -1 1] <= 0 (facet)
OddSet(2,4): [-1 1 -1 1] <= 0 (facet)
""",
        C4_TAIL: """\
NonNeg(1): [-1 0 0 0 0] <= 0 (facet)
NonNeg(2): [0 -1 0 0 0] <= 0 (facet)
NonNeg(3): [0 0 -1 0 0] <= 0 (facet)
NonNeg(4): [0 0 0 -1 0] <= 0 (valid)
NonNeg(5): [0 0 0 0 -1] <= 0 (facet)
UpperOne(1): [1 0 0 0 0] <= 1 (facet)
UpperOne(2): [0 1 0 0 0] <= 1 (facet)
UpperOne(3): [0 0 1 0 0] <= 1 (facet)
UpperOne(4): [0 0 0 1 0] <= 1 (facet)
UpperOne(5): [0 0 0 0 1] <= 1 (valid)
BipartiteCut(1): [1 -1 0 -1 0] <= 0 (valid)
BipartiteCut(3): [0 -1 1 -1 0] <= 0 (valid)
BipartiteCut(5): [0 0 0 -1 1] <= 0 (facet)
BipartiteCut(1,3): [1 -1 1 -1 0] <= 0 (facet)
BipartiteCut(1,5): [1 -1 0 -1 1] <= 0 (facet)
BipartiteCut(3,5): [0 -1 1 -1 1] <= 0 (facet)
Balance(upper): [1 -1 1 -1 1] <= 0 (valid)
Balance(lower): [-1 1 -1 1 -1] <= 0 (valid)
""",
    }
    JSON_SHA256 = {
        TRIANGLE_TAIL: "91285c050352c06db9eb679a68efd8e85c442c9680fa9b77f7d16c16db5803bc",
        C4_TAIL: "8e4396adf8c4a77a985dedc20349c8652e61dd3dad1b22c0b6cfb07158ad71a1",
    }

    @pytest.mark.parametrize("edges", [TRIANGLE_TAIL, C4_TAIL])
    def test_enumerates_no_point(self, capsys, monkeypatch, edges):
        def refuse(*args):
            raise AssertionError("a point set was enumerated")

        monkeypatch.setattr(polytope, "lattice_points", refuse)
        code, out, err = run_cli(capsys, "facets", "--format", "text", "--input", edges)
        assert (code, out, err) == (0, self.TEXT[edges], "")
        code, out, err = run_cli(capsys, "facets", "--input", edges)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == self.JSON_SHA256[edges]


class TestInputForms:
    def test_inline_edges(self, capsys):
        code, out, _ = run_cli(capsys, "dim", "--input", "1 2;2 3;3 4;4 1")
        assert code == 0
        assert json.loads(out) == {"dimension": 3}

    def test_inline_edges_longer_than_a_file_name(self, capsys):
        """Inline text over the 255-byte name limit is parsed, not looked
        up as a file."""
        text = ";".join(f"{v} {v + 1}" for v in range(1, 60))
        assert len(text.encode()) > 255
        code, out, err = run_cli(capsys, "dim", "--input", text)
        assert (code, out, err) == (0, '{"dimension":59}\n', "")

    def test_json_file(self, capsys):
        code, out, _ = run_cli(capsys, "dim", "--input", str(FIXTURES / "c4.json"))
        assert code == 0
        assert json.loads(out) == {"dimension": 3}

    def test_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("1 2\n2 3\n"))
        code, out, _ = run_cli(capsys, "matchable")
        assert code == 0
        assert json.loads(out)["count"] == 3

    def test_text_format_matchable(self, capsys):
        _, out, _ = run_cli(capsys, "matchable", "--input", C4, "--format", "text")
        assert out.splitlines()[0] == "n=4 matchable=6"
        assert "(empty)" in out

    def test_seed_flag_accepted_and_ignored(self, capsys):
        a = run_cli(capsys, "dim", "--input", C4, "--seed", "1")
        b = run_cli(capsys, "dim", "--input", C4, "--seed", "99")
        assert a == b


class TestParserReuse:
    """`main` parses every call with one parser per process; no call may
    leave a trace in the next."""

    SEQUENCE = [
        ("check-normal", "--input", K4, "--k", "2"),
        ("check-normal", "--input", K4),
        ("dim", "--input", C4, "--format", "text"),
        ("dim", "--input", C4),
        ("dim", "--input", C4, "--k", "2"),  # --k belongs to check-normal: usage error
        ("classify", "--input", C5),
    ]

    @staticmethod
    def fresh_process(argv) -> tuple[int, str, str]:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
        )
        result = subprocess.run(
            [sys.executable, "-m", "pmsp.cli", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        return result.returncode, result.stdout, result.stderr

    def test_each_call_matches_a_fresh_process(self, capsys, monkeypatch):
        # argparse wraps usage lines at the terminal width; fix it for both sides
        monkeypatch.setenv("COLUMNS", "80")
        runs = []
        for argv in self.SEQUENCE:
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            runs.append((code, captured.out, captured.err))
            assert runs[-1] == self.fresh_process(argv), argv
        assert len(json.loads(runs[0][1])["dilate_checks"]) == 1
        assert json.loads(runs[1][1])["dilate_checks"] == []
        assert runs[4][0] == 2 and runs[4][2].startswith("usage: pmsp")
