"""CLI behavior: exit codes, schemas, and byte-for-byte determinism."""

import json
from pathlib import Path

import jsonschema
import pytest

from pmsp.cli import main
from pmsp.graph import Graph

from .conftest import FIXTURES

SCHEMAS = Path(__file__).parent.parent / "docs" / "schemas"


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

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "dim", "--input", "no/such/file.edges")
        assert code == 2

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

    def test_sweep_budget(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--max-n", "30")
        assert code == 3

    def test_gorenstein_false(self, capsys):
        code, out, _ = run_cli(capsys, "check-gorenstein", "--input", K23)
        assert code == 1
        assert "no-perfect-matching" in out


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

    def test_sweep_deterministic(self, capsys):
        a = run_cli(capsys, "sweep", "--max-n", "5", "--family", "pseudotree")
        b = run_cli(capsys, "sweep", "--max-n", "5", "--family", "pseudotree")
        assert a == b


class TestInputForms:
    def test_inline_edges(self, capsys):
        code, out, _ = run_cli(capsys, "dim", "--input", "1 2;2 3;3 4;4 1")
        assert code == 0
        assert json.loads(out) == {"dimension": 3}

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
