"""The public API that README documents: the Library example runs, the
values its comments quote are what it returns, every exported name
resolves, and the Budgets table quotes the caps the code enforces."""

import ast
import re
from pathlib import Path

import pmsp
from pmsp import budgets

README = Path(__file__).parent.parent / "README.md"


def _library_block() -> str:
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs_and_returns_the_quoted_values():
    block = _library_block()
    namespace: dict = {}
    exec(block, namespace)
    compared = 0
    code = None
    for line in block.splitlines():
        text, _, comment = line.partition("#")
        if text.strip():
            code = text  # a comment on its own line quotes the line above
        try:
            quoted = ast.literal_eval(comment.strip())
        except (ValueError, SyntaxError):
            continue  # prose, not a value
        assert eval(code, namespace) == quoted, line
        compared += 1
    assert compared >= 4


def test_every_exported_name_resolves():
    assert len(set(pmsp.__all__)) == len(pmsp.__all__)
    missing = [name for name in pmsp.__all__ if not hasattr(pmsp, name)]
    assert missing == []


def _budget_rows() -> list[list[str]]:
    section = README.read_text().split("\n## Budgets\n", 1)[1].split("\n## ", 1)[0]
    lines = [line.strip().strip("|") for line in section.splitlines() if line.startswith("|")]
    return [[cell.strip() for cell in line.split("|")] for line in lines[2:]]


def test_budget_table_quotes_the_caps_in_code():
    rows = _budget_rows()
    for computation, cap, constant in rows:
        name = constant.strip("`")
        value = getattr(budgets, name)
        caps = [int(x) for x in re.findall(r"\d+(?= vertices| /)", cap)]
        if name == "CORPUS_CAPS":
            families = [f.strip() for f in computation.split(":", 1)[1].split("/")]
            assert list(zip(families, caps)) == list(value.items()), cap
        else:
            assert caps == [value], (computation, cap)
    assert len(rows) == 9
