"""The public API that README documents: the Library example runs, the
values its comments quote are what it returns, and every exported name
resolves."""

import ast
import re
from pathlib import Path

import pmsp

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
