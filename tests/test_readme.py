"""The README's quick session runs, and each commented result is what it prints."""

import ast
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_quick_session_results():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"A quick session:\n\n```python\n(.*?)```", text, re.S).group(1)
    lines = block.splitlines()
    namespace: dict = {}
    checked = []
    for stmt in ast.parse(block).body:
        code = ast.get_source_segment(block, stmt)
        _, comment, expected = lines[stmt.end_lineno - 1].partition("#")
        if isinstance(stmt, ast.Expr) and comment:
            assert repr(eval(code, namespace)) == expected.strip(), code
            checked.append(expected.strip())
        else:
            exec(code, namespace)
    assert checked == ["{0: 1, 1: 4, 2: 1}", "{0: 1, 2: 1}", "True"]
