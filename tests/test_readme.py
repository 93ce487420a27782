"""The README's library example runs, and its commented results hold."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_results():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library example\n+```python\n(.*?)```", text, re.S)
    assert block, "README has no library example"
    lines = block.group(1).splitlines()
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(block.group(1)).body:
        # A statement ending in "  # <literal>" is an expression whose value
        # the comment gives; any other statement only runs.
        _, _, comment = lines[stmt.end_lineno - 1].partition("  # ")
        code = ast.unparse(stmt)
        if not comment:
            exec(code, namespace)
            continue
        assert eval(code, namespace) == ast.literal_eval(comment.strip()), code
        checked += 1
    assert checked == 6
