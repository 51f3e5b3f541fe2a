"""python -O strips every assert and makes __debug__ false, so no invariant
of the package may live in an assert statement or behind __debug__."""

import ast
from pathlib import Path

import latin3


def test_no_module_asserts_or_reads_debug():
    found = []
    for path in sorted(Path(latin3.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert) or (isinstance(node, ast.Name) and node.id == "__debug__"):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
