"""python -O strips every assert and makes __debug__ false, so no invariant
of the package may live in an assert statement or behind __debug__.  CI runs
ci/checks.py under python -O, where an assert would make its check vacuous;
that script may read __debug__, as it does on purpose to refuse running
without -O."""

import ast
from pathlib import Path

import latin3

CHECKS = Path(__file__).resolve().parent.parent / "ci" / "checks.py"


def _nodes(path):
    return ast.walk(ast.parse(path.read_text(), str(path)))


def test_no_module_asserts_or_reads_debug():
    found = []
    for path in sorted(Path(latin3.__file__).parent.rglob("*.py")):
        for node in _nodes(path):
            if isinstance(node, ast.Assert) or (isinstance(node, ast.Name) and node.id == "__debug__"):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_asserts_in_ci_checks():
    assert [node.lineno for node in _nodes(CHECKS) if isinstance(node, ast.Assert)] == []
