import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "crystalsums"


def test_no_assert_statements():
    # python -O strips asserts; invariants must raise package errors
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = [f"{path.name}:{node.lineno}"
             for path in sources
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert not found, found
