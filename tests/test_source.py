"""Rules on the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "semitorsion"


def test_no_assert_statements():
    # `python -O` strips `assert`, so no check in the package may use it
    files = sorted(SRC.glob("*.py"))
    assert files, SRC
    found = [f"{path.name}:{node.lineno}" for path in files
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, found
