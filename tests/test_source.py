"""Rules on the package source itself."""

import ast
import subprocess
import sys
from pathlib import Path

import semitorsion.search
import semitorsion.torsion

SRC = Path(__file__).resolve().parents[1] / "src" / "semitorsion"


def test_no_assert_statements():
    # `python -O` strips `assert`, so no check in the package may use it
    files = sorted(SRC.glob("*.py"))
    assert files, SRC
    found = [f"{path.name}:{node.lineno}" for path in files
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, found


def test_bench_hooks_bind():
    # bench/spans.py wraps the traced layers by name; a refactor that
    # renames or unbinds one must fail here, not only in the benchmark
    root = SRC.parents[1]
    code = ("import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
            "import semitorsion.cli, spans\n"
            "spans.install()\n")
    done = subprocess.run([sys.executable, "-c", code, str(root / "src"),
                           str(root / "bench")],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert semitorsion.search.TauEngine is semitorsion.torsion.TauEngine
