"""Rules on the package source itself."""

import ast
import json
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


def _mentions(node, scope=""):
    """(enclosing def, identifier) for every name, attribute, import and
    string constant under `node`; defined names come with their own def."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
            yield inner, child.name
            yield from _mentions(child, inner)
            continue
        for name in (getattr(child, "id", None), getattr(child, "attr", None),
                     getattr(child, "name", None),
                     getattr(child, "asname", None),
                     getattr(child, "value", None)):
            if isinstance(name, str):
                yield scope, name
        yield from _mentions(child, scope)


def test_one_fiber_edge_builder():
    # the engine's lanes are the only packed fiber edges; fiber_graph
    # feeds the counter one degree for display
    users = set()
    for path in sorted(SRC.glob("*.py")):
        for scope, name in _mentions(ast.parse(path.read_text(), str(path))):
            assert name not in ("_fiber_edges", "fiber_component_counts"), (
                path.name, scope)
            if name == "_component_reps":
                users.add((path.name, scope))
    assert users == {("torsion.py", "_component_reps"),
                     ("torsion.py", "TauEngine._reps"),
                     ("torsion.py", "fiber_graph")}, users


def test_oracle_names_no_engine_code():
    # the flood fill stays independent of the engine it checks: its lanes
    # index degrees and its bits nodes, the engine's tuples and degrees
    engine = {"TauEngine", "pack", "Lanes", "_reps", "_lane_counts",
              "_component_reps"}
    path = SRC / "torsion.py"
    found = {}
    for scope, name in _mentions(ast.parse(path.read_text(), str(path))):
        if scope in ("fiber_class_count", "torsion_profile"):
            found.setdefault(scope, set()).add(name)
    assert set(found) == {"fiber_class_count", "torsion_profile"}, found
    assert not {scope: names & engine for scope, names in found.items()
                if names & engine}, found


def test_bench_hooks_bind():
    # bench/spans.py wraps the traced layers by name, and reads the
    # engine's arguments; a refactor that renames, aliases or unbinds
    # one, or changes what the engine is called with, must fail here,
    # not only in the benchmark. Each layer is counted over one campaign.
    root = SRC.parents[1]
    campaigns = [  # search arguments after --ab-max 20, layers to enter
        [["--mode", "half-mu-bound", "--mu-max", "3"], ["search.engine"]],
        [["--mode", "dual-consistency", "--mu-max", "2"],
         ["search.enumerate", "ideals.make_ideal",
          "hypersurface.dual_formula"]],
        [["--mode", "hw"], ["huneke_wiegand.irreducible_triples",
                            "cofinite.sumset"]],
        [["--mode", "oracle-compare", "--mu-max", "3", "--samples", "20"],
         ["search.enumerate", "torsion.fiber_class_count"]],
    ]
    code = ("import json, sys; sys.path[:0] = sys.argv[1:3]\n"
            "import semitorsion.cli, spans\n"
            "tracer = spans.install()\n"
            "for args, layers in json.loads(sys.argv[3]):\n"
            "    before = tracer.summary()\n"
            "    code = semitorsion.cli.main(['search', '--ab-max', '20', "
            "*args])\n"
            "    after = tracer.summary()\n"
            "    print(json.dumps([code] + [after[k]['calls'] - "
            "before[k]['calls'] for k in layers]))\n")
    done = subprocess.run([sys.executable, "-c", code, str(root / "src"),
                           str(root / "bench"), json.dumps(campaigns)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    found = [json.loads(line) for line in done.stdout.splitlines()
             if line.startswith("[")]
    assert len(found) == len(campaigns), done.stdout
    for (args, layers), (code, *calls) in zip(campaigns, found):
        assert code == 0, args
        assert all(c > 0 for c in calls), (args, dict(zip(layers, calls)))
    assert semitorsion.search.TauEngine is semitorsion.torsion.TauEngine
