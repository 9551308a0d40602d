"""Rules on the package source itself."""

import ast
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

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


def test_one_public_list():
    # the package __init__ is the only list of public names: no module
    # keeps its own __all__, and __all__ names what __init__ imports
    owners = [path.name for path in sorted(SRC.glob("*.py"))
              for node in ast.walk(ast.parse(path.read_text(), str(path)))
              if isinstance(node, ast.Name) and node.id == "__all__"
              and isinstance(node.ctx, ast.Store)]
    assert owners == ["__init__.py"], owners
    public = semitorsion.__all__
    assert len(public) == len(set(public)), public
    missing = [name for name in public if not hasattr(semitorsion, name)]
    assert not missing, missing
    init = ast.parse((SRC / "__init__.py").read_text())
    imported = {alias.asname or alias.name for node in ast.walk(init)
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names}
    assert imported == set(public), (imported ^ set(public))


def test_no_semigroup_beside_an_ideal():
    # a relative ideal carries its semigroup, so a public function that
    # took both could be handed two that disagree; annotations are read
    # as written, since every module defers their evaluation
    files, found = sorted(SRC.glob("*.py")), []
    assert files, SRC
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    or node.name.startswith("_")):
                continue
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                      *filter(None, (args.vararg, args.kwarg))]
            names = [ast.unparse(p.annotation) if p.annotation else ""
                     for p in params]
            semigroups, ideals = ({i for i, text in enumerate(names)
                                   if re.search(rf"\b{kind}\b", text)}
                                  for kind in ("NumericalSemigroup",
                                               "RelativeIdeal"))
            if any(i != j for i in semigroups for j in ideals):
                found.append(f"{path.name}:{node.lineno} {node.name}")
    assert not found, found


def test_no_method_aliases():
    # a class binds each method under one name: a second one restates it
    found = []
    for path in sorted(SRC.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(cls, ast.ClassDef):
                continue
            methods = {node.name for node in cls.body if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef))}
            found += [f"{path.name}:{node.lineno} {cls.name}"
                      for node in cls.body
                      if isinstance(node, (ast.Assign, ast.AnnAssign))
                      and isinstance(node.value, ast.Name)
                      and node.value.id in methods]
    assert not found, found


def test_falsified_property_fails_cleanly(tmp_path):
    # the warning filter must not turn an import warning raised while
    # hypothesis reports a failure into an INTERNALERROR (exit 3) that
    # stops the run before the tests after it
    pyproject = SRC.parents[1] / "pyproject.toml"
    (tmp_path / "pyproject.toml").write_text(pyproject.read_text())
    (tmp_path / "test_probe.py").write_text(textwrap.dedent("""\
        from hypothesis import given, settings, strategies as st


        @settings(database=None)
        @given(st.integers())
        def test_falsified(x):
            assert x < 0


        def test_after():
            pass
        """))
    # of the installed plugins only hypothesis's is loaded: the others
    # take longer to import than the run itself
    env = {**os.environ, "PYTEST_DISABLE_PLUGIN_AUTOLOAD": "1"}
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p",
                           "no:cacheprovider", "-p", "_hypothesis_pytestplugin",
                           "test_probe.py"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout, done.stdout


def test_readme_sketch_runs():
    # README's library sketch runs as written, and each expression in it
    # equals the literal its comment opens with: `# <literal>; <prose>`
    readme = (SRC.parents[1] / "README.md").read_text()
    block = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    lines, scope, checked = block.splitlines(), {}, 0
    for node in ast.parse(block).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), "README.md", "exec"), scope)
            continue
        comment = lines[node.end_lineno - 1].partition("#")[2]
        expected = ast.literal_eval(comment.partition(";")[0].strip())
        got = eval(compile(ast.Expression(node.value), "README.md", "eval"),
                   scope)
        assert got == expected, (node.lineno, got)
        checked += 1
    assert checked, block


def test_one_version():
    tomllib = pytest.importorskip("tomllib")
    pyproject = SRC.parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())["project"]
    assert semitorsion.__version__ == project["version"]


def test_source_parses_at_python_floor():
    # the suite runs on a newer Python than the package promises, so the
    # grammar of the oldest one it supports is checked here: `except*`,
    # say, is 3.11 syntax
    tomllib = pytest.importorskip("tomllib")
    pyproject = SRC.parents[1] / "pyproject.toml"
    spec = tomllib.loads(pyproject.read_text())["project"]["requires-python"]
    floor = tuple(map(int, re.fullmatch(r">=(\d+)\.(\d+)", spec).groups()))
    files = sorted(SRC.glob("*.py"))
    assert files, SRC
    for path in files:
        ast.parse(path.read_text(), str(path), feature_version=floor)
    if floor < (3, 11):
        with pytest.raises(SyntaxError, match="only supported in Python"):
            ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n",
                      feature_version=floor)


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


# public name (function, class, or Class.method): why it stays unreached
UNREACHED_ALLOWED: dict[str, str] = {}


def test_public_api_is_reached():
    # every public function, class, method and property is named in src/
    # outside its own definition, by the bench harness, or by the paper's
    # acceptance criteria; anything else is API that only tests reach.
    # __init__ lists every public name, so it reaches none of them.
    root = SRC.parents[1]
    defined, scopes = {}, {}  # qualified name: name; name: where mentioned

    def mention(scope, name):
        scopes.setdefault(name, set()).add(scope)

    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defined[node.name] = node.name
                if isinstance(node, ast.ClassDef):
                    defined.update(
                        (f"{node.name}.{item.name}", item.name)
                        for item in node.body
                        if isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_"))
        if path.name != "__init__.py":
            for scope, name in _mentions(tree):
                mention(scope, name)
    for path in [root / "tests" / "test_acceptance.py",
                 *sorted((root / "bench").glob("*.py"))]:
        for _, name in _mentions(ast.parse(path.read_text(), str(path))):
            mention(path.name, name)
    unreached = sorted(
        qual for qual, name in defined.items()
        if qual not in UNREACHED_ALLOWED
        and not any(scope != qual and not scope.startswith(f"{qual}.")
                    for scope in scopes.get(name, ())))
    assert not unreached, unreached


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
    engine = {"TauEngine", "_pack", "_reps", "_lane_counts",
              "_component_reps"}
    path = SRC / "torsion.py"
    found = {}
    for scope, name in _mentions(ast.parse(path.read_text(), str(path))):
        if scope in ("fiber_class_count", "torsion_profile"):
            found.setdefault(scope, set()).add(name)
    assert set(found) == {"fiber_class_count", "torsion_profile"}, found
    assert not {scope: names & engine for scope, names in found.items()
                if names & engine}, found


def test_triple_scan_names_no_set_algebra():
    # the direct scan stays on ints, apart from the dual route that
    # torsion_length_2gen and the bench checker compare it with
    dual_route = {"sumset", "difference", "ideal_dual", "make_ideal",
                  "_progressions"}
    path = SRC / "huneke_wiegand.py"
    names = {name for scope, name in
             _mentions(ast.parse(path.read_text(), str(path)))
             if scope == "irreducible_triples"}
    assert names and not names & dual_route, names & dual_route


def test_triple_scan_reads_no_window():
    # the scan reads S once, as one int: a window of S per gap would
    # allocate and mask 2F + 2 bits each time
    path = SRC / "huneke_wiegand.py"
    names = {name for scope, name in
             _mentions(ast.parse(path.read_text(), str(path)))
             if scope == "irreducible_triples"}
    assert names and not names & {"window", "below"}, names


def test_ideal_build_reads_no_window():
    # make_ideal and ideal_dual read S as one int with its tail bits set:
    # a window of S per call would allocate and mask F + 1 bits or more
    path = SRC / "ideals.py"
    found = {}
    for scope, name in _mentions(ast.parse(path.read_text(), str(path))):
        if scope in ("make_ideal", "ideal_dual"):
            found.setdefault(scope, set()).add(name)
    assert set(found) == {"make_ideal", "ideal_dual"}, found
    assert not {scope: names & {"window", "below"}
                for scope, names in found.items()
                if names & {"window", "below"}}, found


def test_engine_counts_lanes_once():
    # the engine stacks its extra reps and their union into one int and
    # counts its lanes in one call: a count per rep pays its own round
    # trip through to_bytes, translate and the repunit multiply
    path = SRC / "torsion.py"
    calls = [name for scope, name in
             _mentions(ast.parse(path.read_text(), str(path)))
             if scope == "TauEngine.tau_support_batch"
             and name == "_lane_counts"]
    assert len(calls) == 1, calls


def test_engine_reads_difference_table():
    # a reused packing passes its rows and table to _reps as they are, and
    # _reps reads the rows, and shifts left, only to fill a missing table
    # entry: a call builds no edge int per (generator, row), only one
    # shift and one mask per pair of left generators
    path = SRC / "torsion.py"
    methods = {f"{cls.name}.{node.name}": node
               for cls in ast.parse(path.read_text(), str(path)).body
               if isinstance(cls, ast.ClassDef) for node in cls.body
               if isinstance(node, ast.FunctionDef)}
    batch, reps = (methods["TauEngine.tau_support_batch"],
                   methods["TauEngine._reps"])
    passed = {id(arg) for call in ast.walk(batch) if isinstance(
        call, ast.Call) and ast.unparse(call.func) == "self._reps"
        for arg in call.args}
    read = [node for node in ast.walk(batch) if isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Load)
            and node.id in ("rows", "table")]
    assert len(read) == 2 and all(id(node) in passed for node in read), [
        ast.unparse(node) for node in read]
    filled = {id(node) for branch in ast.walk(reps)
              if isinstance(branch, ast.If) for stmt in branch.body
              for node in ast.walk(stmt)}
    loose = [node for node in ast.walk(reps) if id(node) not in filled and (
        isinstance(node, ast.BinOp) and isinstance(node.op, ast.LShift)
        or isinstance(node, ast.Name) and node.id == "rows")]
    assert not loose, [ast.unparse(node) for node in loose]
    assert any(isinstance(node, ast.BinOp) and isinstance(node.op, ast.LShift)
               for node in ast.walk(reps)), "the table fill moved"


def test_cli_answers_run_their_checks():
    # a CLI answer with an independent route computes that route too, and
    # `dual` every route to the dual
    path = SRC / "cli.py"
    names = {}
    for scope, name in _mentions(ast.parse(path.read_text(), str(path))):
        names.setdefault(scope, set()).add(name)
    assert {"profile", "torsion_profile"} <= names["cmd_tau"], names
    assert {"ideal_dual", "dual_formula", "dual_symmetric"} <= names[
        "cmd_dual"], names


def test_bench_hooks_bind():
    # bench/spans.py wraps the traced layers by name, and reads the
    # engine's arguments; a refactor that renames, aliases or unbinds
    # one, or changes what the engine is called with, must fail here,
    # not only in the benchmark. Each layer is counted over one campaign,
    # and the set algebra over the dual route that bench/check.py uses;
    # the engine's work (fibers) over half-mu is each call's suffix
    # length times the window from 0 to F + ga[-1] + max gb[-1].
    root = SRC.parents[1]
    campaigns = [  # search arguments after --ab-max 20, layers to enter
        [["--mode", "half-mu-bound", "--mu-max", "3"], ["search.engine"]],
        [["--mode", "dual-consistency", "--mu-max", "2"],
         ["search.enumerate", "ideals.make_ideal",
          "hypersurface.dual_formula"]],
        [["--mode", "hw"], ["huneke_wiegand.irreducible_triples"]],
        [["--mode", "oracle-compare", "--mu-max", "3", "--samples", "20"],
         ["search.enumerate", "torsion.fiber_class_count"]],
    ]
    code = ("import json, sys; sys.path[:0] = sys.argv[1:3]\n"
            "import semitorsion.cli, spans\n"
            "from semitorsion import make_semigroup, torsion_length_2gen\n"
            "tracer = spans.install()\n"
            "def count(run, layers):\n"
            "    before = tracer.summary()\n"
            "    out = run()\n"
            "    after = tracer.summary()\n"
            "    print(json.dumps([out] + [[after[k][key] - before[k][key] "
            "for k in layers] for key in ('calls', 'work')]))\n"
            "for args, layers in json.loads(sys.argv[3]):\n"
            "    count(lambda: semitorsion.cli.main(['search', '--ab-max', "
            "'20', *args]), layers)\n"
            "count(lambda: torsion_length_2gen(make_semigroup([5, 7]), 1), "
            "['cofinite.sumset', 'cofinite.difference'])\n")
    done = subprocess.run([sys.executable, "-c", code, str(root / "src"),
                           str(root / "bench"), json.dumps(campaigns)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    found = [json.loads(line) for line in done.stdout.splitlines()
             if line.startswith("[")]
    assert len(found) == len(campaigns) + 1, done.stdout
    for (args, layers), (code, calls, _) in zip(campaigns, found):
        assert code == 0, args
        assert all(c > 0 for c in calls), (args, dict(zip(layers, calls)))
    fibers = 0
    for a, b in semitorsion.search.coprime_pairs(20):
        s = semitorsion.make_semigroup((a, b))
        ideals = sorted([g for g in semitorsion.canonical_ideal_gens(
            s, a + b, 3) if len(g) >= 2], key=len)
        for p, ga in enumerate(ideals):
            fibers += (len(ideals) - p) * (s.frobenius + ga[-1] + max(
                gb[-1] for gb in ideals[p:]) + 1)
    assert found[0][2] == [fibers] and fibers > 0, (found[0], fibers)
    # the oracle fills every sample's window once, through torsion_profile
    assert found[3][1][1] == 20, found[3]
    # one scan per gap: <2,3>, <2,5>, <2,7>, <2,9>, <3,4>, <3,5>, <4,5>
    # have genera 1 + 2 + 3 + 4 + 3 + 4 + 6
    assert found[2][1] == [23], found[2]
    count, (sumsets, differences), _ = found[-1]
    assert count == 12 and sumsets > 0 and differences > 0, found[-1]
    assert semitorsion.search.TauEngine is semitorsion.torsion.TauEngine
