import hashlib
import json
import os
import runpy
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import semitorsion
import semitorsion.cli as cli
import semitorsion.search as search
import semitorsion.semigroup as semigroup
import semitorsion.torsion as torsion
from semitorsion import (MODES, SearchSpec, TauEngine, coprime_pairs,
                         make_ideal, make_semigroup)
from semitorsion.cli import build_parser, main


# The benchmark's workload table, read without importing from (or
# writing bytecode into) bench/.
BENCH = runpy.run_path(str(Path(__file__).resolve().parents[1] / "bench"
                           / "workloads.py"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestImports:
    def test_cli_leaves_numpy_unloaded(self):
        src = os.path.dirname(os.path.dirname(semitorsion.__file__))
        code = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "import semitorsion.cli; print('numpy' in sys.modules)")
        done = subprocess.run([sys.executable, "-c", code, src],
                              capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "False"

    def test_cli_import_budget(self):
        # every cold start pays for what `import semitorsion.cli` loads:
        # none of these is needed before a pool or a JSON print, if ever;
        # -S keeps site's imports out
        src = os.path.dirname(os.path.dirname(semitorsion.__file__))
        code = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "import semitorsion.cli; print(*sys.modules)")
        done = subprocess.run([sys.executable, "-S", "-c", code, src],
                              capture_output=True, text=True, check=True)
        loaded = set(done.stdout.split())
        assert "semitorsion.search" in loaded
        assert not loaded & {"dataclasses", "inspect", "concurrent.futures",
                             "logging", "json", "numpy"}


class TestInfo:
    def test_57(self, capsys):
        code, out, _ = run(capsys, "info", "--semigroup", "5,7")
        assert code == 0
        assert "frobenius: 23" in out
        assert "symmetric: True" in out
        assert "gaps (12):" in out

    def test_full_monoid(self, capsys):
        code, out, _ = run(capsys, "info", "--semigroup", "1")
        assert code == 0
        assert "frobenius: -1" in out and "gaps (0):" in out

    def test_gcd_failure(self, capsys):
        code, _, err = run(capsys, "info", "--semigroup", "4,6")
        assert code == 1 and "gcd" in err

    def test_garbage(self, capsys):
        code, _, err = run(capsys, "info", "--semigroup", "4,x")
        assert code == 1 and "cannot parse" in err

    def test_gap_line_streams(self, capsys):
        # the line is written a window of membership bits at a time
        s = make_semigroup([300, 301])
        code, out, _ = run(capsys, "info", "--semigroup", "300,301")
        assert code == 0
        gaps = s.gaps()
        assert out.splitlines()[3] == (f"gaps ({len(gaps)}): "
                                       + ",".join(map(str, gaps)))

    def test_gap_line_memory(self, monkeypatch):
        # the gap line of <1000,1001> is 3.4 MB and its list of gaps
        # larger; neither may be held at once
        class Sink:
            def write(self, text):
                return len(text)

        make_semigroup([1000, 1001])  # built and cached before tracing
        monkeypatch.setattr(sys, "stdout", Sink())
        tracemalloc.start()
        try:
            code = main(["info", "--semigroup", "1000,1001"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 1 << 20, peak

    def test_huge_generators(self, capsys):
        # the membership bound would need a shift past what Python allows;
        # a mid-size input would allocate gigabytes instead, so none is tried
        code, out, err = run(capsys, "info", "--semigroup",
                             "99999999999,100000000000")
        assert code == 1 and out == "" and err.count("\n") == 1
        assert "99999999999, 100000000000" in err and "too large" in err

    def test_unallocatable_generators(self, capsys, monkeypatch):
        # <1000000,1000001> asks for 10**12 membership bits, which fails
        # with MemoryError where it is refused; the refusal is stubbed,
        # so nothing that size is really allocated
        def refuse(gens):
            raise MemoryError

        monkeypatch.setattr(semigroup, "_membership_bits", refuse)
        code, out, err = run(capsys, "info", "--semigroup", "1000000,1000001")
        assert code == 1 and out == "" and err.count("\n") == 1
        assert "1000000, 1000001" in err and "too large" in err


class TestTau:
    def test_torsion_pair(self, capsys):
        code, out, _ = run(capsys, "tau", "--semigroup", "4,5,6",
                           "--ideal-a", "4,5", "--ideal-b", "4,5", "--profile")
        assert code == 0
        assert "tau: 2" in out
        assert "z=9 tau_z=1" in out and "z=16 tau_z=1" in out

    def test_torsion_free_pair(self, capsys):
        code, out, _ = run(capsys, "tau", "--semigroup", "4,5,6",
                           "--ideal-a", "4,5", "--ideal-b", "4,6")
        assert code == 0 and "tau: 0" in out

    def test_engine_disagreement_exits_two(self, capsys, monkeypatch):
        # the flood fill audits the engine: reps that drop the last left
        # vertex's components lose both of this pair's torsion degrees
        true_reps = TauEngine._reps
        monkeypatch.setattr(TauEngine, "_reps", lambda self, *args:
                            true_reps(self, *args)[:-1])
        code, out, err = run(capsys, "tau", "--semigroup", "4,5,6",
                             "--ideal-a", "4,5", "--ideal-b", "4,5")
        assert code == 2 and out == ""
        assert "engine tau 0 support 0" in err
        assert "flood fill tau 2 support 2" in err

    def test_disagreement_without_torsion_names_its_degree(self, capsys,
                                                             monkeypatch):
        # a fill that finds 1 class in the empty fiber at z = 1 changes no
        # torsion number, yet the routes differ at that degree
        true_count = torsion.fiber_class_count

        def one_at_1(a, b, lo, hi):
            counts = true_count(a, b, lo, hi)
            counts[1 - lo] = 1
            return counts

        monkeypatch.setattr(torsion, "fiber_class_count", one_at_1)
        code, out, err = run(capsys, "tau", "--semigroup", "5,7",
                             "--ideal-a", "0", "--ideal-b", "0")
        assert code == 2 and out == "" and err.count("\n") == 1
        assert "disagree at z=1: engine 0 classes, flood fill 1;" in err
        assert "engine tau 0 support 0; flood fill tau 0 support 0" in err

    def test_dot(self, capsys):
        code, out, _ = run(capsys, "tau", "--semigroup", "5,11",
                           "--ideal-a", "20,21,22", "--ideal-b", "0,23,24",
                           "--dot", "45")
        assert code == 0
        assert out.count("--") == 3
        assert "v1 -- w1;" in out and "v2 -- w3;" in out and "v3 -- w2;" in out


@pytest.fixture
def ran(monkeypatch):
    """The set of dual routes that the `dual` calls in a test run."""
    names = set()
    for name, attr in (("scan", "ideal_dual"), ("formula", "dual_formula"),
                       ("reflection", "dual_symmetric")):
        route = getattr(cli, attr)
        monkeypatch.setattr(cli, attr, lambda a, name=name, route=route:
                            names.add(name) or route(a))
    return names


class TestDual:
    # the scan runs over any S, the formula over <a, b> and the
    # reflection over a symmetric S, which every <a, b> is
    # each case names a route by the old `--method` value that chose it
    @pytest.mark.parametrize("route", ["formula", "scan", "reflection"],
                             ids=["formula", "bruteforce", "symmetric"])
    def test_three_routes(self, capsys, ran, route):
        code, out, err = run(capsys, "dual", "--semigroup", "5,7",
                             "--ideal-a", "17,21,25")
        assert code == 0 and out.strip() == "0,3,4" and err == ""
        assert route in ran and ran == {"scan", "formula", "reflection"}

    @pytest.mark.parametrize("gens, ideal, dual, routes", [
        ("3,4,5", "0,1", "3,4,5", {"scan"}),
        ("1", "0", "0", {"scan", "reflection"}),  # N is symmetric, F = -1
    ], ids=["3,4,5", "1"])
    def test_routes_off_the_plane(self, capsys, ran, gens, ideal, dual,
                                  routes):
        code, out, _ = run(capsys, "dual", "--semigroup", gens,
                           "--ideal-a", ideal)
        assert code == 0 and out.strip() == dual and ran == routes

    def test_route_disagreement_exits_two(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "dual_formula",
                            lambda a: make_ideal(a.semigroup, [1, 2]))
        code, out, err = run(capsys, "dual", "--semigroup", "5,7",
                             "--ideal-a", "17,21,25")
        assert code == 2 and out == "" and err.count("\n") == 1
        assert "scan 0,3,4" in err and "formula 1,2" in err
        assert "reflection 0,3,4" in err

    def test_method_is_unknown(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dual", "--semigroup", "5,7", "--ideal-a", "17,21,25",
                  "--method", "formula"])
        captured = capsys.readouterr()
        assert exc.value.code == 1 and captured.out == ""
        assert "unrecognized arguments: --method" in captured.err

    def test_principal(self, capsys):
        code, out, _ = run(capsys, "dual", "--semigroup", "5,7",
                           "--ideal-a", "9")
        assert code == 0 and out.strip() == "-9"

    def test_negative_ideal_attached_with_equals(self, capsys):
        # a list starting with "-" would be read as an option
        code, out, _ = run(capsys, "dual", "--semigroup", "5,7",
                           "--ideal-a=-4,3")
        assert code == 0 and out.strip() == "4"

    def test_formula_needs_two_generators(self, capsys, ran):
        code, out, err = run(capsys, "dual", "--semigroup", "4,5,6",
                             "--ideal-a", "4,5")
        assert code == 0 and out.strip() == "0,1" and err == ""
        assert ran == {"scan", "reflection"}


class TestHw:
    def test_57(self, capsys):
        code, out, _ = run(capsys, "hw", "--semigroup", "5,7")
        assert code == 0
        report = json.loads(out)
        assert report["all_positive"] and len(report["gaps"]) == 12

    def test_vacuous(self, capsys):
        code, out, _ = run(capsys, "hw", "--semigroup", "1")
        assert code == 0 and json.loads(out)["all_positive"]


class TestSearch:
    def test_hw_mode_writes_file(self, capsys, tmp_path):
        out_path = tmp_path / "records.jsonl"
        code, out, _ = run(capsys, "search", "--mode", "hw",
                           "--ab-max", "15", "--out", str(out_path))
        assert code == 0
        assert "violations: 0" in out
        lines = out_path.read_text().splitlines()
        assert len(lines) == 5
        assert all(json.loads(line)["bound_ok"] for line in lines)

    def test_half_mu_mode(self, capsys):
        code, out, _ = run(capsys, "search", "--mode", "half-mu-bound",
                           "--ab-max", "15", "--mu-max", "3")
        assert code == 0 and "violations: 0" in out

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--mode", "bogus"])
        assert exc.value.code == 1

    def test_missing_command(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_jobs_ignores_environment(self, capsys, monkeypatch):
        # --jobs is the one way to set the worker count
        monkeypatch.setenv("SEMITORSION_JOBS", "x")
        code, _, _ = run(capsys, "search", "--mode", "hw", "--ab-max", "15")
        assert code == 0
        args = build_parser().parse_args(["search", "--mode", "hw"])
        assert args.parallelism == 1

    @pytest.mark.parametrize("mode", MODES)
    def test_defaults_are_the_spec(self, mode):
        # the parsed options are SearchSpec's fields at its defaults
        args = vars(build_parser().parse_args(["search", "--mode", mode]))
        del args["command"], args["func"]
        assert args == vars(SearchSpec(mode=mode))

    def test_mode_choices_are_the_modes(self):
        # the CLI offers exactly the driver's runners, in their order
        subparsers = build_parser()._subparsers._group_actions[0]
        mode = next(action for action in subparsers.choices["search"]._actions
                    if action.dest == "mode")
        assert tuple(mode.choices) == MODES == tuple(search._MODE_RUNNERS)
        assert MODES == ("half-mu-bound", "dual-consistency", "hw",
                         "oracle-compare")

    def test_violations_printed_at_most_ten(self, capsys, monkeypatch):
        # every record fails: all are counted, the first ten printed
        def failing(spec, a, b):
            line = f'{{"a":{a},"b":{b},"bound_ok":false}}\n'
            yield line, 1, [line], {}

        monkeypatch.setitem(search._MODE_RUNNERS, "hw", failing)
        code, out, _ = run(capsys, "search", "--mode", "hw", "--ab-max", "40")
        printed = [line for line in out.splitlines()
                   if line.startswith("VIOLATION: ")]
        assert code == 2
        assert f"violations: {len(coprime_pairs(40))}" in out.splitlines()
        assert len(printed) == 10 < len(coprime_pairs(40))
        assert printed[0] == ('VIOLATION: {"a": 2, "b": 3, '
                              '"bound_ok": false}')

    def test_unwritable_out(self, capsys, tmp_path):
        # the message names the path given, not the part file behind it
        target = tmp_path / "missing" / "records.jsonl"
        code, _, err = run(capsys, "search", "--mode", "hw", "--ab-max", "15",
                           "--out", str(target))
        assert code == 1
        assert err.count("\n") == 1 and "No such file" in err
        assert f"'{target}'" in err and ".part" not in err

    def test_empty_out(self, capsys, monkeypatch, tmp_path):
        # an empty path is refused before the campaign runs, not taken
        # as no output
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "search", "--mode", "hw", "--ab-max",
                             "15", "--out", "")
        assert code == 1 and out == ""
        assert err == ("semitorsion: error: output_path (--out) must not "
                       "be empty\n")
        assert list(tmp_path.iterdir()) == []

    def test_out_is_a_directory(self, capsys, tmp_path):
        # the rename fails after the last record: the part file goes and
        # the message names the directory
        target = tmp_path / "records"
        (target / "kept").mkdir(parents=True)
        code, _, err = run(capsys, "search", "--mode", "hw", "--ab-max", "10",
                           "--out", str(target))
        assert code == 1
        assert err.count("\n") == 1 and f"'{target}'" in err
        assert ".part" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["records"]
        assert [p.name for p in target.iterdir()] == ["kept"]

    def test_dead_worker_exits_one(self, tmp_path):
        # a worker that dies mid-run (as under the OOM killer) must fail
        # the run at once, not hang it; in a subprocess, so a hang fails
        # on the timeout instead of stalling the suite
        code = ("import os, sys; sys.path.insert(0, sys.argv[1])\n"
                "import semitorsion.search as search\n"
                "from semitorsion.cli import main\n"
                "runner = search._MODE_RUNNERS['hw']\n"
                "def dying(spec, a, b):\n"
                "    if (a, b) == (3, 4):\n"
                "        os._exit(1)\n"
                "    yield from runner(spec, a, b)\n"
                "search._MODE_RUNNERS['hw'] = dying\n"
                "sys.exit(main(['search', '--mode', 'hw', '--ab-max', '40', "
                "'--jobs', '2', '--out', sys.argv[2]]))\n")
        src = Path(__file__).resolve().parents[1] / "src"
        target = tmp_path / "hw.jsonl"
        done = subprocess.run([sys.executable, "-c", code, str(src),
                               str(target)], capture_output=True, text=True,
                              timeout=60)
        assert done.returncode == 1, done.stderr
        assert done.stderr.count("\n") == 1, done.stderr
        assert done.stderr.startswith("semitorsion: error: ")
        assert list(tmp_path.iterdir()) == []

    def test_dead_worker_raises_child_process_error(self, tmp_path):
        # a library caller gets an OSError, the kind the CLI reports, and
        # no part file; in a subprocess, as above
        code = ("import os, sys; sys.path.insert(0, sys.argv[1])\n"
                "import semitorsion.search as search\n"
                "runner = search._MODE_RUNNERS['hw']\n"
                "def dying(spec, a, b):\n"
                "    if (a, b) == (3, 4):\n"
                "        os._exit(1)\n"
                "    yield from runner(spec, a, b)\n"
                "search._MODE_RUNNERS['hw'] = dying\n"
                "spec = search.SearchSpec(mode='hw', ab_max=40, parallelism=2,"
                " output_path=sys.argv[2])\n"
                "try:\n"
                "    search.run_search(spec)\n"
                "except ChildProcessError as exc:\n"
                "    print(isinstance(exc, OSError), exc)\n")
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run([sys.executable, "-c", code, src,
                               str(tmp_path / "hw.jsonl")],
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("True a search worker died: "), (
            done.stdout)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag,value,name", [
        ("--ab-max", "5", "ab_max"), ("--mu-max", "0", "mu_max"),
        ("--jobs", "0", "--jobs"), ("--gen-window", "-1", "gen_window"),
        ("--samples", "0", "samples")])
    def test_bad_cap_names_its_field(self, capsys, flag, value, name):
        code, _, err = run(capsys, "search", "--mode", "hw", flag, value)
        assert code == 1 and err.count("\n") == 1
        assert name in err and f"got {value}" in err

    @pytest.mark.parametrize("caps", [("--mu-max", "1"),
                                      ("--gen-window", "1")])
    def test_half_mu_without_non_principal_ideals(self, capsys, tmp_path,
                                                  caps):
        # only (0,) is enumerated: no records, no stats, an empty file
        out_path = tmp_path / "half.jsonl"
        code, out, err = run(capsys, "search", "--mode", "half-mu-bound",
                             "--ab-max", "20", *caps, "--out", str(out_path))
        assert code == 0 and err == ""
        assert out.splitlines()[:3] == ["mode: half-mu-bound", "records: 0",
                                        "violations: 0"]
        assert out_path.read_bytes() == b""


class TestPinnedStreams:
    # every tiny and every full stream must keep the benchmark's pinned
    # record count and sha256, byte for byte
    @pytest.mark.parametrize("workload, size", [
        *((w, "tiny") for w in BENCH["WORKLOADS"]), ("half-mu", "full"),
        ("dual", "full"), ("hw", "full"), ("oracle", "full")])
    def test_stream_matches_pin(self, capsys, tmp_path, workload, size):
        out_path = tmp_path / "records.jsonl"
        argv = BENCH["campaign_argv"](workload, size, BENCH["PINNED_SEED"],
                                      str(out_path))
        code, _, _ = run(capsys, *argv)
        assert code == 0
        data = out_path.read_bytes()
        pin = BENCH["WORKLOADS"][workload]["sizes"][size]
        assert data.count(b"\n") == pin["records"]
        assert hashlib.sha256(data).hexdigest() == pin["sha256"]
