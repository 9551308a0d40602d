import json
import os
import subprocess
import sys

import pytest

import semitorsion
from semitorsion.cli import main


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

    def test_huge_generators(self, capsys):
        # the membership bound would need a shift past what Python allows;
        # a mid-size input would allocate gigabytes instead, so none is tried
        code, out, err = run(capsys, "info", "--semigroup",
                             "99999999999,100000000000")
        assert code == 1 and out == "" and err.count("\n") == 1
        assert "99999999999, 100000000000" in err and "too large" in err


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

    def test_dot(self, capsys):
        code, out, _ = run(capsys, "tau", "--semigroup", "5,11",
                           "--ideal-a", "20,21,22", "--ideal-b", "0,23,24",
                           "--dot", "45")
        assert code == 0
        assert out.count("--") == 3
        assert "v1 -- w1;" in out and "v2 -- w3;" in out and "v3 -- w2;" in out


class TestDual:
    @pytest.mark.parametrize("method", ["formula", "bruteforce", "symmetric"])
    def test_three_routes(self, capsys, method):
        code, out, _ = run(capsys, "dual", "--semigroup", "5,7",
                           "--ideal-a", "17,21,25", "--method", method)
        assert code == 0 and out.strip() == "0,3,4"

    def test_principal(self, capsys):
        code, out, _ = run(capsys, "dual", "--semigroup", "5,7",
                           "--ideal-a", "9")
        assert code == 0 and out.strip() == "-9"

    def test_negative_ideal_attached_with_equals(self, capsys):
        # a list starting with "-" would be read as an option
        code, out, _ = run(capsys, "dual", "--semigroup", "5,7",
                           "--ideal-a=-4,3", "--method", "formula")
        assert code == 0 and out.strip() == "4"

    def test_formula_needs_two_generators(self, capsys):
        code, _, err = run(capsys, "dual", "--semigroup", "4,5,6",
                           "--ideal-a", "4,5", "--method", "formula")
        assert code == 1 and "two-generated" in err


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
        from semitorsion.cli import build_parser
        args = build_parser().parse_args(["search", "--mode", "hw"])
        assert args.jobs == 1

    def test_unwritable_out(self, capsys, tmp_path):
        # the message names the path given, not the part file behind it
        target = tmp_path / "missing" / "records.jsonl"
        code, _, err = run(capsys, "search", "--mode", "hw", "--ab-max", "15",
                           "--out", str(target))
        assert code == 1
        assert err.count("\n") == 1 and "No such file" in err
        assert f"'{target}'" in err and ".part" not in err

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
