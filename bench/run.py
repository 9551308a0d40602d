"""Campaign benchmark for semitorsion.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-test

Run from the root of a checkout; the package is imported from its
`src/`, never from an installed copy. Each timed repetition is one
`semitorsion search ... --jobs 1` campaign in a fresh interpreter (see
`child.py`), so the `make_semigroup` cache and the engine's mask cache
start empty, as they do on every CLI call. With `--trace 0` the run
repeats the campaign for about S seconds and reports the end-to-end
metrics; with `--trace 1` it adds one traced campaign and reports the
per-layer metrics. Either way the record stream is then checked
outside the timed region (see `check.py`) and the last line of stdout
is one JSON object: correct, attempted, failed and metrics.

`attempted` is the number of records the campaign must produce.
`failed` counts wrong records, missing or extra records, repetitions
that exit non-zero or write a different stream, a stream whose sha256
differs from the pinned one, and in a traced run each layer entered
that the workload must bypass. failed / attempted is the run's failure
fraction. NOTES.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

from workloads import (BYPASSED, END_TO_END, PER_LAYER,  # noqa: E402
                       PINNED_SEED, WORKLOADS, campaign_argv)

MIN_REPS = 3          # untraced campaigns per end-to-end run, at least
MIN_TRACE_REPS = 2    # untraced campaigns a traced run compares against
RUN_LIMIT = 170       # seconds; no run may outlive this
CHECK_SAMPLE = {"half-mu": 300, "hw": 6}  # records re-derived per run

# A fixed interpreter start that gauges how fast the machine starts
# processes and loads extension modules at the moment; set-up samples are
# divided by its time and multiplied by its time on a quiet machine.
REFERENCE_START = ["-c", "import numpy"]
NOMINAL_START_S = 0.2

# Per-layer metrics that are a wrapped layer's work count (see spans.py);
# every other layer metric is named <layer>.<calls|s|self_s>.
WORK_COUNTS = {
    "search.engine.fibers": "search.engine",
    "search.enumerate.ideals": "search.enumerate",
    "cofinite.sumset.head_pairs": "cofinite.sumset",
    "torsion.fiber_graph.edges": "torsion.fiber_graph",
}


class BenchError(RuntimeError):
    """The benchmark itself cannot run (not a wrong program output)."""


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _digest(path: str) -> tuple[str, int]:
    """sha256 and line count of a record file ('' and 0 if missing)."""
    h, lines = hashlib.sha256(), 0
    try:
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
                lines += block.count(b"\n")
    except FileNotFoundError:
        return "", 0
    return h.hexdigest(), lines


def _calibrate(report: dict) -> dict:
    """Adds a campaign's wall and CPU time at the nominal machine speed of
    `reference.py`, as `cal_wall_s` and `cal_cpu_s`."""
    if "wall_s" in report:
        report["cal_wall_s"] = report["wall_s"] * report["speed"]["wall"]
        report["cal_cpu_s"] = report["cpu_s"] * report["speed"]["cpu"]
    return report


class Runner:
    """Child processes of one run, all in the checkout at `root`."""

    def __init__(self, root: str, workload: str, size: str, seed: int):
        self.root, self.workload, self.size, self.seed = root, workload, size, seed
        self.src = os.path.join(root, "src")
        self.work = os.path.join(root, ".bench_work", f"run-{os.getpid()}")
        self.deadline = _now() + RUN_LIMIT

    def spawn(self, args: list[str]) -> subprocess.CompletedProcess:
        """Runs this interpreter on `args` in the checkout."""
        timeout = self.deadline - _now()
        if timeout <= 0:
            raise BenchError(f"run exceeded {RUN_LIMIT} s")
        try:
            return subprocess.run(
                [sys.executable, *args],
                cwd=self.root, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{' '.join(args)[:60]} still running after "
                             f"{RUN_LIMIT} s into the run") from None

    def reference_start(self) -> float:
        """Wall seconds of one REFERENCE_START interpreter."""
        t0 = _now()
        proc = self.spawn(REFERENCE_START)
        if proc.returncode != 0:
            raise BenchError(f"reference start failed: {proc.stderr.strip()[-200:]}")
        return _now() - t0

    def child(self, opts: list[str], cli_args: list[str] = ()) -> dict:
        """One cold interpreter; `rc` is non-zero if it crashed or failed."""
        t0 = _now()
        proc = self.spawn([os.path.join(BENCH, "child.py"), self.src, *opts,
                           "--", *cli_args])
        if proc.returncode != 0 or not proc.stdout.strip():
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            return {"rc": proc.returncode or 1, "error": tail[0]}
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        report["setup_s"] = report["ready"] - t0
        return _calibrate(report)

    def campaign(self, tag: str, opts: list[str] = (),
                 seed: int | None = None) -> dict:
        out = os.path.join(self.work, f"{tag}.jsonl")
        seed = self.seed if seed is None else seed
        rep = self.child(list(opts),
                         campaign_argv(self.workload, self.size, seed, out))
        rep["path"] = out
        rep["sha256"], rep["records"] = _digest(out)
        return rep

    def repeat(self, budget: float, min_reps: int,
               setups: list[dict]) -> list[dict]:
        """Cold campaigns until the next one would overrun `budget`
        seconds; at least `min_reps` unless one alone overruns it. Each
        is preceded by a reference start and an import-only start,
        appended to `setups`, so the set-up samples spread over the run.
        Both set-ups get `cal_setup_s`, scaled by that reference start."""
        reps: list[dict] = []
        t0 = _now()
        while True:
            start = _now()
            reference = self.reference_start()
            setups.append(self.child(["--import-only"]))
            rep = self.campaign(f"rep{len(reps)}")
            for report in (setups[-1], rep):
                if "setup_s" in report:
                    report["cal_setup_s"] = (report["setup_s"] * NOMINAL_START_S
                                             / reference)
            if reps and rep["sha256"]:
                os.remove(rep["path"])  # the first stream is kept for the check
            reps.append(rep)
            now = _now()
            elapsed, took = now - t0, now - start
            if elapsed + took > budget and (len(reps) >= min_reps
                                            or elapsed > budget):
                return reps

    def verify(self, reps: list[dict], sample: int) -> tuple[int, list[str]]:
        """Failures found in the campaigns' outputs, with notes on each."""
        spec = WORKLOADS[self.workload]["sizes"][self.size]
        failed, notes = 0, []
        first = reps[0]
        for i, rep in enumerate(reps):
            if rep["rc"] != 0:
                failed += 1
                notes.append(f"campaign {i} exited {rep['rc']}: "
                             f"{rep.get('error', '')}")
            elif rep["sha256"] != first["sha256"]:
                failed += 1
                notes.append(f"campaign {i} wrote another stream than campaign 0")
        if first["records"] != spec["records"]:
            failed += abs(spec["records"] - first["records"])
            notes.append(f"{first['records']} records, expected {spec['records']}")
        pinned = first
        if WORKLOADS[self.workload]["seeded"] and self.seed != PINNED_SEED:
            pinned = self.campaign("pinned", seed=PINNED_SEED)
            failed += pinned["rc"] != 0
        if pinned["sha256"] != spec["sha256"]:
            failed += 1
            notes.append(f"sha256 {pinned['sha256'] or '-'} at seed "
                         f"{PINNED_SEED if pinned is not first else self.seed}, "
                         f"pinned {spec['sha256']}")
        if first["sha256"]:
            proc = self.spawn([os.path.join(BENCH, "check.py"),
                               self.src, self.workload,
                                           str(self.seed), first["path"],
                                           str(sample)])
            if proc.returncode != 0:
                raise BenchError(f"check.py failed: {proc.stderr.strip()[-400:]}")
            report = json.loads(proc.stdout.strip().splitlines()[-1])
            failed += report["bad"]
            notes.extend(report["problems"])
            notes.append(f"checked {report['records']} records, re-derived "
                         f"{report['rederived']}, {report['bad']} wrong")
        return failed, notes


def _layer_metrics(workload: str, traced: dict, untraced_wall: float
                   ) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of a traced campaign, and any bypass violations."""
    layers = traced["layers"]
    values = {}
    for name, _ in PER_LAYER:
        if name == "search.mask_cache.entries":
            values[name] = traced["mask_cache_entries"]
        elif name == "trace.overhead_frac":
            values[name] = traced["cal_wall_s"] / untraced_wall - 1
        elif name in WORK_COUNTS:
            values[name] = layers[WORK_COUNTS[name]]["work"]
        else:
            layer, key = name.rsplit(".", 1)
            values[name] = layers[layer][key]
    stray = [f"{layer} made {layers[layer]['calls']} calls on {workload}, "
             "which must bypass it" for layer in BYPASSED[workload]
             if layers[layer]["calls"]]
    return values, stray


def _commit(root: str) -> str:
    """HEAD's commit if the checkout is a git work tree, else 'unknown'.

    The ceiling keeps git from looking above the checkout for a repository.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_workload(root: str, workload: str, seed: int, seconds: float,
                 trace: bool, size: str = "full") -> tuple[dict, list[str]]:
    """One benchmark run; returns the result object and report lines."""
    runner = Runner(root, workload, size, seed)
    os.makedirs(runner.work, exist_ok=True)
    try:
        t0 = _now()
        first = runner.child(["--import-only"])
        if first["rc"] != 0:
            raise BenchError(f"cannot import semitorsion: {first['error']}")
        setups: list[dict] = []
        budget = seconds - (_now() - t0)
        if trace:
            budget /= 2  # the rest goes to the slower traced campaign
        reps = runner.repeat(budget, MIN_TRACE_REPS if trace else MIN_REPS,
                             setups)
        timed = [r for r in reps if "wall_s" in r]
        checked = list(reps)
        if trace:
            spans_tsv = os.path.join(root, ".bench_work", f"spans-{workload}.tsv")
            traced = runner.campaign("traced", ["--trace", spans_tsv])
            checked.append(traced)
        failed, notes = runner.verify(checked, CHECK_SAMPLE.get(workload, 0))
        lines = [
            f"# workload {workload} ({size}), seed {seed}, trace {int(trace)}: "
            f"semitorsion {' '.join(campaign_argv(workload, size, seed, 'OUT'))}",
            f"# python {first['python']}, numpy {first['numpy']}, "
            f"nproc {len(os.sched_getaffinity(0))}, commit {_commit(root)}",
            f"# {len(timed)} untraced campaigns, wall_s as measured "
            + " ".join(f"{r['wall_s']:.4f}" for r in timed),
            "# machine speed during each, from reference-kernel probes: "
            + " ".join(f"{r['speed']['wall']:.4f}" for r in timed),
            "# set-up samples as measured: "
            + " ".join(f"{r['setup_s']:.4f}" for r in setups + timed
                       if "cal_setup_s" in r),
        ]
        lines.extend(f"# check: {n}" for n in notes)
        if not timed:
            raise BenchError("no campaign finished: " + "; ".join(notes[:2]))
        if trace:
            if "layers" not in traced:
                raise BenchError(f"traced campaign failed: {traced.get('error')}")
            metrics, stray = _layer_metrics(
                workload, traced,
                statistics.median(r["cal_wall_s"] for r in timed))
            lines.extend(f"# layer map: {problem}" for problem in stray)
            failed += len(stray)
            units = dict(PER_LAYER)
        else:
            def median(key):
                return statistics.median(r[key] for r in timed)
            metrics = {
                "setup_s": statistics.median(
                    r["cal_setup_s"] for r in setups + timed
                    if "cal_setup_s" in r),
                "wall_s": median("cal_wall_s"),
                "records_per_s": statistics.median(
                    r["records"] / r["cal_wall_s"] for r in timed),
                "cpu_s": median("cal_cpu_s"),
                "peak_rss_mb": median("peak_rss_mb"),
            }
            units = dict(END_TO_END)
        attempted = WORKLOADS[workload]["sizes"][size]["records"]
        lines.append(f"# failed {failed} of {attempted} records attempted "
                     f"(failed_frac {failed / attempted})")
        lines.extend(f"{name:44s} {value!r:>22} {units[name]}"
                     for name, value in metrics.items())
        result = {"correct": failed == 0, "attempted": attempted,
                  "failed": failed,
                  "metrics": {name: {"value": value, "unit": units[name]}
                              for name, value in metrics.items()}}
        return result, lines
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)


def self_test(root: str) -> list[str]:
    """Problems found: tiny runs of every workload must pass and report
    every metric BENCHMARK.json names, a stream with one tau changed
    must fail, and a layer entered against the map must be caught."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    problems = []
    for key, ours in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        if [(m["name"], m["unit"]) for m in declared[key]] != ours:
            problems.append(f"BENCHMARK.json {key} differs from workloads.py")
    if [w["name"] for w in declared["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    for workload in WORKLOADS:
        for trace, table in ((False, END_TO_END), (True, PER_LAYER)):
            result, lines = run_workload(root, workload, 1, 1, trace, "tiny")
            got = [(k, v["unit"]) for k, v in result["metrics"].items()]
            if got != table:
                problems.append(f"{workload} trace {int(trace)} reports {got}")
            if not result["correct"]:
                problems.append(f"{workload} trace {int(trace)} failed: "
                                + "; ".join(lines))
            print(f"self-test: {workload} trace {int(trace)}: "
                  f"failed {result['failed']}")
    runner = Runner(root, "half-mu", "tiny", 1)
    os.makedirs(runner.work, exist_ok=True)
    try:
        rep = runner.campaign("corrupt")
        with open(rep["path"]) as fh:
            records = [json.loads(line) for line in fh]
        records[len(records) // 2]["tau"] += 1
        with open(rep["path"], "w") as fh:
            for r in records:
                fh.write(json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n")
        rep["sha256"], rep["records"] = _digest(rep["path"])
        failed, notes = runner.verify([rep], 0)
        # one for the pinned digest, one for the re-derived tau
        if failed < 2:
            problems.append(f"a changed tau gave failed {failed}: {notes}")
        print(f"self-test: one tau changed: failed {failed}")
        traced = Runner(root, "hw", "tiny", 1).campaign(
            "traced", ["--trace", os.path.join(runner.work, "spans.tsv")])
        if "layers" not in traced:
            raise BenchError(f"traced hw campaign failed: {traced.get('error')}")
        _, stray = _layer_metrics("half-mu", traced, traced["cal_wall_s"])
        if not stray:
            problems.append("hw's calls into cofinite.sumset passed the "
                            "half-mu layer map")
        print(f"self-test: hw traced against the half-mu map: {len(stray)} stray layers")
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "semitorsion", "cli.py")):
        print(f"bench: {root} has no src/semitorsion; run from a checkout root",
              file=sys.stderr)
        return 2
    try:
        if args.self_test:
            problems = self_test(root)
            for p in problems:
                print(f"self-test: FAIL {p}")
            print("self-test: " + ("FAIL" if problems else "PASS"))
            return 1 if problems else 0
        if args.workload is None:
            parser.error("--workload is required")
        result, lines = run_workload(root, args.workload, args.seed,
                                     args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
