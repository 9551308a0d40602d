"""One cold `semitorsion` call in a fresh interpreter.

    python3 child.py SRC [--trace SPANS_TSV] [--import-only] -- CLI-ARGS...

Puts SRC first on `sys.path`, imports `semitorsion.cli` and stamps
CLOCK_MONOTONIC (system-wide on Linux, so the parent can subtract its
own stamp taken before spawning). Then it runs `semitorsion.cli.main`
on CLI-ARGS with its stdout captured, probing the machine's speed as it
goes (`reference.py`), and prints one JSON line with the import stamp,
campaign wall and CPU time net of the probes, the speeds, peak RSS and
exit code. With
`--trace`, the layers are wrapped first (see `spans.py`), the spans are
written to SPANS_TSV and their per-layer summary is added to the line.
"""

import sys
import time

_SRC = sys.argv[1]
sys.path.insert(0, _SRC)
from semitorsion.cli import main  # noqa: E402

_READY = time.clock_gettime(time.CLOCK_MONOTONIC)

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402

import numpy  # noqa: E402
import semitorsion  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import reference  # noqa: E402


def _cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run(opts: list[str], cli_args: list[str]) -> dict:
    loaded = os.path.realpath(semitorsion.__file__)
    if not loaded.startswith(os.path.realpath(_SRC) + os.sep):
        raise SystemExit(f"child: imported semitorsion from {loaded}, "
                         f"not from {_SRC}")
    report = {"rc": 0, "ready": _READY, "python": platform.python_version(),
              "numpy": numpy.__version__}
    if "--import-only" in opts:
        return report
    tracer = None
    if "--trace" in opts:
        import spans
        tracer = spans.install()
    captured = io.StringIO()
    cpu0 = _cpu()
    t0 = time.perf_counter()
    with reference.Probe() as probe, contextlib.redirect_stdout(captured):
        rc = main(cli_args)
    wall = time.perf_counter() - t0
    cpu = _cpu() - cpu0
    probe_wall, probe_cpu = probe.spent()
    probes = probe.times + [reference.timed_kernel() for _ in range(
        reference.MIN_PROBES - len(probe.times))]
    report.update(
        rc=rc, wall_s=wall - probe_wall, cpu_s=cpu - probe_cpu,
        speed=reference.speed(probes), probes=len(probe.times),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        stdout=captured.getvalue())
    if tracer is not None:
        import semitorsion.search as search
        tracer.write(opts[opts.index("--trace") + 1])
        report["layers"] = tracer.summary()
        report["mask_cache_entries"] = len(getattr(search, "_MASK_TAU", ()))
    return report


if __name__ == "__main__":
    split = sys.argv.index("--")
    print(json.dumps(run(sys.argv[2:split], sys.argv[split + 1:])))
