"""A fixed reference kernel that gauges the machine's current speed.

On a shared host the speed of the same Python code drifts by tens of
percent within seconds and between minutes. So every benchmark child
measures the speed while it works: `Probe` runs the kernel (about
2.5 ms) from a SIGALRM handler every `PERIOD_S` seconds of a campaign,
and `speed` turns the kernel's times into the machine's mean speed over
that stretch, relative to `NOMINAL_S`. The harness multiplies a measured
time by that speed, which gives the time the work would have taken at
one fixed machine speed (see NOTES.md).

The kernel never touches semitorsion, so no change to the package can
move it. It mixes what the campaigns spend their time on: small-int
arithmetic, dict and set updates, sorting, `json.dumps` of small dicts
and short numpy array operations.
"""

from __future__ import annotations

import gc
import json
import signal
import statistics
import time

import numpy as np

# Kernel time, in seconds, on a quiet 2-core Xeon at 2.1 GHz. It sets the
# scale of the calibrated times and cancels when two runs are compared.
NOMINAL_S = 0.0025
PERIOD_S = 0.05   # campaign time between two probes
MIN_PROBES = 8    # kernel calls a speed is taken from, at least

_N = 2000
_X = np.arange(256, dtype=np.int64)


def kernel() -> int:
    seen: set[int] = set()
    counts: dict[int, int] = {}
    rows: list[str] = []
    acc = 0
    for i in range(_N):
        k = (i * 2654435761) % 1009
        counts[k] = counts.get(k, 0) + 1
        if k & 1:
            seen.add(k // 3)
        acc += k * k % 97
        if i % 8 == 0:
            rows.append(json.dumps({"a": k, "b": i, "ok": bool(k & 2)},
                                   sort_keys=True, separators=(",", ":")))
        if i % 32 == 0:
            acc += int(((_X + k) % 7 == 0).sum())
    acc += len(sorted(counts.items(), key=lambda kv: -kv[1]))
    return acc + len(seen) + len(rows)


def timed_kernel() -> tuple[float, float]:
    """(wall, cpu) seconds of one kernel call, with the cyclic garbage
    collector held off so that none of the caller's garbage is charged
    to the kernel."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        w0, c0 = time.perf_counter(), time.process_time()
        kernel()
        return time.perf_counter() - w0, time.process_time() - c0
    finally:
        if was_enabled:
            gc.enable()


def speed(times: list[tuple[float, float]]) -> dict[str, float]:
    """Mean machine speed relative to nominal, by wall and by CPU time.

    Probes fall evenly in time, so the mean of NOMINAL_S / t is the mean
    speed over the stretch they sample: a time t measured over it,
    multiplied by this, is the time at nominal speed.
    """
    return {"wall": statistics.fmean(NOMINAL_S / w for w, _ in times),
            "cpu": statistics.fmean(NOMINAL_S / max(c, 1e-6) for _, c in times)}


class Probe:
    """Times the kernel every PERIOD_S seconds of wall time inside the
    `with` block; `times` holds each call's (wall, cpu) seconds, and
    their sums are to be subtracted from the block's own times."""

    def __init__(self) -> None:
        self.times: list[tuple[float, float]] = []

    def _tick(self, signum, frame) -> None:
        self.times.append(timed_kernel())

    def __enter__(self) -> Probe:
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def spent(self) -> tuple[float, float]:
        return sum(w for w, _ in self.times), sum(c for _, c in self.times)
