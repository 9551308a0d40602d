"""Outside-in tracing of semitorsion's layers for the benchmark.

`install()` wraps each layer's public entry point at every namespace
that calls it: the module globals that bind the function (for example
`semitorsion.search.make_ideal` and `semitorsion.hypersurface.make_ideal`)
or the class attribute for a method (`CofiniteSet.sumset`). Each call
records one span (layer, start, end, parent) in flat arrays held in
memory; `Tracer.write` dumps them once the campaign is over. Nothing in
the package itself is edited, so untraced runs execute the same code.

`semigroup.contains` (millions of calls per campaign) is not wrapped:
the wrapper would cost more than the call.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from typing import Any, Callable


def _engine_fibers(args: tuple, result: Any) -> int:
    # TauEngine.tau_support_batch(self, ga, gbs): every gb is evaluated on
    # the batch's shared z-window, so the work is len(gbs) * window.
    engine, ga, gbs = args[0], args[1], args[2]
    lo = ga[0] + min(gb[0] for gb in gbs)
    hi = engine.f + ga[-1] + max(gb[-1] for gb in gbs)
    return len(gbs) * max(0, hi - lo + 1)


def _count_result(args: tuple, result: Any) -> int:
    return len(result)


def _head_pairs(args: tuple, result: Any) -> int:
    return len(args[0].below) * len(args[1].below)


def _edges(args: tuple, result: Any) -> int:
    return len(result.edges)


class _JsonProxy:
    """Stands in for the `json` module inside `semitorsion.search`."""

    def __init__(self, dumps: Callable):
        self.dumps = dumps

    def __getattr__(self, name: str) -> Any:
        return getattr(json, name)


class Tracer:
    """Spans of wrapped calls, in flat arrays indexed by span id."""

    def __init__(self) -> None:
        self.layers: list[str] = []
        self.layer = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.work: dict[str, int] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable,
             work: Callable[[tuple, Any], int] | None = None) -> Callable:
        lid = len(self.layers)
        self.layers.append(name)
        self.work[name] = 0
        layer, parent, start, end = self.layer, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter
        totals = self.work

        def traced(*args, **kwargs):
            sid = len(start)
            layer.append(lid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if work is not None:
                totals[name] += work(args, result)
            return result

        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, inclusive seconds, self seconds, work count.

        Self time is a span's duration minus that of its direct children.
        """
        n = len(self.start)
        child = [0.0] * n
        for sid in range(n):
            p = self.parent[sid]
            if p >= 0:
                child[p] += self.end[sid] - self.start[sid]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0,
                      "work": self.work[name]} for name in self.layers}
        for sid in range(n):
            row = out[self.layers[self.layer[sid]]]
            dur = self.end[sid] - self.start[sid]
            row["calls"] += 1
            row["s"] += dur
            row["self_s"] += dur - child[sid]
        return out

    def write(self, path: str) -> None:
        """One tab-separated line per span: id, layer, parent, start, end."""
        with open(path, "w") as fh:
            fh.write("id\tlayer\tparent\tstart\tend\n")
            for sid in range(len(self.start)):
                fh.write(f"{sid}\t{self.layers[self.layer[sid]]}\t"
                         f"{self.parent[sid]}\t{self.start[sid]!r}\t"
                         f"{self.end[sid]!r}\n")


def _patch_globals(original: Callable, replacement: Callable) -> int:
    """Rebind `original` in every loaded semitorsion module; returns count."""
    hits = 0
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "semitorsion"
                                  or modname.startswith("semitorsion.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                hits += 1
    return hits


def install() -> Tracer:
    """Wrap every traced entry point; call after `import semitorsion.cli`."""
    import semitorsion.search as search
    from semitorsion import (cofinite, huneke_wiegand, hypersurface, ideals,
                             semigroup, torsion)

    tracer = Tracer()
    functions = [
        ("search.enumerate", search.canonical_ideal_gens, _count_result),
        ("search.records", search.run_search, None),
        ("ideals.make_ideal", ideals.make_ideal, None),
        ("ideals.dual", ideals.ideal_dual, None),
        ("hypersurface.dual_formula", hypersurface.dual_formula, None),
        ("hypersurface.dual_symmetric", hypersurface.dual_symmetric, None),
        ("huneke_wiegand.irreducible_triples",
         huneke_wiegand.irreducible_triples, None),
        ("semigroup.make", semigroup.make_semigroup, None),
        ("torsion.fiber_graph", torsion.fiber_graph, _edges),
        ("torsion.fiber_class_count", torsion.fiber_class_count, None),
    ]
    for name, fn, work in functions:
        if _patch_globals(fn, tracer.wrap(name, fn, work)) == 0:
            raise RuntimeError(f"no semitorsion namespace binds {name}")
    methods = [
        ("search.engine", search.TauEngine, "tau_support_batch",
         _engine_fibers),
        ("cofinite.sumset", cofinite.CofiniteSet, "sumset", _head_pairs),
        ("cofinite.difference", cofinite.CofiniteSet, "difference", None),
    ]
    for name, cls, attr, work in methods:
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), work))
    search.json = _JsonProxy(tracer.wrap("search.serialize", json.dumps))
    return tracer
