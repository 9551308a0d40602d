"""Exhaustive and seeded verification campaigns over two-generated semigroups.

Campaigns enumerate coprime pairs (a, b) with b > a > 1 and a*b capped,
and for each semigroup, on bits, all canonical ideals: minimal generator
sets containing 0 drawn from a window [0, W). Torsion totals are shift
invariant, so anchoring the least generator at 0 loses nothing.

The torsion totals for the pair sweeps come from `torsion.TauEngine`:
the fiber edges of a whole batch of ideals, over every degree, are
packed into one Python int per generator pair, and the component
counter `_component_reps` runs on all of them at once. `oracle-compare`
checks the engine's profile of each sampled pair, its class count at
every degree of the scan window, against the flood fill's with one `==`.
The half-mu sweep calls the engine once per ideal of a semigroup, in mu
order, on it and every ideal after it, since tau and the support are
symmetric; each call's ideals are a suffix of the first call's, so the
engine packs them once. Every mode is a runner in `_MODE_RUNNERS`,
called as `runner(spec, *task)` per task: a pair (a, b), or for
`oracle-compare`, whose samples share one random stream, the one empty
task. It writes its own fixed-schema text and yields blocks: one per
ideal A in half-mu, one join of each pair's cell string, made once per
(support, tau) value, with the bound read off the row minima; one per
semigroup in dual and hw; one per 100 samples in oracle-compare, so a
long run streams. A block carries its text, record count, failed lines
and stats, folded in order. Every line is the one `json.dumps(record,
sort_keys=True, separators=(",", ":"))` gives. The spec and summary are
plain `SimpleNamespace`s, and only a pool imports `concurrent.futures`.
"""

from __future__ import annotations

import math
import os
import random
from functools import partial
from operator import add, getitem, index, sub
from types import SimpleNamespace
from typing import Iterable, Iterator

from .hypersurface import dual_formula, dual_symmetric
from .huneke_wiegand import hw_check_semigroup
from .ideals import RelativeIdeal, ideal_dual, make_ideal
from .semigroup import NumericalSemigroup, make_semigroup
from .torsion import TauEngine, torsion_profile


def coprime_pairs(ab_max: int) -> list[tuple[int, int]]:
    """All (a, b) with b > a > 1, gcd 1 and a*b <= ab_max, sorted."""
    out = []
    a = 2
    while a * (a + 1) <= ab_max:
        for b in range(a + 1, ab_max // a + 1):
            if math.gcd(a, b) == 1:
                out.append((a, b))
        a += 1
    return out


def canonical_ideal_gens(s: NumericalSemigroup, window: int,
                         mu_max: int) -> list[tuple[int, ...]]:
    """Minimal generator tuples (0, ...) with entries in [0, window).

    A tuple qualifies when no two entries differ by a semigroup member,
    which makes it the minimal generating set of the ideal it spans.
    They come depth first, in lexicographic order; `free` holds the next
    entry's candidates: bits above the last one not in the ideal so far.
    """
    window, mu_max = index(window), index(mu_max)
    if mu_max < 1:
        raise ValueError(f"mu_max must be at least 1, got {mu_max}")
    member = s.window(0, window)  # 0 for a window of width <= 0
    out: list[tuple[int, ...]] = []

    def extend(cur: tuple[int, ...], free: int) -> None:
        out.append(cur)
        if len(cur) == mu_max:
            return
        while free:
            g = (free & -free).bit_length() - 1
            free &= free - 1
            extend(cur + (g,), free & ~(member << g))

    extend((0,), member ^ ((1 << max(window, 0)) - 1))
    return out


class SearchSpec(SimpleNamespace):  # `search` takes its defaults from here
    def __init__(self, *, mode: str, ab_max: int = 35, gen_window: int = 0,
                 mu_max: int = 3, output_path: str | None = None,
                 parallelism: int = 1, seed: int = 0, samples: int = 200):
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}; choose from {MODES}")
        ab_max, gen_window, mu_max, parallelism, seed, samples = map(
            index, (ab_max, gen_window, mu_max, parallelism, seed, samples))
        for name, value, least in (
                ("ab_max", ab_max, 6), ("mu_max", mu_max, 1),
                ("parallelism (--jobs)", parallelism, 1),
                ("gen_window", gen_window, 0), ("samples", samples, 1)):
            if value < least:
                raise ValueError(f"{name} must be at least {least}, "
                                 f"got {value}")
        if output_path is not None:  # a bad path fails before the campaign
            output_path = os.fsdecode(output_path)
            if not output_path:
                raise ValueError("output_path (--out) must not be empty")
        super().__init__(mode=mode, ab_max=ab_max, gen_window=gen_window,
                         mu_max=mu_max, output_path=output_path,
                         parallelism=parallelism, seed=seed, samples=samples)

    def __reduce__(self):  # a pool worker gets the spec built, and checked
        return partial(SearchSpec, **vars(self)), ()

    def window_for(self, a: int, b: int) -> int:
        return self.gen_window if self.gen_window else a + b


class SearchSummary(SimpleNamespace):
    def __init__(self, mode: str):  # violations: the first 100 found
        super().__init__(mode=mode, records=0, violation_count=0,
                         violations=[], stats={})

    @property
    def ok(self) -> bool:
        return self.violation_count == 0


def _fold_stats(stats: dict, part: dict) -> None:
    """Fold `part` in: min_* keys keep the least value, others the greatest."""
    for key, value in part.items():
        if key in stats:
            value = (min if key.startswith("min_") else max)(stats[key], value)
        stats[key] = value


def _gens_key(gens: tuple[int, ...]) -> str:
    return ",".join(map(str, gens))


def _flag(value: bool) -> str:
    return "true" if value else "false"


Block = tuple[str, int, list[str], dict]


def _block(lines: list[str], oks: list[bool], stats: dict) -> Block:
    """A text block: the lines joined, their count, the lines whose
    bound_ok is false, and the stats of the work behind them."""
    return ("".join(lines), len(lines),
            [] if all(oks) else [x for x, ok in zip(lines, oks) if not ok],
            stats)


def _half_mu_records(spec: SearchSpec, a: int, b: int) -> Iterator[Block]:
    """Every ordered pair of non-principal ideals, one text block per ideal A.

    Engine call p, in mu order, gives row p's pairs (p, q >= p). A line
    is a head for A, a tail for B and a cell: one string per (support,
    tau) value, to the line's end. Row p reads its cells before p from
    the rows above it. Rows go out in canonical order of A, each one
    join with the stats of its engine call. While no row minimum is
    negative every line holds, else only the failing lines are rewritten.
    """
    s = make_semigroup((a, b))
    engine = TauEngine(s)
    canonical = [g for g in canonical_ideal_gens(s, spec.window_for(a, b),
                                                 spec.mu_max) if len(g) >= 2]
    if not canonical:
        return
    ideals = tuple(sorted(canonical, key=len))  # suffixes reuse one packing
    mus = [len(g) for g in ideals]
    uppers = [engine.tau_support_batch(ga, ideals[p:])  # (taus, supports)
              for p, ga in enumerate(ideals)]  # of the pairs (p, q >= p)
    tops = [max(ts) for ts, _ in uppers]
    ends = [f'{t}}}\n' for t in range(max(tops) + 1)]  # tau to the line's end
    values = {c: list(map(f'{c},"tau":'.__add__, ends))
              for c in set().union(*(cs for _, cs in uppers))}
    cells = [[values[c][t] for c, t in zip(cs, ts)] for ts, cs in uppers]
    row_stats, bound_ok = [], True  # bound_ok: no row minimum is negative
    for p, (ts, cs) in enumerate(uppers):
        mms = [mus[p] * mb for mb in mus[p:]]
        least = [min(map(sub, map(add, ts, x), mms)) for x in (ts, cs)]
        bound_ok = bound_ok and min(least) >= 0
        row_stats.append({"min_two_tau_minus_mu_mu": least[0],
                          "min_tau_plus_support_minus_mu_mu": least[1],
                          "max_tau": tops[p]})
    keys = [_gens_key(g) for g in ideals]
    tails = {mu_a: [f'"gens_B":"{key}","mu_A":{mu_a},"mu_B":{mb},"support":'
                    for key, mb in zip(keys, mus)] for mu_a in set(mus)}
    position = {g: p for p, g in enumerate(ideals)}
    parts = [""] * (3 * len(ideals))  # head, tail, cell per line
    for ga in canonical:
        p, mu_a = position[ga], len(ga)
        parts[::3] = [f'{{"a":{a},"b":{b},"bound_ok":true,'
                      f'"gens_A":"{keys[p]}",'] * len(ideals)
        parts[1::3] = tails[mu_a]
        # the pair (q, p) for q < p is cell p - q of row q
        parts[2:3 * p:3] = map(getitem, cells, range(p, 0, -1))
        parts[3 * p + 2::3] = cells[p]
        text = "".join(parts)
        if bound_ok:
            yield text, len(ideals), [], row_stats[p]
            continue
        ts, cs = ([row[k][p - q] for q, row in enumerate(uppers[:p])]
                  + uppers[p][k] for k in (0, 1))
        oks = [t + c >= mu_a * mb and 2 * t >= mu_a * mb
               for t, c, mb in zip(ts, cs, mus)]
        yield _block([line if ok else line.replace(
            '"bound_ok":true', '"bound_ok":false', 1) for line, ok in zip(
                text.splitlines(True), oks)], oks, row_stats[p])


def _dual_records(spec: SearchSpec, a: int, b: int) -> Iterator[Block]:
    s = make_semigroup((a, b))
    lines, oks = [], []
    for gens in canonical_ideal_gens(s, spec.window_for(a, b), spec.mu_max):
        ideal = make_ideal(s, gens)
        via_formula = dual_formula(ideal)
        via_scan = ideal_dual(ideal)
        via_reflection = dual_symmetric(ideal)
        routes_agree = (via_formula == via_scan == via_reflection)
        bidual_ok = dual_formula(via_formula) == ideal
        oks.append(routes_agree and bidual_ok)
        lines.append(f'{{"a":{a},"b":{b},"bidual_ok":{_flag(bidual_ok)},'
                     f'"bound_ok":{_flag(oks[-1])},'
                     f'"dual":"{_gens_key(via_formula.min_gens)}",'
                     f'"gens_A":"{_gens_key(gens)}",'
                     f'"routes_agree":{_flag(routes_agree)}}}\n')
    yield _block(lines, oks, {})


def _hw_records(spec: SearchSpec, a: int, b: int) -> Iterator[Block]:
    report = hw_check_semigroup(make_semigroup((a, b)))
    counts = list(report.per_gap.values())
    low, high = (min(counts), max(counts)) if counts else ("null", "null")
    ok = _flag(report.all_positive)
    yield _block([f'{{"a":{a},"all_positive":{ok},"b":{b},"bound_ok":{ok},'
                  f'"gap_count":{len(counts)},"max_count":{high},'
                  f'"min_count":{low}}}\n'], [report.all_positive],
                 {"min_count": low, "max_count": high} if counts else {})


def _oracle_compare_records(spec: SearchSpec) -> Iterator[Block]:
    """Seeded random pairs of ideals; on each, compare the engine's fiber
    class counts over the scan window with the flood fill of every fiber
    in it. A block holds 100 samples, so a long run streams."""
    rng = random.Random(spec.seed)
    pairs = coprime_pairs(spec.ab_max)
    cache: dict[tuple[int, int], tuple[TauEngine, list[RelativeIdeal]]] = {}
    lines, oks = [], []
    for n in range(1, spec.samples + 1):
        a, b = key = rng.choice(pairs)
        if key not in cache:
            s = make_semigroup(key)
            cache[key] = (TauEngine(s), [
                make_ideal(s, g) for g in canonical_ideal_gens(
                    s, spec.window_for(a, b), spec.mu_max)])
        engine, ideals = cache[key]
        ia, ib = rng.choice(ideals), rng.choice(ideals)
        profile = engine.profile(ia, ib)
        oks.append(profile == torsion_profile(ia, ib))  # every degree
        lo, hi = profile.window
        lines.append(f'{{"a":{a},"b":{b},"bound_ok":{_flag(oks[-1])},'
                     f'"fibers":{hi - lo + 1},'
                     f'"gens_A":"{_gens_key(ia.min_gens)}",'
                     f'"gens_B":"{_gens_key(ib.min_gens)}"}}\n')
        if n % 100 == 0 or n == spec.samples:
            yield _block(lines, oks, {})
            lines, oks = [], []


_MODE_RUNNERS = {
    "half-mu-bound": _half_mu_records,
    "dual-consistency": _dual_records,
    "hw": _hw_records,
    "oracle-compare": _oracle_compare_records,
}
MODES = tuple(_MODE_RUNNERS)


def _task_blocks(spec: SearchSpec, task: tuple) -> list[Block]:
    """A task's blocks as one list, for a pool worker to send back."""
    return list(_MODE_RUNNERS[spec.mode](spec, *task))


def run_search(spec: SearchSpec) -> SearchSummary:
    """Run a campaign, optionally writing one JSON line per record.

    Records are emitted in sorted input order regardless of worker
    scheduling, so identical specs produce identical files. They go to
    `<output_path>.part`, renamed into place after the last record; an
    error removes it and cancels the queued tasks. A dead worker raises
    ChildProcessError.
    """
    summary = SearchSummary(mode=spec.mode)
    tasks = ([()] if spec.mode == "oracle-compare"
             else coprime_pairs(spec.ab_max))
    part = f"{spec.output_path}.part"
    try:
        out = open(part, "w") if spec.output_path else None
    except OSError as exc:  # name the path asked for, not the part file
        raise OSError(exc.errno, exc.strerror, spec.output_path) from None
    pool, broken, done = None, (), False  # `except ()` catches nothing
    workers = min(spec.parallelism, len(tasks))  # every worker starts at once
    try:
        if workers > 1:
            import concurrent.futures as futures  # only a pool pays its 10 ms
            pool = futures.ProcessPoolExecutor(workers)
            broken = futures.BrokenExecutor
            chunks: Iterable = pool.map(partial(_task_blocks, spec), tasks)
        else:
            chunks = (_MODE_RUNNERS[spec.mode](spec, *task) for task in tasks)
        for blocks in chunks:
            for text, count, failed, stats in blocks:
                summary.records += count
                summary.violation_count += len(failed)
                for failure in failed[:100 - len(summary.violations)]:
                    import json  # only a failed bound is read back
                    summary.violations.append(json.loads(failure))
                if out is not None:
                    out.write(text)
                _fold_stats(summary.stats, stats)
        done = True
    except broken as exc:  # an OSError, as the run failed, not the maths
        raise ChildProcessError(f"a search worker died: {exc}") from None
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=not done)
        if out is not None:
            out.close()
            if done:
                try:
                    os.replace(part, spec.output_path)
                except OSError as exc:  # as for open: name the path asked for
                    os.remove(part)
                    raise OSError(exc.errno, exc.strerror,
                                  spec.output_path) from None
            else:
                os.remove(part)
    return summary
