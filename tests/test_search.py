import collections
import concurrent.futures
import functools
import itertools
import json
import math
import multiprocessing.process
import random
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import semitorsion.hypersurface as hypersurface
import semitorsion.ideals as ideals
import semitorsion.search as search
import semitorsion.semigroup as semigroup
import semitorsion.torsion as torsion

from semitorsion import (SearchSpec, TauEngine, canonical_ideal_gens,
                         coprime_pairs, ideal_shift, make_ideal,
                         make_semigroup, run_search, torsion_profile)
from semitorsion.torsion import _lane_counts

from conftest import Index


def written_records(path) -> list[dict]:
    """The records of a stream; every line must be the bytes json.dumps
    gives the record with sorted keys."""
    lines = path.read_text().splitlines(keepends=True)
    records = [json.loads(line) for line in lines]
    for line, record in zip(lines, records):
        assert line == json.dumps(record, sort_keys=True,
                                  separators=(",", ":")) + "\n"
    return records


class TestEnumeration:
    def test_coprime_pairs(self):
        pairs = coprime_pairs(15)
        assert pairs == [(2, 3), (2, 5), (2, 7), (3, 4), (3, 5)]
        for a, b in coprime_pairs(80):
            assert b > a > 1 and math.gcd(a, b) == 1 and a * b <= 80

    def test_canonical_ideals_are_minimal(self):
        s = make_semigroup([4, 7])
        gens = canonical_ideal_gens(s, 11, 4)
        assert (0,) in gens
        assert len(set(gens)) == len(gens)
        for g in gens:
            assert g[0] == 0 and len(g) <= 4 and all(x < 11 for x in g)
            assert semigroup.minimal_generators_of_set(
                s, make_ideal(s, g).set) == g

    def test_canonical_ideals_complete(self):
        # every minimal tuple through the window shows up
        s = make_semigroup([3, 5])
        got = set(canonical_ideal_gens(s, 8, 2))
        expected = {(0,)} | {
            (0, i) for i in range(1, 8) if i not in s
        }
        assert got == expected

    @pytest.mark.parametrize("mu_max", [0, -1])
    def test_canonical_ideals_refuse_no_cap(self, mu_max):
        # no tuple has fewer than one entry, so a cap below 1 went unread
        with pytest.raises(ValueError, match="mu_max must be at least 1"):
            canonical_ideal_gens(make_semigroup([5, 7]), 12, mu_max)

    @pytest.mark.parametrize("gens", [(3, 5), (4, 7), (5, 6, 7, 8)])
    @pytest.mark.parametrize("mu_max", [1, 2, 3, 4])
    def test_canonical_ideals_match_brute_force(self, gens, mu_max):
        # same tuples in the same (lexicographic) order, over windows
        # from empty to twice a + b
        s = make_semigroup(gens)
        span = gens[0] + gens[1]
        for window in (-1, 0, 1, 2, span, 2 * span):
            expected = sorted(
                (0,) + c for k in range(mu_max)
                for c in itertools.combinations(range(1, window), k)
                if not any(y - x in s for x, y in
                           itertools.combinations((0,) + c, 2)))
            assert canonical_ideal_gens(s, window, mu_max) == expected


@st.composite
def ideal_batches(draw):
    """A semigroup, a ga and a list of gbs of mixed lengths, with first
    generators anywhere (not anchored at 0)."""
    gens = draw(st.lists(st.integers(2, 9), min_size=1, max_size=3))
    s = make_semigroup(gens + [max(gens) + 1])
    tuples = st.lists(st.integers(-6, 12), min_size=1, max_size=4).map(
        lambda g: make_ideal(s, g).min_gens)
    return s, draw(tuples), draw(st.lists(tuples, min_size=1, max_size=6))


class CountingEngine(TauEngine):
    """A TauEngine that counts its packings."""

    packs = 0

    def _pack(self, gbs, spread):
        self.packs += 1
        return super()._pack(gbs, spread)


class TestTauEngine:
    @given(ideal_batches())
    # ga spreads further than every gb, so the lanes take their room
    # for the shift from ga
    @example((make_semigroup([3, 4]), (1, 6), [(0, 1), (-6, -4)]))
    @settings(max_examples=80, deadline=None)
    def test_mixed_lengths_and_suffixes(self, batch):
        s, ga, gbs = batch
        expected = []
        for gb in gbs:
            profile = torsion_profile(make_ideal(s, ga), make_ideal(s, gb))
            expected.append((profile.total, profile.support_size))
        # mixed lengths, shorter tuples padded, in lanes wide enough for
        # ga and for every gb as a left side: the full call packs them,
        # and every suffix after it reads the same lanes
        engine = CountingEngine(s)
        for k in range(len(gbs) + 1):
            taus = engine.tau_support_batch(ga, gbs[k:])
            assert list(zip(*taus)) == expected[k:], k
            assert taus == TauEngine(s).tau_support_batch(ga, gbs[k:]), k
        assert engine.packs == 1
        assert list(zip(*engine.tau_support_batch(ga, gbs[::2]))) == \
            expected[::2]

    def test_calls_off_the_packing_match_a_fresh_engine(self):
        # after a packing, a ga wider than its spread, tuples that are
        # not a suffix of it, and no tuples at all: each call gets the
        # answer of a fresh engine and the flood fill, and the first two
        # pack again
        s = make_semigroup([3, 4])
        gbs = [(0, 1), (-6, -4), (2, 3)]
        engine = CountingEngine(s)
        engine.tau_support_batch((0, 1), gbs)  # lanes for a spread of 2
        for ga, group in (((1, 6), gbs), ((0, 1), [(-6, -4), (0, 1)]),
                          ((1, 6), [])):
            found = engine.tau_support_batch(ga, group)
            assert found == TauEngine(s).tau_support_batch(ga, group), group
            assert list(zip(*found)) == [
                (p.total, p.support_size) for p in
                (torsion_profile(make_ideal(s, ga), make_ideal(s, gb))
                 for gb in group)], group
        assert engine.packs == 3

    @pytest.mark.parametrize("call", [
        lambda e, bad: e.tau_support_batch(bad, [(0, 9), (0, 1)]),
        lambda e, bad: e.tau_support_batch((0, 1), [(0, 1), bad]),
    ], ids=["tau_support_batch", "pack"])
    def test_unsorted_tuple_raises(self, call):
        # (8, 15, 9) would understate its spread as 1, the room its
        # shifts need in a lane; () has no generator to anchor a lane.
        # Integers come in through operator.index, as plain ints
        engine = TauEngine(make_semigroup([5, 12]))
        gbs = [(0, 9), (0, 1), (2, 15), (3, 6, 14)]
        assert engine.tau_support_batch((8, 9, 15), gbs)[0] == [13, 21, 11, 18]
        with pytest.raises(ValueError,
                           match=r"^\(8, 15, 9\) is not strictly ascending$"):
            call(engine, (8, 15, 9))
        with pytest.raises(ValueError, match=r"^\(0, 0\) is not strictly"):
            call(engine, (0, 0))
        with pytest.raises(ValueError, match="must not be empty"):
            call(engine, ())
        assert call(engine, tuple(map(Index, (8, 9, 15)))) == \
            call(TauEngine(make_semigroup([5, 12])), (8, 9, 15))

    @pytest.mark.parametrize("gens,window,extra", [
        ((5, 7), 8, [(-6, -4), (-3, 2, 6)]),  # 248-bit lanes
        ((11, 29), 5, [(-2, 9)]),  # 368-bit lanes
    ], ids=["5-7", "11-29"])
    def test_one_table_serves_every_call(self, gens, window, extra):
        # as in half-mu, the left tuples run in ascending mu, ideal p on
        # the tuples from p on first, so a longer tuple adds its
        # differences to the table at a suffix's offset; every suffix on
        # from p must equal a fresh engine and the flood fill, and the
        # one-lane profile of each pair the fill's class counts
        s = make_semigroup(gens)
        engine = CountingEngine(s)
        gbs = sorted(canonical_ideal_gens(s, window, 3)
                     + [make_ideal(s, g).min_gens for g in extra], key=len)
        expected = {}
        for ga in gbs:
            for gb in gbs:
                a, b = make_ideal(s, ga), make_ideal(s, gb)
                profile = torsion_profile(a, b)
                expected[ga, gb] = profile.total, profile.support_size
                assert engine.profile(a, b) == profile, (ga, gb)
        assert any(tau for tau, _ in expected.values())
        for p, ga in enumerate(gbs):
            for k in range(p, len(gbs) + 1):
                found = engine.tau_support_batch(ga, gbs[k:])
                assert list(zip(*found)) == [
                    expected[ga, gb] for gb in gbs[k:]], (ga, k)
                assert found == TauEngine(s).tau_support_batch(
                    ga, gbs[k:]), (ga, k)
        stride = engine._packed[2]
        assert (stride > 248) == (gens == (11, 29)), stride
        assert engine.packs == 1

    def test_campaign_pack_counts(self, monkeypatch):
        # half-mu packs each semigroup's ideals once; oracle-compare
        # builds its one lane per pair without a packing
        engines = []

        def counting(s):
            engines.append(CountingEngine(s))
            return engines[-1]

        monkeypatch.setattr(search, "TauEngine", counting)
        run_search(SearchSpec(mode="oracle-compare", ab_max=30, mu_max=3,
                              samples=20))
        assert engines and [e.packs for e in engines] == [0] * len(engines)
        engines.clear()
        run_search(SearchSpec(mode="half-mu-bound", ab_max=20))
        expected = {(a, b): int(any(
            len(g) >= 2 for g in canonical_ideal_gens(
                make_semigroup((a, b)), a + b, 3)))
            for a, b in coprime_pairs(20)}
        assert {e.s.generators: e.packs for e in engines} == expected
        assert sum(expected.values()) > 0

    @pytest.mark.parametrize("a,b", [(2, 5), (3, 4), (3, 7), (4, 5), (5, 6)])
    def test_agrees_with_profile(self, a, b):
        s = make_semigroup([a, b])
        engine = TauEngine(s)
        ideals = [make_ideal(s, g) for g in canonical_ideal_gens(s, a + b, 3)]
        for ia in ideals:
            for ib in ideals:
                profile = torsion_profile(ia, ib)
                assert engine.profile(ia, ib) == profile, (ia, ib)

    def test_batch_grouping(self):
        s = make_semigroup([5, 7])
        engine, a = TauEngine(s), make_ideal(s, (0, 1, 3))
        # the second batch has different first generators and spreads,
        # so each lane's fibers sit at their own offset in the window
        for group in ([(0, 1), (0, 2), (0, 11)], [(-2, 1), (0, 3), (5, 6)]):
            taus, supports = engine.tau_support_batch((0, 1, 3), group)
            for gb, t, c in zip(group, taus, supports):
                single = engine.profile(a, make_ideal(s, gb))
                assert (t, c) == (single.total, single.support_size), gb
                profile = torsion_profile(a, make_ideal(s, gb))
                assert (int(t), int(c)) == (profile.total,
                                            profile.support_size), gb

    @pytest.mark.parametrize("a,b,mu_a,mu_b", [
        (9, 10, 9, 8), (9, 10, 9, 9), (11, 12, 10, 11), (11, 13, 11, 11)])
    def test_wide_masks_agree_with_profile(self, a, b, mu_a, mu_b):
        # mu_A * mu_B > 64 edge bits no longer fit one int64 mask
        s = make_semigroup([a, b])
        engine = TauEngine(s)
        ga = tuple(range(mu_a))
        group = [tuple(range(mu_b)), tuple(range(a - mu_b, a))]
        taus, supports = engine.tau_support_batch(ga, group)
        for gb, t, c in zip(group, taus, supports):
            profile = torsion_profile(make_ideal(s, ga), make_ideal(s, gb))
            assert (int(t), int(c)) == (profile.total, profile.support_size), gb

    @pytest.mark.parametrize("lanes", [1, 2, 7, 64])
    def test_lane_counts_exact(self, lanes):
        # both sides of the switch at 248 bits: all-ones lanes make the
        # byte sums as large as they get, 8 per byte
        rng = random.Random(lanes)
        for stride in range(8, 321, 8):
            mask, n = (1 << stride) - 1, stride * lanes
            for bits in ((1 << n) - 1, rng.getrandbits(n) | rng.getrandbits(n)):
                expected = [(bits >> i * stride & mask).bit_count()
                            for i in range(lanes)]
                assert list(_lane_counts(bits, lanes, stride)) == expected, \
                    stride

    def test_wide_lanes_agree_with_profile(self):
        # F = 279: lanes wider than the 248 bits of the one-multiply count
        s = make_semigroup([11, 29])
        engine = TauEngine(s)
        ga, gbs = (0, 12, 35), canonical_ideal_gens(s, 11, 3)
        expected = []
        for gb in gbs:
            profile = torsion_profile(make_ideal(s, ga), make_ideal(s, gb))
            expected.append((profile.total, profile.support_size))
        for k in range(len(gbs) + 1):
            found = engine.tau_support_batch(ga, gbs[k:])
            assert engine._packed[2] == 368  # the packing's stride
            assert list(zip(*found)) == expected[k:], k
            assert found == TauEngine(s).tau_support_batch(ga, gbs[k:]), k

    @pytest.mark.parametrize("gens", [(5, 7), (11, 29)])
    @pytest.mark.parametrize("ga", [(0,), (0, 1), (0, 1, 2, 3)])
    def test_stacked_counts_agree_with_profile(self, gens, ga):
        # one lane count over every extra rep and their union, end to end:
        # none for a principal ga, three for four generators, on both
        # sides of the 248-bit switch, over every suffix down to the empty
        s = make_semigroup(gens)
        engine = TauEngine(s)
        gbs = canonical_ideal_gens(s, 8, 3)
        expected = []
        for gb in gbs:
            profile = torsion_profile(make_ideal(s, ga), make_ideal(s, gb))
            expected.append((profile.total, profile.support_size))
        assert any(tau for tau, _ in expected) == (len(ga) > 1), expected
        for k in range(len(gbs) + 1):
            found = engine.tau_support_batch(ga, gbs[k:])
            assert list(zip(*found)) == expected[k:], k
            assert found == TauEngine(s).tau_support_batch(ga, gbs[k:]), k
        stride = engine._packed[2]  # the packing's
        assert (stride > 248) == (gens == (11, 29)), stride

    def test_empty_batch(self):
        # no tuples, before a packing and past its last lane, count nothing
        engine = CountingEngine(make_semigroup([2, 3]))
        assert engine.tau_support_batch((0, 1), []) == ([], [])
        gbs = ((0,), (0, 1))
        assert engine.tau_support_batch((0, 1), gbs) == ([0, 2], [0, 2])
        assert engine.tau_support_batch((0, 1), gbs[2:]) == ([], [])
        assert engine.packs == 1

    def test_non_canonical_tuples(self):
        s = make_semigroup([5, 7])
        engine = TauEngine(s)
        for ga, gb in [((-4, -3), (-2, 1)), ((17, 21, 25), (0, 3, 4)),
                       ((-4, -3), (0, 1, 3))]:
            a, b = make_ideal(s, ga), make_ideal(s, gb)
            assert engine.profile(a, b) == torsion_profile(a, b), (ga, gb)


class TestSpec:
    def test_mode_validation(self):
        with pytest.raises(ValueError):
            SearchSpec(ab_max=20, mode="nonsense")
        with pytest.raises(ValueError):
            SearchSpec(ab_max=4, mode="hw")
        spec = SearchSpec(ab_max=20, mode="hw")
        assert spec.window_for(3, 5) == 8
        assert SearchSpec(ab_max=20, mode="hw", gen_window=6).window_for(3, 5) == 6

    @pytest.mark.parametrize("field,value", [
        ("ab_max", 20), ("gen_window", 6), ("mu_max", 2),
        ("parallelism", 2), ("seed", 3), ("samples", 5)])
    def test_integer_fields(self, field, value):
        # a float would reach `range`, the pool or the seed of a stream
        with pytest.raises(TypeError):
            SearchSpec(mode="oracle-compare", **{field: value + 0.5})
        spec = SearchSpec(mode="oracle-compare", **{field: Index(value)})
        assert type(getattr(spec, field)) is int
        assert vars(spec) == vars(SearchSpec(mode="oracle-compare",
                                             **{field: value}))


class TestRunSearch:
    def test_half_mu_counts_and_summary(self, tmp_path):
        # the stats each block carries fold to the extremes of the records
        out = tmp_path / "half_mu.jsonl"
        summary = run_search(SearchSpec(ab_max=20, mode="half-mu-bound",
                                        mu_max=3, output_path=str(out)))
        records = written_records(out)
        assert summary.ok and summary.violation_count == 0
        assert summary.records == len(records) > 0
        assert summary.stats["min_two_tau_minus_mu_mu"] >= 0
        assert summary.stats["min_tau_plus_support_minus_mu_mu"] >= 0
        assert summary.stats == {
            "max_tau": max(r["tau"] for r in records),
            "min_two_tau_minus_mu_mu": min(
                2 * r["tau"] - r["mu_A"] * r["mu_B"] for r in records),
            "min_tau_plus_support_minus_mu_mu": min(
                r["tau"] + r["support"] - r["mu_A"] * r["mu_B"]
                for r in records)}

    def test_dual_consistency(self, tmp_path):
        out = tmp_path / "dual.jsonl"
        summary = run_search(SearchSpec(ab_max=20, mode="dual-consistency",
                                        mu_max=3, output_path=str(out)))
        records = written_records(out)
        assert summary.ok and summary.records == len(records) > 0
        assert all(r["bound_ok"] for r in records)

    def test_dual_gate_bites(self, monkeypatch, tmp_path):
        # a route off by a shift must fail every record, and the kept
        # violations must be the lines written, in json.dumps form; the
        # formula route shifted down writes negative dual generators
        out = tmp_path / "dual.jsonl"
        for route, shift in (("dual_symmetric", 1), ("dual_formula", -3)):
            true_route = getattr(search, route)
            monkeypatch.setattr(search, route, lambda ideal, f=true_route,
                                by=shift: ideal_shift(f(ideal), by))
            summary = run_search(SearchSpec(ab_max=20, mode="dual-consistency",
                                            mu_max=2, output_path=str(out)))
            monkeypatch.undo()
            records = written_records(out)
            assert summary.records == len(records) > 0
            assert summary.violation_count == summary.records
            assert summary.violations == records[:100] and not summary.ok
            assert not any(r["routes_agree"] or r["bound_ok"]
                           for r in records), route
        assert any(r["dual"].startswith("-") for r in records)

    def test_dual_scans_generators_on_demand(self, monkeypatch):
        # a record reads the minimal generators of two ideals only: the
        # ideal's (for the formula and the scan) and the formula dual's
        # (for the record and the bidual); the scan and reflection duals
        # and the bidual compare by set. `make_ideal` keeps both, since
        # the canonical tuple and the formula's output are minimal as
        # given, so only each semigroup scans its own.
        calls = collections.Counter()

        def counted(name, f):
            def call(*args):
                calls[name] += 1
                return f(*args)
            return call

        scan = counted("scans", semigroup.minimal_generators_of_set)
        for module in (semigroup, ideals):
            monkeypatch.setattr(module, "minimal_generators_of_set", scan)
        monkeypatch.setattr(semigroup, "_cached", functools.lru_cache(
            counted("semigroups", semigroup.NumericalSemigroup)))
        make = counted("makes", ideals.make_ideal)
        for module in (search, hypersurface):
            monkeypatch.setattr(module, "make_ideal", make)
        summary = run_search(SearchSpec(ab_max=30, mode="dual-consistency",
                                        mu_max=2))
        records = summary.records
        assert summary.ok and records == 87
        assert calls["semigroups"] == len(coprime_pairs(30))
        scans_per_record, makes_per_record = 0, 3
        assert calls["scans"] == (scans_per_record * records
                                  + calls["semigroups"]), calls
        assert calls["makes"] == makes_per_record * records, calls

    def test_hw(self, tmp_path):
        out = tmp_path / "hw.jsonl"
        summary = run_search(SearchSpec(ab_max=20, mode="hw",
                                        output_path=str(out)))
        records = written_records(out)
        assert summary.ok and all(r["bound_ok"] for r in records)
        assert summary.records == len(records) == len(coprime_pairs(20))
        assert summary.stats["min_count"] >= 1
        assert summary.stats == {
            "min_count": min(r["min_count"] for r in records),
            "max_count": max(r["max_count"] for r in records)}

    def test_oracle_compare(self, tmp_path):
        out = tmp_path / "oracle.jsonl"
        summary = run_search(SearchSpec(ab_max=20, mode="oracle-compare",
                                        mu_max=3, samples=25, seed=11,
                                        output_path=str(out)))
        records = written_records(out)
        assert summary.ok and all(r["bound_ok"] for r in records)
        assert summary.records == len(records) == 25

    def test_oracle_catches_one_bad_degree(self, monkeypatch, tmp_path):
        # a flood fill off by one at the top degree of each window only:
        # a comparison that skips the last degree would miss every one
        true_count = torsion.fiber_class_count

        def off_at_top(a, b, lo, hi):
            counts = true_count(a, b, lo, hi)
            counts[-1] += 1  # the window's top degree
            return counts

        monkeypatch.setattr(torsion, "fiber_class_count", off_at_top)
        out = tmp_path / "oracle.jsonl"
        # 201 samples cross the 100-record block edge twice
        for samples in (25, 201):
            summary = run_search(SearchSpec(ab_max=20, mode="oracle-compare",
                                            mu_max=3, samples=samples,
                                            seed=11, output_path=str(out)))
            records = written_records(out)
            assert len(records) == summary.records == samples
            assert not any(r["bound_ok"] for r in records)
            assert summary.violation_count == samples and not summary.ok
            assert summary.violations == records[:100]

    def test_oracle_catches_broken_engine(self, monkeypatch, tmp_path):
        # oracle-compare checks the engine's own lanes: reps that lose
        # each lane's top degree must be flagged
        true_reps = TauEngine._reps

        def top_dropped(self, ga, *args):
            # profile asks for one lane, so the top bit of `keep`,
            # the last argument, is it
            return [rep & ~((args[-1] + 1) >> 1)
                    for rep in true_reps(self, ga, *args)]

        monkeypatch.setattr(TauEngine, "_reps", top_dropped)
        out = tmp_path / "oracle.jsonl"
        summary = run_search(SearchSpec(ab_max=20, mode="oracle-compare",
                                        mu_max=3, samples=25, seed=11,
                                        output_path=str(out)))
        records = [json.loads(line) for line in out.read_text().splitlines()]
        flagged = [r for r in records if not r["bound_ok"]]
        assert len(records) == summary.records == 25
        assert flagged and summary.violation_count == len(flagged)
        assert summary.violations == flagged and not summary.ok

    def test_deterministic_output(self, tmp_path):
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for p in paths:
            run_search(SearchSpec(ab_max=18, mode="half-mu-bound", mu_max=3,
                                  output_path=str(p)))
        assert paths[0].read_bytes() == paths[1].read_bytes()
        first = json.loads(paths[0].read_text().splitlines()[0])
        assert set(first) == {"a", "b", "gens_A", "gens_B", "tau", "support",
                              "mu_A", "mu_B", "bound_ok"}

    def test_oracle_deterministic(self, tmp_path):
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for p in paths:
            run_search(SearchSpec(ab_max=18, mode="oracle-compare", mu_max=3,
                                  samples=10, seed=3, output_path=str(p)))
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_parallel_matches_serial(self, tmp_path):
        # one driver for every mode; oracle-compare has one task, so its
        # --jobs 2 run stays in-process
        serial = tmp_path / "serial.jsonl"
        parallel = tmp_path / "parallel.jsonl"
        for mode in search.MODES:
            runs = [run_search(SearchSpec(ab_max=18, mode=mode, mu_max=3,
                                          parallelism=jobs, samples=30,
                                          output_path=str(path)))
                    for jobs, path in ((1, serial), (2, parallel))]
            assert serial.read_bytes() == parallel.read_bytes(), mode
            assert runs[0] == runs[1] and runs[0].records > 0, mode

    def test_failed_run_leaves_output_alone(self, monkeypatch, tmp_path):
        # the runner fails on the fourth semigroup, after three records
        true_runner = search._MODE_RUNNERS["hw"]

        def failing(spec, a, b):
            if (a, b) == (3, 4):
                raise RuntimeError("runner failed")
            yield from true_runner(spec, a, b)

        monkeypatch.setitem(search._MODE_RUNNERS, "hw", failing)
        fresh, kept = tmp_path / "fresh.jsonl", tmp_path / "kept.jsonl"
        kept.write_bytes(b'{"earlier":"run"}\n')
        for path in (fresh, kept):
            with pytest.raises(RuntimeError, match="runner failed"):
                run_search(SearchSpec(ab_max=15, mode="hw",
                                      output_path=str(path)))
        assert not fresh.exists()
        assert kept.read_bytes() == b'{"earlier":"run"}\n'
        assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.jsonl"]

    def test_error_terminates_pool(self, monkeypatch, tmp_path):
        # leaving by an exception must not wait for the queued tasks
        calls = []

        class RecordingExecutor(concurrent.futures.ProcessPoolExecutor):
            def shutdown(self, wait=True, *, cancel_futures=False):
                calls.append(cancel_futures)
                super().shutdown(wait, cancel_futures=cancel_futures)

        def broken(s):
            raise RuntimeError("report failed")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            RecordingExecutor)
        out = tmp_path / "hw.jsonl"
        summary = run_search(SearchSpec(ab_max=40, mode="hw", parallelism=2,
                                        output_path=str(out)))
        assert summary.ok and calls == [False]
        # the pool forks, so its workers inherit the patch
        monkeypatch.setattr(search, "hw_check_semigroup", broken)
        with pytest.raises(RuntimeError, match="report failed"):
            run_search(SearchSpec(ab_max=40, mode="hw", parallelism=2,
                                  output_path=str(out)))
        assert calls == [False, True]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["hw.jsonl"]

    def test_pool_sized_to_tasks(self, monkeypatch):
        # a fork pool starts all of its workers on the first submit, so
        # it must be no wider than the task list; the fake maps in
        # process, and starting any process at all fails the test
        sizes = []

        class InlineExecutor:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def map(self, fn, *iterables):
                return map(fn, *iterables)

            def shutdown(self, wait=True, *, cancel_futures=False):
                pass

        def refuse(process):
            raise AssertionError(f"started {process!r}")

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                            refuse)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            InlineExecutor)
        wide = run_search(SearchSpec(ab_max=20, mode="hw", parallelism=64))
        assert sizes == [len(coprime_pairs(20))] == [7]
        assert wide == run_search(SearchSpec(ab_max=20, mode="hw"))


def naive_half_mu_stream(ab_max: int, mu_max: int, gen_window: int) -> str:
    """The half-mu-bound stream from one engine call per ordered pair and
    one json.dumps per record."""
    lines = []
    for a, b in coprime_pairs(ab_max):
        s = make_semigroup((a, b))
        engine = TauEngine(s)
        ideals = [g for g in canonical_ideal_gens(s, gen_window or a + b,
                                                  mu_max) if len(g) >= 2]
        for ga in ideals:
            # by mu_B, canonical order within each mu_B (sorted is stable)
            for gb in sorted(ideals, key=len):
                profile = engine.profile(make_ideal(s, ga), make_ideal(s, gb))
                tau, support = profile.total, profile.support_size
                mm = len(ga) * len(gb)
                record = {
                    "a": a, "b": b,
                    "gens_A": ",".join(map(str, ga)),
                    "gens_B": ",".join(map(str, gb)),
                    "tau": tau, "support": support,
                    "mu_A": len(ga), "mu_B": len(gb),
                    "bound_ok": tau + support >= mm and 2 * tau >= mm,
                }
                lines.append(json.dumps(record, sort_keys=True,
                                        separators=(",", ":")) + "\n")
    return "".join(lines)


class TestRecordStream:
    @pytest.mark.parametrize("gen_window", [0, 6])
    def test_half_mu_matches_naive_reference(self, tmp_path, gen_window):
        path = tmp_path / "half.jsonl"
        summary = run_search(SearchSpec(ab_max=20, mode="half-mu-bound",
                                        mu_max=3, gen_window=gen_window,
                                        output_path=str(path)))
        expected = naive_half_mu_stream(20, 3, gen_window)
        assert summary.records == expected.count("\n") > 0
        assert path.read_text() == expected

    def test_violations_are_record_dicts(self, monkeypatch, tmp_path):
        # reports that fail every semigroup, with no gap and with a gap of
        # count 0: each record is a violation
        out = tmp_path / "hw.jsonl"
        for per_gap, stats, first in (
                ({}, {}, {"gap_count": 0, "max_count": None,
                          "min_count": None}),
                ({1: 2, 3: 0}, {"min_count": 0, "max_count": 2},
                 {"gap_count": 2, "max_count": 2, "min_count": 0})):
            monkeypatch.setattr(search, "hw_check_semigroup",
                                lambda s, per_gap=per_gap: SimpleNamespace(
                                    per_gap=per_gap, all_positive=False))
            summary = run_search(SearchSpec(ab_max=400, mode="hw",
                                            output_path=str(out)))
            records = written_records(out)
            assert summary.violation_count == summary.records == len(records)
            assert len(summary.violations) == 100 < summary.records
            assert summary.violations == records[:100]
            assert summary.stats == stats
            assert summary.violations[0] == {
                "a": 2, "all_positive": False, "b": 3, "bound_ok": False,
                **first}

    def test_half_mu_violations_are_written_lines(self, monkeypatch,
                                                  tmp_path):
        # an engine that reports no torsion fails every bound
        monkeypatch.setattr(TauEngine, "tau_support_batch",
                            lambda self, ga, gbs: ([0] * len(gbs),
                                                   [0] * len(gbs)))
        out = tmp_path / "half.jsonl"
        summary = run_search(SearchSpec(ab_max=20, mode="half-mu-bound",
                                        mu_max=3, output_path=str(out)))
        records = written_records(out)
        assert summary.violation_count == summary.records == len(records) > 100
        assert summary.violations == records[:100]
        assert not any(r["bound_ok"] for r in records)

    def test_half_mu_mixed_violations(self, monkeypatch, tmp_path):
        # tau zeroed on every third lane of the calls for three-generator
        # ideals: their rows fail, and hold records that pass, from the
        # two-generator rows before them, which pass whole
        true_batch = TauEngine.tau_support_batch

        def thinned(self, ga, batch):
            taus, supports = true_batch(self, ga, batch)
            if len(ga) == 3:
                taus[::3] = [0] * len(taus[::3])
            return taus, supports

        # the pool forks, so its workers inherit the patch
        monkeypatch.setattr(TauEngine, "tau_support_batch", thinned)
        paths = [tmp_path / f"jobs{jobs}.jsonl" for jobs in (1, 2)]
        summaries = [run_search(SearchSpec(
            ab_max=30, mode="half-mu-bound", mu_max=3, parallelism=jobs,
            output_path=str(path))) for jobs, path in zip((1, 2), paths)]
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert summaries[0] == summaries[1]
        records = written_records(paths[0])
        for r in records:
            mm = r["mu_A"] * r["mu_B"]
            assert r["bound_ok"] == (r["tau"] + r["support"] >= mm
                                     and 2 * r["tau"] >= mm), r
        failed = [r for r in records if not r["bound_ok"]]
        assert summaries[0].violation_count == len(failed) > 100
        assert summaries[0].violations == failed[:100]
        rows = collections.defaultdict(set)  # (a, b, gens_A): bound_ok seen
        for r in records:
            rows[r["a"], r["b"], r["gens_A"]].add(r["bound_ok"])
        mixed = {key[:2] for key, oks in rows.items() if oks == {True, False}}
        passing = {key[:2] for key, oks in rows.items() if oks == {True}}
        assert mixed & passing, (mixed, passing)
