"""The value records' contract: frozen records refuse assignment, equal
values compare equal, and a repr reads `Name(field=value, ...)` in field
order. A search spec checks itself when built and survives the pickle
that sends it to a pool worker."""

import json
import pickle

import pytest

from semitorsion import (SearchSpec, boundary_cycle, fiber_graph,
                         hw_check_semigroup, irreducible_triples,
                         make_ideal, make_semigroup, ordered_generators,
                         run_search, torsion_profile)
from semitorsion.cli import main

S57 = make_semigroup([5, 7])
A, B = make_ideal(S57, [0, 3, 6]), make_ideal(S57, [0, 1])

# name: (a call that builds a fresh record, its fields in order)
FROZEN = {
    "LatticeClass": (lambda: ordered_generators(make_ideal(S57, [17]))[0],
                     ("x", "y")),
    "BoundaryCycle": (lambda: boundary_cycle(A),
                      ("cycle", "keys", "maximal_flags")),
    "FiberGraph": (lambda: fiber_graph(A, B, 8),
                   ("z", "left_vertices", "right_vertices", "edges",
                    "component_count")),
    "TorsionProfile": (lambda: torsion_profile(A, B),
                       ("window", "counts")),
    "TripleReport": (lambda: irreducible_triples(S57, 1), ("count", "least")),
    "HWReport": (lambda: hw_check_semigroup(S57),
                 ("semigroup", "per_gap", "min_irreducible",
                  "all_positive")),
}

HW_57 = {
    "all_positive": True,
    "gaps": [{"count": c, "min_irreducible": m, "n": n} for n, c, m in (
        (1, 12, 19), (2, 2, 26), (3, 4, 22), (4, 8, 17), (6, 12, 14),
        (8, 6, 12), (9, 4, 12), (11, 8, 10), (13, 6, 7), (16, 4, 5),
        (18, 4, 7), (23, 2, 5))],
    "semigroup": [5, 7],
}


def field_repr(record, fields) -> str:
    values = ", ".join(f"{f}={getattr(record, f)!r}" for f in fields)
    return f"{type(record).__name__}({values})"


@pytest.mark.parametrize("name", FROZEN)
class TestFrozenRecords:
    def test_assignment_raises(self, name):
        make, fields = FROZEN[name]
        record = make()
        assert type(record).__name__ == name
        for f in fields:
            with pytest.raises(AttributeError):
                setattr(record, f, getattr(record, f))

    def test_equal_values_compare_equal(self, name):
        make, fields = FROZEN[name]
        record = make()
        cls = type(record)
        assert record == make()
        values = [getattr(record, f) for f in fields]
        assert cls(*values) == record
        assert cls(object(), *values[1:]) != record

    def test_repr_names_each_field(self, name):
        make, fields = FROZEN[name]
        assert repr(make()) == field_repr(make(), fields)


class TestSearchRecords:
    def test_spec_fields_and_equality(self):
        spec = SearchSpec(mode="hw")
        assert repr(spec) == (
            "SearchSpec(mode='hw', ab_max=35, gen_window=0, mu_max=3, "
            "output_path=None, parallelism=1, seed=0, samples=200)")
        assert spec == SearchSpec(mode="hw", ab_max=35)
        assert spec != SearchSpec(mode="hw", ab_max=36)

    def test_spec_survives_pickle(self):
        # a pool sends the spec to its workers
        spec = SearchSpec(mode="oracle-compare", ab_max=50, gen_window=9,
                          mu_max=4, output_path="x.jsonl", parallelism=2,
                          seed=7, samples=30)
        back = pickle.loads(pickle.dumps(spec))
        assert type(back) is SearchSpec and back == spec
        assert back.window_for(2, 3) == 9

    @pytest.mark.parametrize("kwargs", [{"mode": "nonsense"},
                                        {"mode": "hw", "ab_max": 4}])
    def test_spec_checks_itself_when_built(self, kwargs):
        with pytest.raises(ValueError):
            SearchSpec(**kwargs)

    def test_spec_takes_its_output_path_as_a_path(self, monkeypatch,
                                                  tmp_path):
        # an output path that is not one fails when the spec is built, so
        # no campaign runs and no part file is left; a path-like or bytes
        # path is kept as its str
        monkeypatch.chdir(tmp_path)
        with pytest.raises(TypeError):
            run_search(SearchSpec(mode="hw", ab_max=20, output_path=5))
        with pytest.raises(ValueError, match="must not be empty"):
            SearchSpec(mode="hw", output_path="")
        assert list(tmp_path.iterdir()) == []
        target = tmp_path / "hw.jsonl"
        for path in (target, bytes(target)):
            spec = SearchSpec(mode="hw", ab_max=20, output_path=path)
            assert spec.output_path == str(target)
        assert run_search(spec).records == 7
        assert len(target.read_text().splitlines()) == 7

    def test_summary_fields_and_equality(self):
        summary = run_search(SearchSpec(mode="hw", ab_max=20))
        assert repr(summary) == (
            "SearchSummary(mode='hw', records=7, violation_count=0, "
            "violations=[], stats={'min_count': 2, 'max_count': 8})")
        assert summary == run_search(SearchSpec(mode="hw", ab_max=20))
        assert summary != run_search(SearchSpec(mode="hw", ab_max=21))
        assert summary.ok


def test_hw_report_json_is_unchanged(capsys):
    assert hw_check_semigroup(S57).to_json_dict() == HW_57
    assert main(["hw", "--semigroup", "5,7"]) == 0
    assert capsys.readouterr().out == json.dumps(HW_57, indent=2,
                                                 sort_keys=True) + "\n"
