"""Workloads, metric names and the layer map of the campaign benchmark.

Shared by the harness (`run.py`), the cold-process child (`child.py`)
and the output checker (`check.py`). Nothing here imports semitorsion.
"""

from __future__ import annotations

# The CLI's default seed. The oracle stream is pinned at this seed; at
# any other seed it is checked for determinism and route agreement only.
PINNED_SEED = 0

# Each size pins the campaign arguments, the record count and the sha256
# of the JSON-lines record stream written by `--out`. `seeded` workloads
# pass the benchmark seed to `--seed`; the exhaustive modes take none.
WORKLOADS: dict[str, dict] = {
    "half-mu": {
        "seeded": False,
        "sizes": {
            "full": {"args": ["--mode", "half-mu-bound", "--mu-max", "4",
                              "--ab-max", "60"],
                     "records": 120860,
                     "sha256": "a05fa3222130274ba6ab79e7ed0064f99ed264fd6153819d845efe439569d765"},
            "tiny": {"args": ["--mode", "half-mu-bound", "--mu-max", "3",
                              "--ab-max", "20"],
                     "records": 203,
                     "sha256": "ef3c35e36aad14de68fd56e4340f22bf73f8b0cca6d34fddbf18c75ca2af6341"},
        },
    },
    "dual": {
        "seeded": False,
        "sizes": {
            "full": {"args": ["--mode", "dual-consistency", "--mu-max", "3",
                              "--ab-max", "110"],
                     "records": 5755,
                     "sha256": "87b89f20906e9876e58e6d4094eb230ac11e12b03fb7deab2e0287088d25942e"},
            "tiny": {"args": ["--mode", "dual-consistency", "--mu-max", "2",
                              "--ab-max", "30"],
                     "records": 87,
                     "sha256": "fd5d13f1278922091e2d8696a3de4bfba8a5ac8d7e2fb3676bb7093638141503"},
        },
    },
    "hw": {
        "seeded": False,
        "sizes": {
            "full": {"args": ["--mode", "hw", "--ab-max", "250"],
                     "records": 269,
                     "sha256": "d6c0dea790b363313bdff5759d50cf9d783e9a1d0e837503e4bdf05606d876b2"},
            "tiny": {"args": ["--mode", "hw", "--ab-max", "40"],
                     "records": 22,
                     "sha256": "f72012d040c169217e6e6911774ce1c21463a0e0c21f563d2cbed196136071a0"},
        },
    },
    "oracle": {
        "seeded": True,
        "sizes": {
            "full": {"args": ["--mode", "oracle-compare", "--mu-max", "4",
                              "--ab-max", "50", "--samples", "2400"],
                     "records": 2400,
                     "sha256": "6aea761988de178ffdcf222bf2c29783e977fc5d106d9cecf80051b13a587bc5"},
            "tiny": {"args": ["--mode", "oracle-compare", "--mu-max", "3",
                              "--ab-max", "30", "--samples", "20"],
                     "records": 20,
                     "sha256": "ffe729c843a2735a20c5cf1f1f8d548795d8eebe3580b62b6140a5229c4e0bb0"},
        },
    },
}

END_TO_END: list[tuple[str, str]] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("records_per_s", "1/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER: list[tuple[str, str]] = [
    ("search.engine.calls", "count"),
    ("search.engine.s", "s"),
    ("search.engine.fibers", "count"),
    ("search.enumerate.s", "s"),
    ("search.enumerate.ideals", "count"),
    ("search.serialize.s", "s"),
    ("search.records.self_s", "s"),
    ("search.mask_cache.entries", "count"),
    ("ideals.make_ideal.calls", "count"),
    ("ideals.make_ideal.s", "s"),
    ("ideals.make_ideal.self_s", "s"),
    ("ideals.dual.calls", "count"),
    ("ideals.dual.s", "s"),
    ("hypersurface.dual_formula.s", "s"),
    ("hypersurface.dual_formula.self_s", "s"),
    ("hypersurface.dual_symmetric.s", "s"),
    ("cofinite.sumset.calls", "count"),
    ("cofinite.sumset.s", "s"),
    ("cofinite.sumset.head_pairs", "count"),
    ("cofinite.difference.s", "s"),
    ("huneke_wiegand.irreducible_triples.calls", "count"),
    ("huneke_wiegand.irreducible_triples.self_s", "s"),
    ("semigroup.make.calls", "count"),
    ("semigroup.make.s", "s"),
    ("torsion.fiber_graph.calls", "count"),
    ("torsion.fiber_graph.s", "s"),
    ("torsion.fiber_graph.edges", "count"),
    ("torsion.fiber_class_count.calls", "count"),
    ("torsion.fiber_class_count.s", "s"),
    ("trace.overhead_frac", "ratio"),
]

# Layers each campaign must never enter. A traced run that sees a call
# into one of them fails, so this map stays true as the code changes.
_IDEAL_ALGEBRA = ["ideals.make_ideal", "ideals.dual",
                  "hypersurface.dual_formula", "hypersurface.dual_symmetric"]
_TRIPLES = ["cofinite.sumset", "huneke_wiegand.irreducible_triples"]
_TORSION = ["torsion.fiber_graph", "torsion.fiber_class_count"]
BYPASSED: dict[str, list[str]] = {
    "half-mu": _IDEAL_ALGEBRA + _TRIPLES + _TORSION,
    "dual": ["search.engine"] + _TRIPLES + _TORSION,
    "hw": ["search.engine"] + _IDEAL_ALGEBRA + _TORSION,
    "oracle": ["search.engine"] + _TRIPLES,
}


def campaign_argv(workload: str, size: str, seed: int, out: str) -> list[str]:
    """`semitorsion` arguments for one campaign writing records to `out`."""
    spec = WORKLOADS[workload]
    argv = ["search", *spec["sizes"][size]["args"], "--jobs", "1",
            "--out", out]
    if spec["seeded"]:
        argv += ["--seed", str(seed)]
    return argv
