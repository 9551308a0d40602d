"""Checks one campaign's record stream, outside the timed region.

    python3 check.py SRC WORKLOAD SEED RECORDS_JSONL SAMPLE

Every record must carry `bound_ok: true`. A seeded sample of SAMPLE
records (all of them when SAMPLE is 0) is re-derived through a public
route the campaign does not use:

- half-mu: `torsion_profile` on the two ideals gives tau and support
  (the campaign uses the vectorized `TauEngine`);
- hw: `torsion_length_2gen` on every gap, which also cross-checks the
  direct triple scan against the dual-quotient route;
- dual and oracle records carry their own route agreement in
  `bound_ok`, so only that flag is checked.

Prints one JSON line: records read, records found wrong, records
re-derived and the first few problems.
"""

import json
import random
import sys

sys.path.insert(0, sys.argv[1])

from semitorsion import (make_ideal, make_semigroup,  # noqa: E402
                         torsion_length_2gen, torsion_profile)


def _gens(text: str) -> list[int]:
    return [int(g) for g in text.split(",")]


def half_mu_problem(r: dict) -> str | None:
    s = make_semigroup((r["a"], r["b"]))
    ia, ib = make_ideal(s, _gens(r["gens_A"])), make_ideal(s, _gens(r["gens_B"]))
    profile = torsion_profile(ia, ib)
    mm = ia.mu * ib.mu
    expect = {"tau": profile.total, "support": profile.support_size,
              "mu_A": ia.mu, "mu_B": ib.mu,
              "bound_ok": (profile.total + profile.support_size >= mm
                           and 2 * profile.total >= mm)}
    wrong = {k: (r[k], v) for k, v in expect.items() if r[k] != v}
    for key, ideal in (("gens_A", ia), ("gens_B", ib)):
        if ",".join(map(str, ideal.min_gens)) != r[key]:
            wrong[key] = (r[key], ideal.min_gens)
    return f"{r['a']},{r['b']} {r['gens_A']}|{r['gens_B']}: {wrong}" if wrong else None


def hw_problem(r: dict) -> str | None:
    s = make_semigroup((r["a"], r["b"]))
    counts = [torsion_length_2gen(s, n) for n in s.gaps()]
    expect = {"gap_count": len(counts),
              "min_count": min(counts) if counts else None,
              "max_count": max(counts) if counts else None,
              "all_positive": all(c > 0 for c in counts)}
    wrong = {k: (r[k], v) for k, v in expect.items() if r[k] != v}
    return f"{r['a']},{r['b']}: {wrong}" if wrong else None


REDERIVE = {"half-mu": half_mu_problem, "hw": hw_problem}


def check(workload: str, seed: int, path: str, sample: int) -> dict:
    with open(path) as fh:
        records = [json.loads(line) for line in fh]
    problems = [f"bound_ok false: {r}" for r in records if r.get("bound_ok") is not True]
    bad = len(problems)
    rederive = REDERIVE.get(workload)
    picked: list[int] = []
    if rederive is not None:
        picked = list(range(len(records)))
        if 0 < sample < len(records):
            picked = sorted(random.Random(seed).sample(picked, sample))
        for i in picked:
            if records[i].get("bound_ok") is not True:
                continue  # already counted
            try:
                problem = rederive(records[i])
            except (KeyError, TypeError, ValueError, RuntimeError) as exc:
                problem = f"record {i} unreadable: {exc!r}"
            if problem is not None:
                bad += 1
                problems.append(problem)
    return {"records": len(records), "bad": bad, "rederived": len(picked),
            "problems": problems[:5]}


if __name__ == "__main__":
    _, _, workload, seed, path, sample = sys.argv
    print(json.dumps(check(workload, int(seed), path, int(sample))))
