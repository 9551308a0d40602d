"""Command-line front end.

Exit codes: 0 success, 1 usage, parse or output-file error, 2 a
mathematical violation was found (search modes and the per-gap check).
"""

from __future__ import annotations

import argparse
import json
import sys

from .hypersurface import dual_formula, dual_symmetric, make_hypersurface
from .huneke_wiegand import hw_check_semigroup
from .ideals import ideal_dual, make_ideal
from .search import MODES, SearchSpec, run_search
from .semigroup import make_semigroup
from .torsion import TauEngine, fiber_graph, graph_to_dot


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse default exits 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_ints(text: str, what: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ValueError(f"cannot parse {what} {text!r}: "
                         "expected comma-separated integers") from None


def _semigroup(text: str):
    return make_semigroup(_parse_ints(text, "semigroup"))


def cmd_info(args) -> int:
    s = _semigroup(args.semigroup)
    g = s.gaps()
    print(f"generators: {','.join(str(x) for x in s.generators)}")
    print(f"frobenius: {s.frobenius}")
    print(f"multiplicity: {s.multiplicity}")
    print(f"gaps ({len(g)}): {','.join(str(x) for x in g)}")
    print(f"symmetric: {s.is_symmetric()}")
    return 0


def cmd_tau(args) -> int:
    s = _semigroup(args.semigroup)
    a = make_ideal(s, _parse_ints(args.ideal_a, "ideal"))
    b = make_ideal(s, _parse_ints(args.ideal_b, "ideal"))
    if args.dot is not None:
        print(graph_to_dot(fiber_graph(a, b, args.dot)))
        return 0
    profile = TauEngine(s).profile(a.min_gens, b.min_gens)
    print(f"tau: {profile.total}")
    print(f"support: {profile.support_size}")
    if args.profile:
        for z in sorted(profile.tau_by_z):
            print(f"  z={z} tau_z={profile.tau_by_z[z]}")
    return 0


def cmd_dual(args) -> int:
    s = _semigroup(args.semigroup)
    ideal = make_ideal(s, _parse_ints(args.ideal_a, "ideal"))
    if args.method == "bruteforce":
        dual = ideal_dual(ideal)
    elif args.method == "formula":
        if len(s.generators) != 2:
            raise ValueError("--method formula needs a two-generated semigroup")
        dual = dual_formula(make_hypersurface(*s.generators), ideal)
    else:
        dual = dual_symmetric(s, ideal)
    print(",".join(str(g) for g in dual.min_gens))
    return 0


def cmd_hw(args) -> int:
    report = hw_check_semigroup(_semigroup(args.semigroup))
    print(json.dumps(report.to_json_dict(), indent=2, sort_keys=True))
    return 0 if report.all_positive else 2


def cmd_search(args) -> int:
    spec = SearchSpec(
        ab_max=args.ab_max,
        mode=args.mode,
        gen_window=args.gen_window,
        mu_max=args.mu_max,
        output_path=args.out,
        parallelism=args.jobs,
        seed=args.seed,
        samples=args.samples,
    )
    summary = run_search(spec)
    print(f"mode: {summary.mode}")
    print(f"records: {summary.records}")
    print(f"violations: {summary.violation_count}")
    for key in sorted(summary.stats):
        print(f"{key}: {summary.stats[key]}")
    for record in summary.violations[:10]:
        print(f"VIOLATION: {json.dumps(record, sort_keys=True)}")
    if args.out:
        print(f"wrote: {args.out}")
    return 0 if summary.ok else 2


def build_parser() -> _Parser:
    parser = _Parser(prog="semitorsion")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p_info = sub.add_parser("info", help="semigroup invariants")
    p_info.add_argument("--semigroup", required=True,
                        help='comma-separated generators, e.g. "5,7"')
    p_info.set_defaults(func=cmd_info)

    p_tau = sub.add_parser("tau", help="torsion number of an ideal pair")
    p_tau.add_argument("--semigroup", required=True)
    p_tau.add_argument("--ideal-a", required=True,
                       help='comma-separated generators, e.g. "17,21,25"')
    p_tau.add_argument("--ideal-b", required=True)
    p_tau.add_argument("--profile", action="store_true",
                       help="print the per-degree torsion table")
    p_tau.add_argument("--dot", type=int, metavar="Z",
                       help="emit the fiber graph at degree Z as DOT")
    p_tau.set_defaults(func=cmd_tau)

    p_dual = sub.add_parser("dual", help="minimal generators of the dual")
    p_dual.add_argument("--semigroup", required=True)
    p_dual.add_argument("--ideal-a", required=True)
    p_dual.add_argument("--method", default="bruteforce",
                        choices=("formula", "bruteforce", "symmetric"))
    p_dual.set_defaults(func=cmd_dual)

    p_hw = sub.add_parser("hw", help="irreducible triple counts per gap")
    p_hw.add_argument("--semigroup", required=True)
    p_hw.set_defaults(func=cmd_hw)

    p_search = sub.add_parser("search", help="verification campaigns")
    p_search.add_argument("--mode", required=True, choices=MODES)
    p_search.add_argument("--ab-max", type=int, default=35)
    p_search.add_argument("--gen-window", type=int, default=0,
                          help="ideal generator window width (0: a+b)")
    p_search.add_argument("--mu-max", type=int, default=3)
    p_search.add_argument("--jobs", type=int, default=1,
                          help="worker processes")
    p_search.add_argument("--out", default=None,
                          help="JSON-lines output path")
    p_search.add_argument("--seed", type=int, default=0)
    p_search.add_argument("--samples", type=int, default=200,
                          help="tuples drawn in oracle-compare mode")
    p_search.set_defaults(func=cmd_search)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"semitorsion: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
