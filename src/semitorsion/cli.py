"""Command-line front end.

Exit codes: 0 success, 1 usage, parse, output-file or worker error, 2 a
mathematical violation was found (search modes and the per-gap check),
`tau`'s engine and flood fill disagree, or `dual`'s routes disagree.
"""

from __future__ import annotations

import argparse
import sys
from itertools import zip_longest

from .cofinite import bit_positions
from .hypersurface import dual_formula, dual_symmetric
from .huneke_wiegand import hw_check_semigroup
from .ideals import ideal_dual, make_ideal
from .search import MODES, SearchSpec, run_search
from .semigroup import make_semigroup
from .torsion import TauEngine, fiber_graph, graph_to_dot, torsion_profile


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


_GAP_BYTES = 1 << 8  # membership bytes read per write of the gap line


def cmd_info(args) -> int:
    s = _semigroup(args.semigroup)
    print(f"generators: {','.join(str(x) for x in s.generators)}")
    print(f"frobenius: {s.frobenius}")
    print(f"multiplicity: {s.multiplicity}")
    print(f"gaps ({s.genus()}): ", end="")
    view, sep = s.bits.to_bytes((s.threshold + 7) // 8, "little"), ""
    for i in range(0, len(view), _GAP_BYTES):  # never all gaps at once
        full = (1 << min(8 * _GAP_BYTES, s.threshold - 8 * i)) - 1
        gaps = bit_positions(
            int.from_bytes(view[i:i + _GAP_BYTES], "little") ^ full, 8 * i)
        if gaps:
            sys.stdout.write(sep + ",".join(map(str, gaps)))
            sep = ","
    print(f"\nsymmetric: {s.is_symmetric()}")
    return 0


def cmd_tau(args) -> int:
    s = _semigroup(args.semigroup)
    a = make_ideal(s, _parse_ints(args.ideal_a, "ideal"))
    b = make_ideal(s, _parse_ints(args.ideal_b, "ideal"))
    if args.dot is not None:
        print(graph_to_dot(fiber_graph(a, b, args.dot)))
        return 0
    profile = TauEngine(s).profile(a, b)
    fill = torsion_profile(a, b)  # the independent route, at every degree
    if profile != fill:
        z, x, y = next((z, x, y) for z, (x, y) in enumerate(zip_longest(
            profile.counts, fill.counts), fill.window[0]) if x != y)
        print(f"semitorsion: engine and flood fill disagree at z={z}: engine "
              f"{x} classes, flood fill {y}; engine tau {profile.total} "
              f"support {profile.support_size}; flood fill tau {fill.total} "
              f"support {fill.support_size}", file=sys.stderr)
        return 2
    print(f"tau: {profile.total}")
    print(f"support: {profile.support_size}")
    if args.profile:
        for z in sorted(profile.tau_by_z):
            print(f"  z={z} tau_z={profile.tau_by_z[z]}")
    return 0


def cmd_dual(args) -> int:
    s = _semigroup(args.semigroup)
    ideal = make_ideal(s, _parse_ints(args.ideal_a, "ideal"))
    duals = {"scan": ideal_dual(ideal)}  # checked by every route S admits
    if len(s.generators) == 2:
        duals["formula"] = dual_formula(ideal)
    if s.is_symmetric():
        duals["reflection"] = dual_symmetric(ideal)
    gens = {name: ",".join(map(str, d.min_gens)) for name, d in duals.items()}
    if len(set(gens.values())) > 1:
        print("semitorsion: dual routes disagree: " + "; ".join(
            f"{name} {text}" for name, text in gens.items()), file=sys.stderr)
        return 2
    print(gens["scan"])
    return 0


def cmd_hw(args) -> int:
    import json  # here, not at the top: most calls print no JSON
    report = hw_check_semigroup(_semigroup(args.semigroup))
    print(json.dumps(report.to_json_dict(), indent=2, sort_keys=True))
    return 0 if report.all_positive else 2


def cmd_search(args) -> int:
    names = SearchSpec.__init__.__kwdefaults__  # every field but mode
    spec = SearchSpec(mode=args.mode,
                      **{name: getattr(args, name) for name in names})
    summary = run_search(spec)
    print(f"mode: {summary.mode}")
    print(f"records: {summary.records}")
    print(f"violations: {summary.violation_count}")
    for key in sorted(summary.stats):
        print(f"{key}: {summary.stats[key]}")
    for record in summary.violations[:10]:
        import json  # as in cmd_hw
        print(f"VIOLATION: {json.dumps(record, sort_keys=True)}")
    if spec.output_path:
        print(f"wrote: {spec.output_path}")
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
    p_dual.set_defaults(func=cmd_dual)

    p_hw = sub.add_parser("hw", help="irreducible triple counts per gap")
    p_hw.add_argument("--semigroup", required=True)
    p_hw.set_defaults(func=cmd_hw)

    p_search = sub.add_parser("search", help="verification campaigns")
    p_search.add_argument("--mode", required=True, choices=MODES)
    p_search.add_argument("--ab-max", type=int)
    p_search.add_argument("--gen-window", type=int,
                          help="ideal generator window width (0: a+b)")
    p_search.add_argument("--mu-max", type=int)
    p_search.add_argument("--jobs", type=int, dest="parallelism",
                          metavar="JOBS", help="worker processes")
    p_search.add_argument("--out", dest="output_path", metavar="OUT",
                          help="JSON-lines output path")
    p_search.add_argument("--seed", type=int)
    p_search.add_argument("--samples", type=int,
                          help="tuples drawn in oracle-compare mode")
    # SearchSpec's defaults, set after the arguments so that they take them
    p_search.set_defaults(func=cmd_search,
                          **SearchSpec.__init__.__kwdefaults__)
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
