"""Command-line frontend: group analysis, class membership, closure audits,
normalizer-quotient realization, brute search and the verification suite.

Every command emits a report with the same top-level shape — command echo,
inputs as given, a command-specific results object, a checks block and a
timing block — as human-readable text or as JSON with sorted keys.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import _IMPORT_STARTED
from .classes import MAX_DUAL_DEPTH, ClassEval, audit_property, classify, parse_class_expr
from .config import _ENV_FIELDS, Caps, caps_from_env
from .errors import (
    CapExceeded,
    DegreeMismatch,
    FalsificationAlarm,
    InvalidInput,
    ParseError,
)
from .realization import brute_search, realize
from .structure import (
    baer_radical,
    is_abelian,
    is_cyclic,
    is_nilpotent,
    is_simple,
    is_solvable,
    normal_subgroups,
    simple_quotients,
)
from .universe import (
    build_universe,
    load_catalog,
    parse_group_spec,
    recognize_name,
    save_catalog,
)

EXIT_PASS = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2
EXIT_CAP = 3


def _common_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit the report as JSON instead of text")
    common.add_argument("--universe", metavar="PATH",
                        help="catalog file to use (default: build the standard one)")
    common.add_argument("--enum-cap", type=int, metavar="N",
                        help="largest group order for full element enumeration")
    common.add_argument("--iso-cap", type=int, metavar="N",
                        help="largest order accepted by isomorphism search")
    common.add_argument("--subgroup-limit", type=int, metavar="N",
                        help="abort subgroup enumeration beyond this many subgroups")
    common.add_argument("--coord-cap", type=int, metavar="N",
                        help="largest coordinate count N of a wreath product")
    return common


def build_parser() -> argparse.ArgumentParser:
    common = _common_parser()
    parser = argparse.ArgumentParser(
        prog="classlab",
        description="Finite-group class calculus and normalizer-quotient "
                    "realization toolkit.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("group", parents=[common],
                       help="analyze one group: order, lattice, radical, quotients")
    p.set_defaults(handler=_cmd_group)
    p.add_argument("spec", help="group spec, e.g. Q8, A5, perm4[(1 2);(3 4)]")

    p = sub.add_parser("class", parents=[common],
                       help="class membership with an explanation trace")
    p.set_defaults(handler=_cmd_class)
    p.add_argument("classexpr", help="class expression, e.g. dual(solvable)")
    p.add_argument("spec", help="group spec")

    p = sub.add_parser("audit", parents=[common],
                       help="closure-property audits of a class over the universe")
    p.set_defaults(handler=_cmd_audit)
    p.add_argument("classexpr")
    p.add_argument("--all", action="store_true",
                   help="run all four audits and report taxonomy flags")
    p.add_argument("--c0", action="store_true", help="subgroup closure")
    p.add_argument("--c1", action="store_true", help="quotient closure")
    p.add_argument("--c2", action="store_true", help="extension closure")
    p.add_argument("--c3", action="store_true", help="meet-of-kernels closure")

    p = sub.add_parser("dual-chain", parents=[common],
                       help="iterated dual memberships of one group")
    p.set_defaults(handler=_cmd_dual_chain)
    p.add_argument("classexpr")
    p.add_argument("spec")
    p.add_argument("--k", type=int, default=2, metavar="K",
                   help="largest dual level to evaluate (default 2, at most "
                        f"{MAX_DUAL_DEPTH})")

    p = sub.add_parser("realize", parents=[common],
                       help="build a normalizer-quotient certificate for a group")
    p.set_defaults(handler=_cmd_realize)
    p.add_argument("spec")
    p.add_argument("--top", metavar="SPEC",
                   help="ambient top group to embed the target into")
    p.add_argument("--alt", type=int, metavar="N",
                   help="use the alternating group A_N as top group")
    p.add_argument("--no-brute-check", action="store_true",
                   help="skip the exhaustive normalizer cross-check")
    p.add_argument("--out", metavar="PATH",
                   help="also write the JSON report to this file")

    p = sub.add_parser("search", parents=[common],
                       help="brute-force scan for subgroups with N(H)/H "
                            "isomorphic to a target")
    p.set_defaults(handler=_cmd_search)
    p.add_argument("ambient", help="group spec of the ambient group")
    p.add_argument("target", help="group spec of the target quotient")

    # The common options belong to `build` alone: argparse would let the
    # subcommand's defaults overwrite any given before it.
    p = sub.add_parser("universe", help="catalog maintenance")
    usub = p.add_subparsers(dest="universe_cmd", required=True)
    pb = usub.add_parser("build", parents=[common],
                         help="build and save a catalog")
    pb.set_defaults(handler=_cmd_universe_build)
    pb.add_argument("--sym-degree", type=int, default=5, metavar="D",
                    help="take all subgroups of the symmetric group of this "
                         "degree, up to isomorphism (default 5)")
    pb.add_argument("--extras", metavar="NAMES",
                    help="comma-separated extra group specs; empty string for "
                         "none (default: the standard extras)")
    pb.add_argument("--out", default="universe.txt", metavar="PATH",
                    help="output path (default universe.txt)")

    p = sub.add_parser("selftest", parents=[common],
                       help="run every registered verification check")
    p.set_defaults(handler=_cmd_selftest)
    p.add_argument("--filter", metavar="SUBSTRING",
                   help="run only checks whose name contains this substring")

    return parser


def _caps_from_args(args) -> Caps:
    caps = caps_from_env()
    updates = {field_name: getattr(args, field_name)
               for field_name in _ENV_FIELDS.values()
               if getattr(args, field_name) is not None}
    for field_name, value in updates.items():
        if value <= 0:
            raise InvalidInput(f"--{field_name.replace('_', '-')} must be positive")
    return caps.with_updates(**updates) if updates else caps


def _load_universe(args, caps: Caps):
    path = getattr(args, "universe", None)
    if path is None:
        return build_universe(caps=caps)
    try:
        return load_catalog(path, caps)
    except (OSError, ValueError, KeyError) as exc:
        raise InvalidInput(f"cannot load universe file {path}: {exc}") from exc


def _report(command: str, inputs: dict, results: dict, checks: list,
            started: float) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "results": results,
        "checks": checks,
        "timing": {"import_s": round(started - _IMPORT_STARTED, 6),
                   "total_s": round(time.perf_counter() - started, 6)},
    }


# ---------------------------------------------------------------------------
# command handlers: each returns (report, exit_code, lines-of-text)
# ---------------------------------------------------------------------------

def _cmd_group(args, caps: Caps):
    started = time.perf_counter()
    G = parse_group_spec(args.spec)
    lat = normal_subgroups(G, caps)
    # The radical is undefined for the trivial group, which has no quotients.
    rad = baer_radical(G, caps) if G.order() > 1 else None
    quots = simple_quotients(G, caps)
    results = {
        "order": G.order(),
        "degree": G.degree,
        "generators": G.gen_strings(),
        "normal_lattice": {
            "count": len(lat.members),
            "orders": sorted(m.order() for m in lat.members),
        },
        "radical": None if rad is None else {
            "order": rad.order(),
            "name": recognize_name(rad, caps),
            "generators": rad.gen_strings(),
        },
        "simple_quotients": [
            {"order": Q.order(), "name": recognize_name(Q, caps)} for Q in quots
        ],
        "predicates": {
            "trivial": G.order() == 1,
            "cyclic": is_cyclic(G, caps),
            "abelian": is_abelian(G),
            "nilpotent": is_nilpotent(G),
            "solvable": is_solvable(G),
            "simple": is_simple(G, caps),
        },
    }
    report = _report("group", {"spec": args.spec}, results, [], started)
    r = results
    lines = [
        f"group {args.spec}: order {r['order']}, degree {r['degree']}",
        f"  generators: {'; '.join(r['generators']) or '()'}",
        f"  normal lattice: {r['normal_lattice']['count']} subgroups, "
        f"orders {r['normal_lattice']['orders']}",
        "  radical: none (trivial group)" if rad is None else
        f"  radical: order {r['radical']['order']}"
        + (f" ({r['radical']['name']})" if r['radical']['name'] else ""),
        "  simple quotients: "
        + (", ".join(q["name"] or f"order {q['order']}" for q in r["simple_quotients"])
           or "none"),
        "  predicates: "
        + ", ".join(f"{k}={'yes' if v else 'no'}" for k, v in r["predicates"].items()),
    ]
    return report, EXIT_PASS, lines


def _cmd_class(args, caps: Caps):
    started = time.perf_counter()
    C = parse_class_expr(args.classexpr)
    G = parse_group_spec(args.spec)
    ev = ClassEval(caps)
    value, trace = ev.member_trace(C, G)
    results = {"class": C.text(), "member": value, "trace": trace}
    report = _report("class", {"classexpr": args.classexpr, "spec": args.spec},
                     results, [], started)
    lines = [f"{args.spec} in {C.text()}: {'yes' if value else 'no'}"]
    if "witness_normal_order" in trace:
        lines.append(
            f"  witness: normal subgroup of order {trace['witness_normal_order']} "
            f"with quotient of order {trace['quotient_order']}")
    if "series_orders" in trace:
        lines.append(f"  series orders: {trace['series_orders']}")
    return report, EXIT_PASS, lines


def _cmd_audit(args, caps: Caps):
    started = time.perf_counter()
    C = parse_class_expr(args.classexpr)
    catalog = _load_universe(args, caps)
    ev = ClassEval(caps)
    selected = [w for w, on in (("C0", args.c0), ("C1", args.c1),
                                ("C2", args.c2), ("C3", args.c3)) if on]
    run_all = args.all or not selected
    results: dict = {"class": C.text(), "universe_size": len(catalog)}
    checks = []
    if run_all:
        outcome = classify(C, catalog, ev)
        results["flags"] = outcome["flags"]
        reports = outcome["reports"]
        selected = ["C0", "C1", "C2", "C3"]
    else:
        reports = {w: audit_property(C, catalog, w, ev) for w in selected}
    results["audits"] = {w: reports[w].to_json_dict() for w in selected}
    for w in selected:
        rep = reports[w]
        entry = {"name": f"audit-{w.lower()}",
                 "status": "pass" if rep.holds else "fail"}
        if not rep.holds:
            entry["witness"] = {"counterexamples": rep.to_json_dict()["counterexamples"][:3]}
        checks.append(entry)
    report = _report("audit", {"classexpr": args.classexpr,
                               "properties": selected}, results, checks, started)
    lines = [f"audit {C.text()} over {len(catalog)} groups:"]
    for w in selected:
        rep = reports[w]
        verdict = "holds" if rep.holds else "fails"
        lines.append(f"  {w}: {verdict}"
                     + ("" if rep.holds or not rep.counterexamples
                        else f" (witness: {rep.counterexamples[0]})"))
    if "flags" in results:
        lines.append("  flags: " + ", ".join(
            f"{k}={'yes' if v else 'no'}" for k, v in results["flags"].items()))
    code = EXIT_PASS if all(reports[w].holds for w in selected) else EXIT_CHECK_FAILURE
    return report, code, lines


def _cmd_dual_chain(args, caps: Caps):
    started = time.perf_counter()
    if args.k < 0:
        raise InvalidInput("--k must be nonnegative")
    if args.k > MAX_DUAL_DEPTH:
        raise CapExceeded(f"--k {args.k} exceeds configured dual-iteration depth "
                          f"{MAX_DUAL_DEPTH}")
    C = parse_class_expr(args.classexpr)
    G = parse_group_spec(args.spec)
    ev = ClassEval(caps)
    chain = [{"k": k, "member": ev.dual_chain_member(C, G, k)}
             for k in range(args.k + 1)]
    results = {"class": C.text(), "chain": chain}
    report = _report("dual-chain", {"classexpr": args.classexpr,
                                    "spec": args.spec, "k": args.k},
                     results, [], started)
    verdicts = ", ".join(f"k={row['k']}: {'in' if row['member'] else 'out'}"
                         for row in chain)
    return report, EXIT_PASS, [f"dual chain of {args.spec} under {C.text()}: {verdicts}"]


def _cmd_realize(args, caps: Caps):
    started = time.perf_counter()
    G = parse_group_spec(args.spec)
    top = parse_group_spec(args.top) if args.top is not None else None
    cert = realize(G, alt=args.alt, caps=caps,
                   brute_check=not args.no_brute_check, top=top)
    results = cert.to_json_dict()
    checks = [{"name": name, "status": "pass" if status == "passed" else "skipped"}
              for name, status in sorted(cert.checks.items())]
    report = _report("realize",
                     {"spec": args.spec, "top": args.top, "alt": args.alt,
                      "brute_check": not args.no_brute_check},
                     results, checks, started)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    lines = [
        f"realized {args.spec}: ambient order {results['gamma']['order']} "
        f"on {results['gamma']['degree']} points, {cert.n_coords} coordinate(s)",
        f"  subgroup H of order {cert.h.order()}, normalizer of order "
        f"{cert.normalizer.order()}, quotient certified isomorphic to the target",
        "  checks: " + ", ".join(f"{c['name']}={c['status']}" for c in checks),
    ]
    return report, EXIT_PASS, lines


def _cmd_search(args, caps: Caps):
    started = time.perf_counter()
    Gamma = parse_group_spec(args.ambient)
    G = parse_group_spec(args.target)
    hits = brute_search(Gamma, G, caps)
    results = {
        "ambient_order": Gamma.order(),
        "target_order": G.order(),
        "hit_count": len(hits),
        "hits": [
            {
                "subgroup_order": h.subgroup.order(),
                "subgroup_generators": h.subgroup.gen_strings(),
                "normalizer_order": h.normalizer.order(),
            }
            for h in hits
        ],
    }
    report = _report("search", {"ambient": args.ambient, "target": args.target},
                     results, [], started)
    lines = [f"search in {args.ambient}: {len(hits)} subgroup(s) with "
             f"N(H)/H isomorphic to {args.target}"]
    for h in results["hits"]:
        lines.append(f"  |H| = {h['subgroup_order']}, |N(H)| = {h['normalizer_order']}, "
                     f"gens {'; '.join(h['subgroup_generators']) or '()'}")
    return report, EXIT_PASS, lines


def _cmd_universe_build(args, caps: Caps):
    started = time.perf_counter()
    if args.extras is None:
        extras = None
    else:
        extras = [t.strip() for t in args.extras.split(",") if t.strip()]
    catalog = build_universe(args.sym_degree, extras, caps)
    save_catalog(catalog, args.out)
    results = {"path": args.out, "count": len(catalog), "entries": catalog.names()}
    report = _report("universe build",
                     {"sym_degree": args.sym_degree, "extras": args.extras,
                      "out": args.out}, results, [], started)
    lines = [f"wrote {len(catalog)} groups to {args.out}"]
    return report, EXIT_PASS, lines


def _cmd_selftest(args, caps: Caps):
    from .suite import run_suite

    started = time.perf_counter()
    catalog = _load_universe(args, caps)
    outcomes = run_suite(catalog, caps, name_filter=args.filter)
    checks = [r.to_json_dict() for r in outcomes]
    counts = {
        "pass": sum(r.status == "pass" for r in outcomes),
        "fail": sum(r.status == "fail" for r in outcomes),
        "skipped": sum(r.status == "skipped" for r in outcomes),
    }
    results = {"universe_size": len(catalog), "checks_run": len(outcomes),
               "outcomes": counts}
    report = _report("selftest", {"filter": args.filter}, results, checks, started)
    report["timing"]["per_check_s"] = {r.name: round(r.duration, 6)
                                       for r in outcomes}
    lines = []
    for r in outcomes:
        mark = {"pass": "ok", "fail": "FAIL", "skipped": "skip"}[r.status]
        lines.append(f"{mark:4s} {r.name}")
        if r.witness is not None:
            lines.append(f"     {json.dumps(r.witness, sort_keys=True)[:400]}")
    lines.append(f"{len(outcomes)} checks: {counts['pass']} passed, "
                 f"{counts['fail']} failed, {counts['skipped']} skipped")
    if counts["fail"]:
        code = EXIT_CHECK_FAILURE
    elif counts["skipped"]:
        code = EXIT_CAP
    else:
        code = EXIT_PASS
    return report, code, lines


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, code, lines = args.handler(args, _caps_from_args(args))
    except (ParseError, InvalidInput, DegreeMismatch, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except FalsificationAlarm as exc:
        print(f"FALSIFICATION ALARM: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILURE
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
