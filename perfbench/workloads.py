"""The four workloads: their op lists, how each op runs, and its answer.

Each workload is a closed loop of one client: ops run one at a time, and a
pass is one run over the whole op list.  A run makes at least `min_passes`
passes, a fixed count, so that the latency percentiles rest on two samples
of each op; a pass count that followed the host's speed would bias slow
runs, which would stop sooner.  One cli pass already takes a run's length,
and two would not fit the benchmark's time budget.

The seed only reorders ops, and only those of cli, each a process of its
own; it never changes their kind or size.  The other workloads run one fixed
order whatever the seed, because there an op leaves state that changes the
cost of the ops after it (see their classes).

An op's answer is a JSON value that is compared with the frozen answer in
`expected/<workload>.json`, recorded from the seed code by `regen.py`.
Answers hold what a correct program must reproduce (orders, flags, counts,
exit codes, reports) and leave out what it may choose freely, such as the
generators of a witness subgroup, except in the CLI reports, whose
byte-level stability the project treats as a contract.

classlab functions are always looked up through their module at call time,
so the tracer's rebinding of module attributes reaches them.
"""
from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
INPUTS = HERE / "inputs"
EXPECTED = HERE / "expected"

# The seven classes of the suite's taxonomy table, from the narrowest to the
# widest class.
TAXONOMY_CLASSES = ("trivial", "cyclic", "abelian", "p(2)", "nilpotent", "solvable", "all")

# Dropped from the audited catalog: subgroups(A6) alone takes about a minute
# at the seed, longer than a whole run.
AUDIT_EXCLUDED = ("A6",)

QUERY_EXPRS = (
    "dual(solvable)", "fnr", "hat(cyclic)", "hat(abelian)", "dualn(abelian,2)",
    "dualn(cyclic,3)", "union(p(2),p(3))", "inter(solvable,dual(abelian))",
    "set(A5,S4,Q8)", "altge(5)", "p(2)", "pi(2,3)", "dual(set(C2))",
    "hat(pi(2,3))",
)
QUERY_SPECS = (
    "C6", "V4", "S3", "D8", "Q8", "A4", "D10", "D12", "SL23", "S4", "A5",
    "S5", "SL25", "A6", "S6", "A7", "S7",
    "perm6[(1 2 3)(4 5 6);(1 4)(2 5)(3 6)]",
    "perm7[(1 2 3 4 5 6 7);(2 3 5)(4 7 6)]",
    "perm8[(1 2 3 4)(5 6 7 8);(1 5)(2 6)(3 7)(4 8)]",
)
QUERIES_PER_SPEC = 5

# Brute-checked realizations (target, top group), base group A5.
REALIZE_TOPS = (("C2", "C4"), ("C3", "C6"))
# Structural realizations without the brute check (target, top group, base group).
REALIZE_STRUCTURAL = (("C2", "S3", "A5"), ("V4", "S4", "A5"), ("C3", "A4", "A5"),
                      ("C2", "S4", "A5"), ("C2", "C4", "A6"))
SEARCHES = (("A5", "A5"), ("S4", "C1"))
REALIZE_MAX_ORDER = 12

CATALOG_FILE = "F.txt"
CLI_COMMANDS = (
    ("group", "S7"),
    ("class", "hat(cyclic)", "S4"),
    ("dual-chain", "solvable", "A5"),
    ("realize", "C2", "--top", "C4"),
    ("search", "S3", "C1"),
    ("search", "A5", "A5"),
    ("universe", "build", "--sym-degree", "4", "--out", "U4.txt"),
    ("audit", "abelian", "--c2"),
    ("audit", "cyclic", "--universe", CATALOG_FILE),
    ("selftest", "--filter", "perm-", "--universe", CATALOG_FILE),
    ("selftest", "--filter", "realization", "--universe", CATALOG_FILE),
    ("selftest", "--filter", "structure-iso", "--universe", CATALOG_FILE),
)


def _modules():
    import classlab.classes as classes
    import classlab.realization as realization
    import classlab.universe as universe

    return classes, realization, universe


def frozen_catalog() -> list[dict]:
    """The seed's default catalog: name, degree, order and generators."""
    with open(INPUTS / "universe.json", encoding="utf-8") as fh:
        return json.load(fh)


def _orders(catalog) -> list:
    return [[e.name, e.group.order()] for e in catalog.entries]


# ---------------------------------------------------------------------------
# catalog-audit


class CatalogAudit:
    """The cold catalog path: build, save-load-save, classify.

    One fixed pipeline: the classify ops share one evaluator and the
    catalog's cached subgroup lists and lattices, so the first audit to reach
    a group pays for them, and reordering the ops would move that cost
    between ops from seed to seed.  The seed does not change this workload.
    """

    min_passes = 2
    ops_in_child = False

    def setup(self, workdir: Path) -> None:
        self.workdir = workdir

    def ops(self, seed: int) -> list[str]:
        return ["build", "roundtrip"] + [f"classify:{c}" for c in TAXONOMY_CLASSES]

    def new_pass(self) -> dict:
        classes, _, _ = _modules()
        return {"ev": classes.ClassEval()}

    def run(self, op: str, ctx: dict):
        classes, _, universe = _modules()
        if op == "build":
            ctx["built"] = universe.build_universe()
            return ctx["built"]
        if op == "roundtrip":
            first, second = self.workdir / "catalog-1.txt", self.workdir / "catalog-2.txt"
            universe.save_catalog(ctx["built"], str(first))
            loaded = universe.load_catalog(str(first))
            universe.save_catalog(loaded, str(second))
            ctx["audited"] = universe.Catalog(
                [e for e in loaded.entries if e.name not in AUDIT_EXCLUDED],
                loaded.provenance)
            return loaded, first.read_bytes() == second.read_bytes()
        text = op.split(":", 1)[1]
        return classes.classify(classes.parse_class_expr(text), ctx["audited"], ctx["ev"])

    def answer(self, op: str, result):
        if op == "build":
            return _orders(result)
        if op == "roundtrip":
            loaded, identical = result
            return {"orders": _orders(loaded), "byte_identical": identical}
        return {
            "flags": result["flags"],
            "counterexamples": {w: len(r.counterexamples)
                                for w, r in sorted(result["reports"].items())},
            "skipped": {w: len(r.skipped) for w, r in sorted(result["reports"].items())},
        }


# ---------------------------------------------------------------------------
# class-queries


def query_pairs() -> list[tuple[str, str]]:
    """A fixed list of (class expression, group spec) pairs: every spec with
    QUERIES_PER_SPEC expressions, spread over the expression list."""
    pairs = []
    for s, spec in enumerate(QUERY_SPECS):
        for j in range(QUERIES_PER_SPEC):
            pairs.append((QUERY_EXPRS[(s + j * 5) % len(QUERY_EXPRS)], spec))
    return pairs


class ClassQueries:
    """A library session: membership traces on one long-lived evaluator.

    The order is fixed, spec by spec, and the seed does not change it: the
    evaluator's memo puts the cost of recognizing a group on the first query
    about it, and shuffling moved the latency percentiles and the peak
    memory from seed to seed (over ten seeds, shuffled specs spread the
    latency median by 13 % of its value, and a new order in every pass
    spread the p90 by 13 % and the peak RSS by 9 %), while the work of a
    pass stayed within 0.3 % in sift counts.
    """

    min_passes = 2
    ops_in_child = False

    def setup(self, workdir: Path) -> None:
        pass

    def ops(self, seed: int) -> list[str]:
        return [f"{expr}|{spec}" for expr, spec in query_pairs()]

    def new_pass(self) -> dict:
        classes, _, _ = _modules()
        return {"ev": classes.ClassEval()}

    def run(self, op: str, ctx: dict):
        classes, _, universe = _modules()
        expr, spec = op.split("|", 1)
        G = universe.parse_group_spec(spec)
        return ctx["ev"].member_trace(classes.parse_class_expr(expr), G)

    def answer(self, op: str, result):
        value, trace = result
        out = {"member": value}
        for key in ("witness_normal_order", "quotient_order", "series_orders"):
            if key in trace:
                out[key] = trace[key]
        return out


# ---------------------------------------------------------------------------
# realize


class Realize:
    """Certified realizations, structural ones and brute-force searches.

    The realizations of the small catalog groups are one op, as in the
    suite's `realization-certificates` check: each takes a few milliseconds,
    and eighteen such ops would put the latency median on a timing too
    short to be steady on a shared host.  The order is fixed and the seed
    does not change it: the large structural realizations leave the process
    slower for the small ops after them (up to twice as slow at the seed,
    with or without a collection in between), so reordering would move time
    between ops from seed to seed.
    """

    min_passes = 2
    ops_in_child = False

    def setup(self, workdir: Path) -> None:
        self.names = [e["name"] for e in frozen_catalog()
                      if e["order"] <= REALIZE_MAX_ORDER]

    def ops(self, seed: int) -> list[str]:
        ops = ["realize-small"]
        ops += [f"realize-top:{g}:{top}" for g, top in REALIZE_TOPS]
        ops += [f"realize-structural:{g}:{top}:{g0}" for g, top, g0 in REALIZE_STRUCTURAL]
        ops += [f"search:{amb}:{target}" for amb, target in SEARCHES]
        return ops

    def new_pass(self) -> dict:
        return {}

    def run(self, op: str, ctx: dict):
        _, realization, universe = _modules()
        kind, *args = op.split(":")
        spec = universe.parse_group_spec
        if kind == "realize-small":
            return {name: realization.realize(spec(name)) for name in self.names}
        if kind == "realize-top":
            return realization.realize(spec(args[0]), top=spec(args[1]))
        if kind == "realize-structural":
            return realization.realize(spec(args[0]), top=spec(args[1]),
                                       G0=spec(args[2]), brute_check=False)
        return realization.brute_search(spec(args[0]), spec(args[1]))

    def answer(self, op: str, result):
        if op.startswith("search:"):
            return {"hit_count": len(result),
                    "orders": sorted([h.subgroup.order(), h.normalizer.order()]
                                     for h in result)}
        if op == "realize-small":
            return {name: self._certificate(cert) for name, cert in result.items()}
        return self._certificate(result)

    @staticmethod
    def _certificate(result) -> dict:
        return {
            "checks": dict(sorted(result.checks.items())),
            "gamma_order": result.gamma.order(),
            "h_order": result.h.order(),
            "normalizer_order": result.normalizer.order(),
            "n_coords": result.n_coords,
            "iso_verified": result.iso.verify(),
        }


# ---------------------------------------------------------------------------
# cli


class Cli:
    """The command line, one subprocess per command, files in a temp dir."""

    min_passes = 1
    ops_in_child = True

    def setup(self, workdir: Path) -> None:
        """Write the catalog file the commands read, with the program's own
        writer, from the frozen generators of the seed's catalog."""
        _, _, universe = _modules()
        from classlab.perm import generate
        from classlab.structure import fingerprint

        self.workdir = workdir
        entries = []
        for e in frozen_catalog():
            G = generate(e["gens"], e["degree"], name=e["name"])
            entries.append(universe.CatalogEntry(e["name"], G, fingerprint(G)))
        provenance = {"sym_degree": universe.DEFAULT_SYM_DEGREE,
                      "extras": universe.default_extras()}
        universe.save_catalog(universe.Catalog(entries, provenance),
                              str(workdir / CATALOG_FILE))
        env = {k: v for k, v in os.environ.items() if not k.startswith("CLASSLAB_")}
        env["PYTHONPATH"] = str(SRC)
        self.env = env

    def ops(self, seed: int) -> list[str]:
        ops = [" ".join(cmd) for cmd in CLI_COMMANDS]
        random.Random(seed).shuffle(ops)
        return ops

    def new_pass(self) -> dict:
        return {}

    def run(self, op: str, ctx: dict):
        argv = next(cmd for cmd in CLI_COMMANDS if " ".join(cmd) == op)
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / "clichild.py"), *argv, "--json"],
                              cwd=self.workdir, env=self.env, capture_output=True,
                              text=True, timeout=170)
        _, probe_s, cost_s = proc.stderr.split("\n", 1)[0].split()
        if "probe" in ctx:
            ctx["probe"].record(t0, float(probe_s), float(cost_s))
        report = json.loads(proc.stdout) if proc.stdout.strip() else None
        return proc.returncode, report

    def answer(self, op: str, result):
        code, report = result
        if report is None:
            return {"exit": code}
        return {"exit": code, "results": report["results"], "checks": report["checks"]}

    def layer_metrics(self, op: str, result, seconds: float) -> dict:
        """The cli and suite layers, seen from outside the child: its wall
        time and the `timing` block of its report."""
        sub = op.split()[0]
        _, report = result
        timing = report["timing"] if report else {}
        out = {f"cli.{sub}.process_s": seconds,
               f"cli.{sub}.inproc_s": timing.get("total_s", 0.0)}
        for check, check_s in timing.get("per_check_s", {}).items():
            out[f"suite.check.{check}_s"] = check_s
        if sub == "selftest" and report:
            out["suite.checks_run"] = report["results"]["checks_run"]
        return out


WORKLOADS = {"catalog-audit": CatalogAudit, "class-queries": ClassQueries,
             "realize": Realize, "cli": Cli}


def get(name: str):
    return WORKLOADS[name]()
