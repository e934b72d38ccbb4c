"""Registered verification checks over a group catalog.

Every check re-derives a documented invariant or worked example from scratch
and reports pass/fail/skipped with a JSON-ready witness; results are
deterministic for a fixed catalog and caps so whole runs can be compared
byte for byte.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from pathlib import Path
from tempfile import TemporaryDirectory
from typing import Callable

from .classes import (
    ClassEval,
    audit_property,
    classify,
    parse_class_expr,
)
from .config import DEFAULT_CAPS, Caps
from .errors import CapExceeded, ClasslabError, FalsificationAlarm
from .perm import (
    GroupHom,
    PermGroup,
    Permutation,
    _compose,
    _conjugate,
    coset_action,
    direct_power,
    generate,
    point_stabilizer,
    regular_representation,
    wreath_by_cosets,
)
from .realization import (
    block_swap_automorphism,
    compose_automorphisms,
    conjugation_automorphism,
    coordinatewise_automorphism,
    diagonal_subgroup,
    factor_permutation_check,
    realize,
    split_check,
)
from .structure import (
    _is_prime,
    _prime_factors,
    baer_radical,
    center,
    has_prime_order_quotient,
    is_abelian,
    is_simple,
    is_solvable,
    isomorphic,
    lattice_quotient,
    normal_in,
    normal_subgroups,
    quotient,
    radical_factorization,
    simple_quotients,
    subgroups,
)
from .universe import (
    Catalog,
    alternating,
    build_universe,
    cyclic,
    dihedral,
    load_catalog,
    quaternion,
    save_catalog,
    special_linear,
    symmetric,
)

CHECKS: list[tuple[str, Callable]] = []


def _register(name: str):
    def deco(fn):
        CHECKS.append((name, fn))
        return fn
    return deco


def check_names() -> list[str]:
    return [name for name, _ in CHECKS]


@dataclass
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "skipped"
    witness: dict | None
    duration: float

    def to_json_dict(self) -> dict:
        out: dict = {"name": self.name, "status": self.status}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


class SuiteContext:
    """Shared catalog, caps, evaluator and lazily built fixtures."""

    def __init__(self, catalog: Catalog, caps: Caps):
        self.catalog = catalog
        self.caps = caps
        self.ev = ClassEval(caps)
        self._small_realizations: list | None = None
        self._iso_trios: list | None = None

    def members(self) -> list[tuple[str, PermGroup]]:
        return [(e.name, e.group) for e in self.catalog.entries]

    def iso_trios(self) -> list[tuple[str, tuple[PermGroup, PermGroup, PermGroup]]]:
        """Triples of differently realized copies of the same group."""
        if self._iso_trios is None:
            a5 = alternating(5)
            d10 = generate(["(1 2 3 4 5)", "(2 5)(3 4)"], 5)
            a5_deg6 = coset_action(a5, d10).image()
            a5_reg = regular_representation(a5, self.caps).image()
            s3 = symmetric(3)
            s3_reg = regular_representation(s3, self.caps).image()
            d6 = dihedral(6)
            c6 = cyclic(6)
            c6_mixed = generate(["(1 2)(3 4 5)"], 5)
            c6_split = generate(["(1 2)", "(3 4 5)"], 5)
            self._iso_trios = [
                ("A5", (a5, a5_deg6, a5_reg)),
                ("S3", (s3, s3_reg, d6)),
                ("C6", (c6, c6_mixed, c6_split)),
            ]
        return self._iso_trios

    def small_realizations(self) -> list[tuple[str, object]]:
        """Fully brute-checked certificates: every catalog member of order
        at most 12, plus C2 embedded in an ambient C4 top group."""
        if self._small_realizations is None:
            out = []
            for name, G in self.members():
                if G.order() <= 12:
                    out.append((name, realize(G, caps=self.caps)))
            out.append(("C2-in-C4", realize(cyclic(2), top=cyclic(4), caps=self.caps)))
            self._small_realizations = out
        return self._small_realizations


def _iso(A: PermGroup, B: PermGroup, caps: Caps) -> bool:
    return A.order() == B.order() and isomorphic(A, B, caps) is not None


# ---------------------------------------------------------------------------
# permutation layer
# ---------------------------------------------------------------------------

@_register("perm-order-enumeration")
def _chk_perm_order_enumeration(ctx: SuiteContext):
    """Stabilizer-chain orders agree with exhaustive element enumeration."""
    bad = []
    targets = list(ctx.members())
    W = wreath_by_cosets(cyclic(2), cyclic(4), generate(["(1 3)(2 4)"], 4), ctx.caps)
    targets.append(("C2-wreath-C4-over-C2", W.group))
    for name, G in targets:
        if G.order() > 20_000:
            continue
        elems = G.raw_elements(ctx.caps)
        if G.order() != len(elems) or len(elems) != len(set(elems)):
            bad.append({"group": name, "order": G.order(), "enumerated": len(elems)})
    return {"mismatches": bad} if bad else None


@_register("perm-wreath-kernel-top")
def _chk_perm_wreath_kernel_top(ctx: SuiteContext):
    """The kernel of a wreath product's top map is the full base power and the
    top map is onto."""
    cases = [
        ("A5-wreath-C4-over-C2", alternating(5), cyclic(4), generate(["(1 3)(2 4)"], 4)),
        ("C2-wreath-S3-over-C2", cyclic(2), symmetric(3), generate(["(1 2)"], 3)),
        ("C3-times-C2", cyclic(3), cyclic(2), cyclic(2)),
    ]
    bad = []
    for label, g0, gn, gsub in cases:
        W = wreath_by_cosets(g0, gn, gsub, ctx.caps)
        ker = W.top.kernel()
        power = direct_power(g0, W.n_coords)
        cut = g0.degree * W.n_coords
        head_set = set()
        tail_fixed = True
        for raw in ker.raw_elements(ctx.caps):
            if any(raw[p] != p for p in range(cut, W.group.degree)):
                tail_fixed = False
                break
            head_set.add(tuple(raw[:cut]))
        onto = W.top.image().order() == gn.order()
        if not (tail_fixed and onto and head_set == set(power.raw_elements(ctx.caps))):
            bad.append({
                "case": label,
                "kernel_order": ker.order(),
                "base_power_order": power.order(),
                "top_image_order": W.top.image().order(),
                "kernel_fixes_tail": tail_fixed,
            })
    return {"mismatches": bad} if bad else None


@_register("perm-coset-kernel-core")
def _chk_perm_coset_kernel_core(ctx: SuiteContext):
    """Coset-action kernels equal the brute-force normal core of the point."""
    q8 = quaternion()
    q8_c4_gen = min(raw for raw in q8.raw_elements(ctx.caps)
                    if Permutation(raw).order() == 4)
    cases = [
        ("S4-over-C2", symmetric(4), generate(["(1 2)"], 4)),
        ("S4-over-V4", symmetric(4), generate(["(1 2)(3 4)", "(1 3)(2 4)"], 4)),
        ("D8-over-center", dihedral(8), generate(["(1 3)(2 4)"], 4)),
        ("S3-over-C3", symmetric(3), generate(["(1 2 3)"], 3)),
        ("Q8-over-C4", q8, generate([Permutation(q8_c4_gen)], q8.degree)),
    ]
    bad = []
    for label, G, S in cases:
        hom = coset_action(G, S)
        kernel_set = set(hom.kernel().raw_elements(ctx.caps))
        s_elems = S.raw_elements(ctx.caps)
        core = set(s_elems)
        for g in G.raw_elements(ctx.caps):
            core &= {_conjugate(g, s) for s in s_elems}
        if kernel_set != core:
            bad.append({"case": label, "kernel_order": len(kernel_set),
                        "core_order": len(core)})
    return {"mismatches": bad} if bad else None


@_register("perm-hom-multiplicative")
def _chk_perm_hom_multiplicative(ctx: SuiteContext):
    """Full pairwise f(xy) = f(x)f(y) for a spread of homomorphism builders."""
    s4 = symmetric(4)
    sign_images = [Permutation((1, 0)) if g.parity() == 1 else Permutation.identity(2)
                   for g in s4.generators]
    v4 = generate(["(1 2)(3 4)", "(1 3)(2 4)"], 4)
    _, proj = quotient(s4, v4)
    homs = [
        ("sign-of-S4", GroupHom(s4, cyclic(2), sign_images)),
        ("coset-S4-over-S3", coset_action(s4, point_stabilizer(s4, 3))),
        ("embed-C2-in-C4", GroupHom(cyclic(2), cyclic(4), [Permutation((2, 3, 0, 1))])),
        ("regular-S3", regular_representation(symmetric(3), ctx.caps)),
        ("project-S4-over-V4", proj),
    ]
    bad = []
    for label, h in homs:
        elems = h.source.raw_elements(ctx.caps)
        images = {x: h.apply_raw(x) for x in elems}
        for x in elems:
            fx = images[x]
            for y in elems:
                if images[_compose(x, y)] != _compose(fx, images[y]):
                    bad.append({"hom": label,
                                "x": str(Permutation(x)), "y": str(Permutation(y))})
                    break
            else:
                continue
            break
    return {"violations": bad} if bad else None


# ---------------------------------------------------------------------------
# structure layer
# ---------------------------------------------------------------------------

@_register("structure-normal-lattice-brute")
def _chk_structure_lattice_brute(ctx: SuiteContext):
    """The join-closure normal lattice matches a filter over all subgroups."""
    bad = []
    for name, G in ctx.members():
        if G.order() > 200:
            continue
        lat_sets = {H.element_set(ctx.caps) for H in normal_subgroups(G, ctx.caps).members}
        brute = {S.element_set(ctx.caps)
                 for S in subgroups(G, caps=ctx.caps) if normal_in(G, S)}
        if lat_sets != brute:
            bad.append({"group": name, "lattice_count": len(lat_sets),
                        "brute_count": len(brute)})
    return {"mismatches": bad} if bad else None


@_register("structure-baer-radical")
def _chk_structure_baer_radical(ctx: SuiteContext):
    """The radical is normal, and trivial on simple groups."""
    bad = []
    for name, G in ctx.members():
        if G.order() == 1:
            continue
        rad = baer_radical(G, ctx.caps)
        if not normal_in(G, rad):
            bad.append({"group": name, "problem": "radical not normal"})
        if is_simple(G, ctx.caps) and rad.order() != 1:
            bad.append({"group": name, "problem": "simple group with nontrivial radical",
                        "radical_order": rad.order()})
    return {"violations": bad} if bad else None


@_register("structure-radical-factorization")
def _chk_structure_radical_factorization(ctx: SuiteContext):
    """The maximal-normal family cuts out the radical with simple co-factors
    whose orders multiply to |G/Rad|."""
    bad = []
    for name, G in ctx.members():
        if G.order() == 1:
            continue
        rf = radical_factorization(G, ctx.caps)
        inter = None
        for H in rf.family:
            es = H.element_set(ctx.caps)
            inter = es if inter is None else inter & es
        problems = []
        if inter != rf.radical.element_set(ctx.caps):
            problems.append("family intersection differs from radical")
        product = 1
        for Q in rf.quotients:
            product *= Q.order()
            if not is_simple(Q, ctx.caps):
                problems.append(f"co-factor of order {Q.order()} is not simple")
        if product != G.order() // rf.radical.order():
            problems.append("co-factor orders do not multiply to |G/Rad|")
        if problems:
            bad.append({"group": name, "problems": problems})
    return {"violations": bad} if bad else None


@_register("structure-simple-quotient-lemma")
def _chk_structure_simple_quotient_lemma(ctx: SuiteContext):
    """Every simple quotient of G is a quotient of N or a simple quotient of
    G/N, for every normal subgroup N."""
    bad = []
    for name, G in ctx.members():
        sq = simple_quotients(G, ctx.caps)
        if not sq:
            continue
        for idx, N in enumerate(normal_subgroups(G, ctx.caps).members):
            if N.order() == G.order():
                continue
            over = simple_quotients(lattice_quotient(G, idx, ctx.caps), ctx.caps)
            for S in sq:
                if any(_iso(S, T, ctx.caps) for T in over):
                    continue
                found = False
                for jdx, M in enumerate(normal_subgroups(N, ctx.caps).members):
                    if N.order() != M.order() * S.order():
                        continue
                    if _iso(S, lattice_quotient(N, jdx, ctx.caps), ctx.caps):
                        found = True
                        break
                if not found:
                    bad.append({"group": name, "normal_order": N.order(),
                                "orphan_simple_quotient_order": S.order()})
    return {"counterexamples": bad} if bad else None


@_register("structure-disjoint-normal-covers")
def _chk_structure_disjoint_normal_covers(ctx: SuiteContext):
    """If disjoint normal subgroups U, V both cover G over a normal K
    (KU = KV = G, U ∩ V = 1), then G/K is abelian."""
    bad = []
    for name, G in ctx.members():
        n = G.order()
        lat = normal_subgroups(G, ctx.caps)
        orders = [m.order() for m in lat.members]
        trivial_idx = orders.index(1)
        for i in range(len(orders)):
            for j in range(i, len(orders)):
                if lat.meet(i, j) != trivial_idx:
                    continue
                for k in range(len(orders)):
                    ku = orders[k] * orders[i] // orders[lat.meet(k, i)]
                    if ku != n:
                        continue
                    kv = orders[k] * orders[j] // orders[lat.meet(k, j)]
                    if kv != n:
                        continue
                    if not is_abelian(lattice_quotient(G, k, ctx.caps)):
                        bad.append({"group": name, "k_order": orders[k],
                                    "u_order": orders[i], "v_order": orders[j]})
    return {"counterexamples": bad} if bad else None


@_register("structure-iso-equivalence")
def _chk_structure_iso_equivalence(ctx: SuiteContext):
    """Isomorphism testing is reflexive, symmetric and transitive."""
    bad = []
    for name, G in ctx.members():
        if isomorphic(G, G, ctx.caps) is None:
            bad.append({"group": name, "problem": "not reflexive"})
    for label, (A, B, C) in ctx.iso_trios():
        verdicts = {
            "A~B": isomorphic(A, B, ctx.caps) is not None,
            "B~A": isomorphic(B, A, ctx.caps) is not None,
            "B~C": isomorphic(B, C, ctx.caps) is not None,
            "C~B": isomorphic(C, B, ctx.caps) is not None,
            "A~C": isomorphic(A, C, ctx.caps) is not None,
        }
        if not all(verdicts.values()):
            bad.append({"trio": label, "verdicts": verdicts})
    return {"violations": bad} if bad else None


# ---------------------------------------------------------------------------
# universe layer
# ---------------------------------------------------------------------------

@_register("universe-build-determinism")
def _chk_universe_determinism(ctx: SuiteContext):
    """Catalog building and serialization are byte-deterministic and
    round-trip faithfully."""
    problems = []
    with TemporaryDirectory() as td:
        p1 = str(Path(td) / "one.json")
        p2 = str(Path(td) / "two.json")
        save_catalog(build_universe(4, [], ctx.caps), p1)
        save_catalog(build_universe(4, [], ctx.caps), p2)
        if Path(p1).read_bytes() != Path(p2).read_bytes():
            problems.append("two identical builds serialized differently")
        p3 = str(Path(td) / "three.json")
        p4 = str(Path(td) / "four.json")
        save_catalog(ctx.catalog, p3)
        reloaded = load_catalog(p3, ctx.caps)
        if reloaded.names() != ctx.catalog.names():
            problems.append("round-trip changed the entry names")
        save_catalog(reloaded, p4)
        if Path(p3).read_bytes() != Path(p4).read_bytes():
            problems.append("round-trip changed the serialized bytes")
    return {"problems": problems} if problems else None


@_register("universe-pairwise-distinct")
def _chk_universe_pairwise_distinct(ctx: SuiteContext):
    """No two catalog entries are isomorphic."""
    bad = []
    ms = ctx.members()
    for i in range(len(ms)):
        for j in range(i + 1, len(ms)):
            if ms[i][1].order() != ms[j][1].order():
                continue
            if isomorphic(ms[i][1], ms[j][1], ctx.caps) is not None:
                bad.append({"first": ms[i][0], "second": ms[j][0]})
    return {"duplicates": bad} if bad else None


# ---------------------------------------------------------------------------
# class-calculus layer
# ---------------------------------------------------------------------------

_ISO_CLOSURE_EXPRS = [
    "trivial", "all", "abelian", "cyclic", "nilpotent", "solvable", "simple",
    "p(2)", "pi(2,3)", "le(12)", "altge(5)", "set(C1,C4)", "fnr",
    "hat(cyclic)", "dualn(set(C1,C4),2)", "union(abelian,simple)",
    "inter(solvable,p(2))",
]


@_register("classes-iso-closure")
def _chk_classes_iso_closure(ctx: SuiteContext):
    """Membership verdicts agree across differently realized isomorphic copies.

    Each copy has an evaluator of its own: one shared evaluator would answer
    the second and third copies from its memo of the first."""
    bad = []
    for label, trio in ctx.iso_trios():
        evs = [ClassEval(ctx.caps) for _ in trio]
        for text in _ISO_CLOSURE_EXPRS:
            expr = parse_class_expr(text)
            verdicts = {ev.member(expr, X) for ev, X in zip(evs, trio)}
            if len(verdicts) != 1:
                bad.append({"class": text, "trio": label})
    return {"disagreements": bad} if bad else None


@_register("classes-dual-union-law")
def _chk_classes_dual_union_law(ctx: SuiteContext):
    """dual(union(A,B)) membership is the conjunction of the two duals."""
    pairs = [
        ("set(C1,C2)", "set(C1,C3)"),
        ("abelian", "simple"),
        ("cyclic", "p(2)"),
        ("solvable", "set(C1,C4)"),
    ]
    bad = []
    for ta, tb in pairs:
        both = parse_class_expr(f"dual(union({ta},{tb}))")
        da = parse_class_expr(f"dual({ta})")
        db = parse_class_expr(f"dual({tb})")
        for name, G in ctx.members():
            lhs = ctx.ev.member(both, G)
            rhs = ctx.ev.member(da, G) and ctx.ev.member(db, G)
            if lhs != rhs:
                bad.append({"classes": [ta, tb], "group": name,
                            "dual_of_union": lhs, "conjunction": rhs})
    return {"mismatches": bad} if bad else None


@_register("classes-dual-antitone")
def _chk_classes_dual_antitone(ctx: SuiteContext):
    """The chain cyclic ⊆ abelian ⊆ nilpotent ⊆ solvable reverses under dual."""
    chain = ["cyclic", "abelian", "nilpotent", "solvable"]
    bases = [parse_class_expr(t) for t in chain]
    duals = [parse_class_expr(f"dual({t})") for t in chain]
    bad = []
    for name, G in ctx.members():
        base_vals = [ctx.ev.member(C, G) for C in bases]
        for i in range(3):
            if base_vals[i] and not base_vals[i + 1]:
                bad.append({"group": name, "containment_broken_at": chain[i]})
        dual_vals = [ctx.ev.member(C, G) for C in duals]
        for i in range(3):
            if dual_vals[i + 1] and not dual_vals[i]:
                bad.append({"group": name, "dual_reversal_broken_at": chain[i + 1]})
    return {"violations": bad} if bad else None


@_register("classes-dual-transmits-quotients")
def _chk_classes_dual_transmits_quotients(ctx: SuiteContext):
    """Every dual class is closed under quotients."""
    bad = []
    for text in ["solvable", "abelian", "cyclic", "simple", "p(2)",
                 "set(C1,C4)", "trivial"]:
        report = audit_property(parse_class_expr(f"dual({text})"), ctx.catalog, "C1", ctx.ev)
        if not report.holds:
            bad.append({"class": f"dual({text})",
                        "counterexamples": report.counterexamples[:2]})
    return {"failed_audits": bad} if bad else None


@_register("classes-dual-transmits-extensions")
def _chk_classes_dual_transmits_extensions(ctx: SuiteContext):
    """If a class is quotient-closed, its dual is extension-closed."""
    bad = []
    for text in ["solvable", "abelian", "cyclic", "nilpotent", "p(2)",
                 "all", "trivial"]:
        premise = audit_property(parse_class_expr(text), ctx.catalog, "C1", ctx.ev)
        if not premise.holds:
            bad.append({"class": text, "problem": "premise audit failed",
                        "counterexamples": premise.counterexamples[:2]})
            continue
        report = audit_property(parse_class_expr(f"dual({text})"), ctx.catalog, "C2", ctx.ev)
        if not report.holds:
            bad.append({"class": f"dual({text})",
                        "counterexamples": report.counterexamples[:2]})
    return {"failed_audits": bad} if bad else None


@_register("classes-dual-of-hat")
def _chk_classes_dual_of_hat(ctx: SuiteContext):
    """A class and its iterated-extension closure have the same dual."""
    bad = []
    for text in ["cyclic", "abelian", "p(2)", "solvable", "set(C1,C4)"]:
        d_plain = parse_class_expr(f"dual({text})")
        d_hat = parse_class_expr(f"dual(hat({text}))")
        for name, G in ctx.members():
            a = ctx.ev.member(d_plain, G)
            b = ctx.ev.member(d_hat, G)
            if a != b:
                bad.append({"class": text, "group": name,
                            "dual": a, "dual_of_hat": b})
    return {"mismatches": bad} if bad else None


@_register("classes-hat-closure-audits")
def _chk_classes_hat_closure_audits(ctx: SuiteContext):
    """hat(C) keeps subgroup/quotient closure, is always extension-closed,
    and is meet-closed when C is subgroup-closed."""
    bad = []
    for text in ["cyclic", "abelian", "p(2)"]:
        for which in ("C0", "C1"):
            premise = audit_property(parse_class_expr(text), ctx.catalog, which, ctx.ev)
            if not premise.holds:
                bad.append({"class": text, "audit": which,
                            "problem": "premise audit failed"})
        for which in ("C0", "C1", "C2", "C3"):
            report = audit_property(parse_class_expr(f"hat({text})"), ctx.catalog,
                                    which, ctx.ev)
            if not report.holds:
                bad.append({"class": f"hat({text})", "audit": which,
                            "counterexamples": report.counterexamples[:2]})
    return {"failed_audits": bad} if bad else None


@_register("classes-hat-fixpoints")
def _chk_classes_hat_fixpoints(ctx: SuiteContext):
    """hat(p-groups) is again the p-groups, and hat of a class containing all
    simple groups contains every group."""
    bad = []
    for p in (2, 3):
        hat_p = parse_class_expr(f"hat(p({p}))")
        plain_p = parse_class_expr(f"p({p})")
        for name, G in ctx.members():
            if ctx.ev.member(hat_p, G) != ctx.ev.member(plain_p, G):
                bad.append({"class": f"p({p})", "group": name})
    hat_simple = parse_class_expr("hat(simple)")
    for name, G in ctx.members():
        if not ctx.ev.member(hat_simple, G):
            bad.append({"class": "hat(simple)", "group": name,
                        "problem": "composition series not found"})
    return {"violations": bad} if bad else None


@_register("classes-dual-identities")
def _chk_classes_dual_identities(ctx: SuiteContext):
    """dual(all) is exactly the trivial group; dual(trivial) is everything."""
    bad = []
    d_all = parse_class_expr("dual(all)")
    d_trivial = parse_class_expr("dual(trivial)")
    for name, G in ctx.members():
        if ctx.ev.member(d_all, G) != (G.order() == 1):
            bad.append({"group": name, "class": "dual(all)"})
        if not ctx.ev.member(d_trivial, G):
            bad.append({"group": name, "class": "dual(trivial)"})
    return {"violations": bad} if bad else None


@_register("dual-union-vs-meet-c6")
def _chk_dual_union_vs_meet_c6(ctx: SuiteContext):
    """C6 separates dual-of-union from the duals of the parts: it lies in the
    dual of {1} = {1,C2} ∩ {1,C3} but in neither individual dual."""
    c6 = cyclic(6)
    in_first = ctx.ev.member(parse_class_expr("dual(set(C1,C2))"), c6)
    in_second = ctx.ev.member(parse_class_expr("dual(set(C1,C3))"), c6)
    in_meet = ctx.ev.member(parse_class_expr("dual(inter(set(C1,C2),set(C1,C3)))"), c6)
    in_unit = ctx.ev.member(parse_class_expr("dual(set(C1))"), c6)
    if (not in_first) and (not in_second) and in_meet and in_unit:
        return None
    return {"in_dual_12": in_first, "in_dual_13": in_second,
            "in_dual_meet": in_meet, "in_dual_trivial": in_unit}


@_register("c4-finite-set-chain")
def _chk_c4_finite_set_chain(ctx: SuiteContext):
    """For C = {1, C4}: the C4 chain reads (in, out, out, in); level two keeps
    only the trivial group and level three keeps everything."""
    C = parse_class_expr("set(C1,C4)")
    chain = [ctx.ev.dual_chain_member(C, cyclic(4), k) for k in range(4)]
    bad = []
    if chain != [True, False, False, True]:
        bad.append({"c4_chain": chain, "expected": [True, False, False, True]})
    for name, G in ctx.members():
        if ctx.ev.dual_chain_member(C, G, 2) != (G.order() == 1):
            bad.append({"group": name, "level": 2})
        if not ctx.ev.dual_chain_member(C, G, 3):
            bad.append({"group": name, "level": 3})
    return {"violations": bad} if bad else None


@_register("hat-cyclic-equals-solvable")
def _chk_hat_cyclic_equals_solvable(ctx: SuiteContext):
    """Groups built from cyclic layers are exactly the solvable ones."""
    hat_cyc = parse_class_expr("hat(cyclic)")
    bad = []
    for name, G in ctx.members():
        got = ctx.ev.member(hat_cyc, G)
        want = is_solvable(G)
        if got != want:
            bad.append({"group": name, "hat_cyclic": got, "solvable": want})
    return {"mismatches": bad} if bad else None


@_register("dual-class-equalities")
def _chk_dual_class_equalities(ctx: SuiteContext):
    """The duals of cyclic, abelian, nilpotent and solvable coincide, and equal
    the meet of the p-group duals over the primes dividing each order."""
    duals = [parse_class_expr(f"dual({t})")
             for t in ("cyclic", "abelian", "nilpotent", "solvable")]
    bad = []
    for name, G in ctx.members():
        vals = [ctx.ev.member(D, G) for D in duals]
        if len(set(vals)) != 1:
            bad.append({"group": name, "verdicts": vals})
            continue
        primes = _prime_factors(G.order())
        p_meet = all(ctx.ev.member(parse_class_expr(f"dual(p({p}))"), G) for p in primes)
        if p_meet != vals[0]:
            bad.append({"group": name, "primes": primes,
                        "p_meet": p_meet, "dual_solvable": vals[0]})
    return {"mismatches": bad} if bad else None


@_register("bidual-three-routes")
def _chk_bidual_three_routes(ctx: SuiteContext):
    """Maximal-normal, radical-factorization and two-fold dual evaluation give
    the same bidual verdict."""
    bad = []
    for text in ["abelian", "solvable", "simple", "set(C4)", "set(C1,C4)"]:
        C = parse_class_expr(text)
        for name, G in ctx.members():
            via_chain = ctx.ev.dual_chain_member(C, G, 2)
            via_max = ctx.ev.bidual_member_maxnormal(C, G)
            if G.order() == 1:
                if via_max != via_chain:
                    bad.append({"class": text, "group": name,
                                "maxnormal": via_max, "chain": via_chain})
                continue
            via_rad = ctx.ev.bidual_member_radical(C, G)
            if not (via_max == via_rad == via_chain):
                bad.append({"class": text, "group": name, "maxnormal": via_max,
                            "radical": via_rad, "chain": via_chain})
    return {"mismatches": bad} if bad else None


@_register("dual-chain-cyclicity")
def _chk_dual_chain_cyclicity(ctx: SuiteContext):
    """Odd dual levels collapse from level one (given quotient closure) and
    even levels always collapse from level two."""
    expect_c1 = {"solvable": True, "abelian": True, "set(C1,C4)": False}
    bad = []
    for text, want_c1 in expect_c1.items():
        C = parse_class_expr(text)
        has_c1 = audit_property(C, ctx.catalog, "C1", ctx.ev).holds
        if has_c1 != want_c1:
            bad.append({"class": text, "problem": "unexpected quotient-closure audit",
                        "holds": has_c1})
        for name, G in ctx.members():
            d1, d2, d3, d4 = (ctx.ev.dual_chain_member(C, G, k) for k in (1, 2, 3, 4))
            if d1 and not d3:
                bad.append({"class": text, "group": name,
                            "problem": "level1 not within level3"})
            if d2 != d4:
                bad.append({"class": text, "group": name,
                            "problem": "level2 differs from level4"})
            if has_c1 and d1 != d3:
                bad.append({"class": text, "group": name,
                            "problem": "level1 differs from level3"})
    return {"violations": bad} if bad else None


@_register("taxonomy-table")
def _chk_taxonomy_table(ctx: SuiteContext):
    """Closure taxonomy of seven reference classes, with witnesses on every
    failed audit."""
    full = dict(pre_formation=True, formation=True, extensive_formation=True,
                pre_variety=True, extensive_variety=True)
    partial = dict(pre_formation=True, formation=True, extensive_formation=False,
                   pre_variety=True, extensive_variety=False)
    expected = {
        "solvable": full,
        "p(2)": full,
        "all": full,
        "trivial": full,
        "abelian": partial,
        "nilpotent": partial,
        "cyclic": dict(pre_formation=True, formation=False,
                       extensive_formation=False, pre_variety=True,
                       extensive_variety=False),
    }
    bad = []
    for text, want in expected.items():
        result = classify(parse_class_expr(text), ctx.catalog, ctx.ev)
        if result["flags"] != want:
            bad.append({"class": text, "flags": result["flags"], "expected": want})
        for which, report in sorted(result["reports"].items()):
            if not report.holds and not report.counterexamples:
                bad.append({"class": text, "audit": which,
                            "problem": "failed audit carries no witness"})
    return {"mismatches": bad} if bad else None


@_register("fnr-witnesses")
def _chk_fnr_witnesses(ctx: SuiteContext):
    """Membership of the no-prime-quotient class on marquee groups, with the
    non-hereditary witness: SL(2,5) is in, its central C2 is not."""
    fnr = parse_class_expr("fnr")
    bad = []
    members = [("A5", alternating(5)), ("SL25", special_linear(5))]
    non_members = [("S5", symmetric(5)), ("A4", alternating(4)),
                   ("D8", dihedral(8))]
    for name, G in members:
        if not ctx.ev.member(fnr, G):
            bad.append({"group": name, "expected": "member"})
    for name, G in non_members:
        if ctx.ev.member(fnr, G):
            bad.append({"group": name, "expected": "non-member"})
    for name, G in ctx.members():
        if G.order() > 1 and is_solvable(G) and ctx.ev.member(fnr, G):
            bad.append({"group": name, "expected": "solvable non-member"})
    z = center(special_linear(5), ctx.caps)
    if z.order() != 2 or ctx.ev.member(fnr, z):
        bad.append({"group": "center of SL25", "order": z.order(),
                    "expected": "order-2 non-member"})
    return {"violations": bad} if bad else None


@_register("classes-fnr-characterizations")
def _chk_classes_fnr_characterizations(ctx: SuiteContext):
    """The no-prime-quotient class matches the derived-subgroup test, and its
    own dual matches 'every simple quotient has prime order'."""
    fnr = parse_class_expr("fnr")
    fnr2 = parse_class_expr("dualn(solvable,2)")
    bad = []
    for name, G in ctx.members():
        if G.order() > 1:
            got = ctx.ev.member(fnr, G)
            want = not has_prime_order_quotient(G)
            if got != want:
                bad.append({"group": name, "fnr": got, "no_prime_quotient": want})
        sq = simple_quotients(G, ctx.caps)
        all_prime = all(_is_prime(S.order()) for S in sq)
        got2 = ctx.ev.member(fnr2, G)
        if got2 != all_prime:
            bad.append({"group": name, "double_dual": got2,
                        "simple_quotients_prime": all_prime})
    return {"mismatches": bad} if bad else None


# ---------------------------------------------------------------------------
# realization layer
# ---------------------------------------------------------------------------

@_register("realization-certificates")
def _chk_realization_certificates(ctx: SuiteContext):
    """Fully brute-checked certificates for every small catalog member and for
    C2 inside an ambient C4: all verifications pass, |N(H)|/|H| = |G|, and
    the isomorphism's source is N(H) acting on the cosets of H."""
    bad = []
    for name, cert in ctx.small_realizations():
        for key in ("embedding_multiplicative", "order_arithmetic",
                    "structural_normalizer", "brute_normalizer",
                    "top_quotient", "iso_verified"):
            if cert.checks.get(key) != "passed":
                bad.append({"target": name, "check": key,
                            "status": cert.checks.get(key)})
        if cert.normalizer.order() != cert.h.order() * cert.target.order():
            bad.append({"target": name, "problem": "normalizer index is not |G|",
                        "normalizer_order": cert.normalizer.order(),
                        "h_order": cert.h.order(),
                        "target_order": cert.target.order()})
        if (cert.iso is None or not cert.iso.verify()
                or cert.iso.source.generators
                != coset_action(cert.normalizer, cert.h).image().generators):
            bad.append({"target": name, "problem": "quotient isomorphism failed"})
    return {"violations": bad} if bad else None


@_register("realization-gamma-quotients")
def _chk_realization_gamma_quotients(ctx: SuiteContext):
    """Each ambient group surjects onto its top group over the base power, and
    every simple quotient of the ambient group is a simple quotient of the top
    group or a copy of the bottom group."""
    bad = []
    for name, cert in ctx.small_realizations():
        if cert.checks.get("top_quotient") != "passed":
            bad.append({"target": name, "problem": "top quotient not certified"})
            continue
        allowed = simple_quotients(cert.gn, ctx.caps) + [cert.g0]
        for S in simple_quotients(cert.gamma, ctx.caps):
            if not any(_iso(S, T, ctx.caps) for T in allowed):
                bad.append({"target": name,
                            "orphan_simple_quotient_order": S.order()})
    return {"violations": bad} if bad else None


@_register("realization-perfect-wreaths")
def _chk_realization_perfect_wreaths(ctx: SuiteContext):
    """Wreath products of A5 with perfect top groups have no prime-order
    quotient, including one with a five-coordinate base power."""
    a5 = alternating(5)
    cases = [
        ("A5-times-A5", wreath_by_cosets(a5, alternating(5), alternating(5), ctx.caps)),
        ("A5-times-A7", wreath_by_cosets(a5, alternating(7), alternating(7), ctx.caps)),
        ("A5-wreath-A5-over-A4",
         wreath_by_cosets(a5, alternating(5), point_stabilizer(alternating(5), 4),
                          ctx.caps)),
    ]
    bad = []
    for label, W in cases:
        if has_prime_order_quotient(W.group):
            bad.append({"case": label, "order": W.group.order()})
    return {"violations": bad} if bad else None


@_register("split-extensions")
def _chk_split_extensions(ctx: SuiteContext):
    """Complements exist where the theory demands them: a direct factor, the
    base of a wreath product, and every catalog member with a centerless
    normal subgroup isomorphic to S3."""
    bad = []
    product = generate(["(1 2 3 4 5)", "(3 4 5)", "(6 7)"], 7)
    inner_a5 = generate(["(1 2 3 4 5)", "(3 4 5)"], 7)
    comp = split_check(product, inner_a5, ctx.caps)
    if comp.order() != 2:
        bad.append({"case": "A5-times-C2", "complement_order": comp.order()})
    W = wreath_by_cosets(alternating(5), cyclic(4), generate(["(1 3)(2 4)"], 4),
                         ctx.caps)
    comp2 = split_check(W.group, W.base, ctx.caps)
    if comp2.order() != 4 or isomorphic(comp2, cyclic(4), ctx.caps) is None:
        bad.append({"case": "wreath-over-base", "complement_order": comp2.order()})
    s3 = symmetric(3)
    hosts = []
    for name, G in ctx.members():
        if G.order() % 6:
            continue
        for m in normal_subgroups(G, ctx.caps).members:
            if m.order() != 6 or center(m, ctx.caps).order() != 1:
                continue
            if isomorphic(m, s3, ctx.caps) is None:
                continue
            comp3 = split_check(G, m, ctx.caps)
            hosts.append(name)
            if comp3.order() * 6 != G.order():
                bad.append({"case": f"{name}-over-S3",
                            "complement_order": comp3.order()})
    expected_hosts = sorted(n for n in ("D12", "S3")
                            if ctx.catalog.find(n) is not None)
    if sorted(set(hosts)) != expected_hosts:
        bad.append({"case": "normal-S3-scan", "hosts": sorted(set(hosts)),
                    "expected": expected_hosts})
    return {"violations": bad} if bad else None


@_register("diagonal-converse-sampled")
def _chk_diagonal_converse_sampled(ctx: SuiteContext):
    """Sampled converse in A5 x A5: every generated order-60 subgroup with both
    projections onto is a twisted diagonal, i.e. its element pairs define an
    automorphism of A5."""
    a5 = alternating(5)
    d = a5.degree
    elems = a5.raw_elements(ctx.caps)
    rnd = random.Random(20260823)
    twists = [
        conjugation_automorphism(a5, "()"),
        conjugation_automorphism(a5, "(1 2)"),
        conjugation_automorphism(a5, "(4 5)"),
        conjugation_automorphism(a5, "(1 2 3)"),
    ]

    def pair_raw(a, b):
        return tuple(a) + tuple(p + d for p in b)

    identity_twist = twists[0]
    candidates = []
    for phi in twists:
        diag = diagonal_subgroup(a5, 2, [identity_twist, phi])
        gens = diag.group.raw_gens()
        candidates.append((gens[0], gens[1]))
    for phi in twists[1:]:
        a = elems[rnd.randrange(len(elems))]
        b = elems[rnd.randrange(len(elems))]
        candidates.append((pair_raw(a, phi.apply_raw(a)),
                           pair_raw(b, phi.apply_raw(b))))
    for _ in range(24):
        candidates.append((pair_raw(elems[rnd.randrange(len(elems))],
                                    elems[rnd.randrange(len(elems))]),
                           pair_raw(elems[rnd.randrange(len(elems))],
                                    elems[rnd.randrange(len(elems))])))

    bad = []
    examined = 0
    for x, y in candidates:
        S = generate([Permutation(x), Permutation(y)], 2 * d)
        if S.order() != a5.order():
            continue
        members = S.raw_elements(ctx.caps)
        mapping = {}
        consistent = True
        for e in members:
            head = tuple(e[:d])
            tail = tuple(p - d for p in e[d:])
            if mapping.setdefault(head, tail) != tail:
                consistent = False
        if len(mapping) != a5.order():
            continue  # first projection not onto: out of scope
        if set(mapping.values()) != set(elems):
            continue  # second projection not onto: out of scope
        examined += 1
        if consistent:
            for u in mapping:
                for v in mapping:
                    if mapping[_compose(u, v)] != _compose(mapping[u], mapping[v]):
                        consistent = False
                        break
                if not consistent:
                    break
        if not consistent:
            bad.append({"subgroup_gens": [str(Permutation(x)), str(Permutation(y))]})
    if examined < len(twists):
        bad.append({"problem": "sampling exercised too few diagonal subgroups",
                    "examined": examined})
    return {"violations": bad} if bad else None


@_register("factor-permutation-samples")
def _chk_factor_permutation_samples(ctx: SuiteContext):
    """Automorphisms of A5-powers permute the coordinate factors as blocks."""
    a5 = alternating(5)
    conj = conjugation_automorphism(a5, "(1 2)")
    ident = conjugation_automorphism(a5, "()")
    swap = block_swap_automorphism(a5, 2, 0, 1)
    coordwise = coordinatewise_automorphism(a5, 2, [conj, ident])
    composed = compose_automorphisms(coordwise, swap)
    three_swap = block_swap_automorphism(a5, 3, 0, 2)
    cases = [
        ("swap", swap, 2, (1, 0)),
        ("coordinatewise", coordwise, 2, (0, 1)),
        ("composed", composed, 2, (1, 0)),
        ("three-coordinate-swap", three_swap, 3, (2, 1, 0)),
    ]
    bad = []
    for label, theta, n, want in cases:
        got = factor_permutation_check(a5, n, theta, ctx.caps)
        if got != want:
            bad.append({"case": label, "got": list(got), "expected": list(want)})
    return {"mismatches": bad} if bad else None


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

def run_suite(catalog: Catalog, caps: Caps = DEFAULT_CAPS,
              name_filter: str | None = None) -> list[CheckResult]:
    """Run the registered checks in order, optionally keeping only those whose
    name contains the filter substring."""
    ctx = SuiteContext(catalog, caps)
    results: list[CheckResult] = []
    for name, fn in CHECKS:
        if name_filter is not None and name_filter not in name:
            continue
        start = time.perf_counter()
        try:
            witness = fn(ctx)
            status = "pass" if witness is None else "fail"
        except CapExceeded as exc:
            status, witness = "skipped", {"reason": str(exc)}
        except FalsificationAlarm as exc:
            status, witness = "fail", {"alarm": str(exc)}
        except ClasslabError as exc:
            status, witness = "fail", {"error": type(exc).__name__,
                                       "message": str(exc)}
        results.append(CheckResult(name, status, witness,
                                   time.perf_counter() - start))
    return results
