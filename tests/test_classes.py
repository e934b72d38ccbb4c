"""Tests for the class calculus: grammar, membership, duals, audits."""
import gc
import re
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from classlab import classes
from classlab.classes import (
    Abelian,
    All,
    AltGE,
    AuditReport,
    ClassEval,
    Cyclic,
    Dual,
    DualIter,
    FiniteSet,
    Hat,
    Intersect,
    Nilpotent,
    OrderAtMost,
    PGroup,
    Pi,
    Simple,
    Solvable,
    Trivial,
    Union,
    audit_property,
    classify,
    parse_class_expr,
)
from classlab.config import Caps
from classlab.errors import CapExceeded, InvalidInput, ParseError
from classlab.perm import Permutation, generate, regular_representation
from classlab.structure import fingerprint, is_p_group, is_solvable, subgroups
from classlab.universe import (
    Catalog,
    CatalogEntry,
    alternating,
    build_universe,
    cyclic,
    dihedral,
    klein_four,
    parse_group_spec,
    quaternion,
    special_linear,
    symmetric,
)


@pytest.fixture(scope="module")
def d4_catalog():
    return build_universe(sym_degree=4, extras=[])


@pytest.fixture()
def ev():
    return ClassEval()


# ---------------------------------------------------------------------------
# Grammar


GRAMMAR_ROUND_TRIPS = [
    ("trivial", Trivial()),
    ("all", All()),
    ("abelian", Abelian()),
    ("cyclic", Cyclic()),
    ("nilpotent", Nilpotent()),
    ("solvable", Solvable()),
    ("simple", Simple()),
    ("p(2)", PGroup(2)),
    ("pi(2,3)", Pi((2, 3))),
    ("le(24)", OrderAtMost(24)),
    ("altge(5)", AltGE(5)),
    ("set(C4,Q8)", FiniteSet(("C4", "Q8"))),
    ("union(abelian,simple)", Union(Abelian(), Simple())),
    ("inter(cyclic,p(2))", Intersect(Cyclic(), PGroup(2))),
    ("dual(solvable)", Dual(Solvable())),
    ("hat(cyclic)", Hat(Cyclic())),
    ("dualn(solvable,3)", DualIter(Solvable(), 3)),
]


@pytest.mark.parametrize("text,expected", GRAMMAR_ROUND_TRIPS)
def test_parse_and_render(text, expected):
    expr = parse_class_expr(text)
    assert expr == expected
    assert expr.text() == text
    assert parse_class_expr(expr.text()) == expr


def test_parse_fnr_is_dual_solvable():
    assert parse_class_expr("fnr") == Dual(Solvable())


def test_parse_tolerates_whitespace_and_case():
    expr = parse_class_expr("  DUAL( Union( set( c4 , q8 ) , P(2) ) ) ")
    assert expr == Dual(Union(FiniteSet(("C4", "Q8")), PGroup(2)))


def test_parse_nested():
    expr = parse_class_expr("dualn(inter(union(abelian,simple),le(60)),2)")
    assert expr == DualIter(Intersect(Union(Abelian(), Simple()),
                                      OrderAtMost(60)), 2)


def _readme_grammar_terms() -> list[str]:
    """Every atom and combinator in README's class-expression block, with
    the placeholders a, b, k filled in."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```\natoms", 1)[1].split("```", 1)[0]
    terms = []
    for line in ("atoms" + block).splitlines():
        head, _, rest = line.partition(" ")
        if head in ("atoms", "combinators"):
            terms += rest.split()
        elif line.strip():
            terms.append(line.split()[0])
    fill = {"a": "cyclic", "b": "abelian", "k": "2"}
    return [re.sub(r"\b[abk]\b", lambda m: fill[m.group()], t) for t in terms]


def test_readme_grammar_block_parses():
    terms = _readme_grammar_terms()
    assert "inter(cyclic,abelian)" in terms and "dualn(cyclic,2)" in terms
    assert len(terms) == 18
    for term in terms:
        expr = parse_class_expr(term)
        assert parse_class_expr(expr.text()) == expr


@pytest.mark.parametrize("bad", [
    "",
    "unknownclass",
    "abelian(2)",
    "p()",
    "p(4)",
    "p(x)",
    "pi()",
    "pi(2,four)",
    "le(1,2)",
    "le(0)",
    "le(-3)",
    "altge(0)",
    "altge(-1)",
    "set()",
    "set(E8)",
    "dual(abelian,cyclic)",
    "dualn(all,-1)",
    "dualn(all,x)",
    "union(abelian)",
    "dual(abelian",
    "all all",
    "dual(all))",
])
def test_parse_rejects(bad):
    with pytest.raises(ParseError):
        parse_class_expr(bad)


def test_pgroup_requires_prime():
    with pytest.raises(InvalidInput):
        PGroup(6)
    with pytest.raises(InvalidInput):
        Pi((2, 9))


def test_le_and_altge_require_positive_n():
    assert parse_class_expr("le(1)") == OrderAtMost(1)
    assert parse_class_expr("altge(1)") == AltGE(1)
    with pytest.raises(InvalidInput):
        OrderAtMost(0)
    with pytest.raises(InvalidInput):
        AltGE(-3)


def test_pi_key_sorts_and_dedups():
    assert parse_class_expr("pi(3,2,3)").text() == "pi(2,3)"


# ---------------------------------------------------------------------------
# Atomic membership


def test_atomic_membership(ev):
    S3, A5, D8, C6 = symmetric(3), alternating(5), dihedral(8), cyclic(6)
    Q8, triv = quaternion(), cyclic(1)
    assert ev.member(Trivial(), triv)
    assert not ev.member(Trivial(), S3)
    assert ev.member(All(), S3)
    assert ev.member(Abelian(), C6) and not ev.member(Abelian(), S3)
    assert ev.member(Cyclic(), C6) and not ev.member(Cyclic(), klein_four())
    assert ev.member(Nilpotent(), D8) and not ev.member(Nilpotent(), S3)
    assert ev.member(Solvable(), S3) and not ev.member(Solvable(), A5)
    assert ev.member(Simple(), A5) and not ev.member(Simple(), triv)
    assert ev.member(PGroup(2), Q8) and not ev.member(PGroup(2), C6)
    assert ev.member(PGroup(2), triv)
    assert ev.member(Pi((2, 3)), symmetric(4))
    assert not ev.member(Pi((2, 3)), dihedral(10))
    assert not ev.member(Pi((2, 3)), A5)
    assert ev.member(OrderAtMost(24), symmetric(4))
    assert not ev.member(OrderAtMost(24), A5)


def test_altge_membership(ev):
    C = AltGE(5)
    assert ev.member(C, cyclic(1))
    assert ev.member(C, alternating(5))
    assert ev.member(C, alternating(6))
    assert not ev.member(C, symmetric(5))
    assert not ev.member(C, alternating(4))
    assert not ev.member(C, cyclic(3))
    low = AltGE(3)
    assert ev.member(low, cyclic(3))
    assert ev.member(low, alternating(4))
    assert not ev.member(low, klein_four())


def test_finite_set_membership_is_iso_closed(ev):
    C = FiniteSet(("C4", "Q8"))
    assert ev.member(C, cyclic(4))
    assert ev.member(C, quaternion())
    assert not ev.member(C, klein_four())
    assert not ev.member(C, cyclic(2))
    # a nonstandard realization of C4 on eight points
    other = parse_group_spec("perm8[(1 2 3 4)(5 6 7 8)]")
    assert other.order() == 4
    assert ev.member(C, other)
    assert ev.canon_id(other) == ev.canon_id(cyclic(4))
    assert ev.canon_id(other) != ev.canon_id(klein_four())


def test_union_and_intersection(ev):
    C = Union(Cyclic(), Simple())
    assert ev.member(C, cyclic(6))
    assert ev.member(C, alternating(5))
    assert not ev.member(C, klein_four())
    D = Intersect(Abelian(), PGroup(2))
    assert ev.member(D, klein_four())
    assert not ev.member(D, cyclic(6))
    assert not ev.member(D, quaternion())


# ---------------------------------------------------------------------------
# Duals


def test_dual_of_all_is_trivial_class(ev):
    C = Dual(All())
    assert ev.member(C, cyclic(1))
    for G in (cyclic(2), symmetric(3), alternating(5)):
        assert not ev.member(C, G)


def test_dual_of_trivial_class_is_all(ev):
    C = Dual(Trivial())
    for G in (cyclic(1), cyclic(2), symmetric(4), alternating(5)):
        assert ev.member(C, G)


def test_fnr_membership(ev):
    fnr = parse_class_expr("fnr")
    assert ev.member(fnr, alternating(5))
    assert ev.member(fnr, special_linear(5))
    assert ev.member(fnr, cyclic(1))
    for G in (symmetric(5), alternating(4), dihedral(8), cyclic(6),
              symmetric(3)):
        assert not ev.member(fnr, G), G.name


def test_dual_witness_is_least(ev):
    S5 = symmetric(5)
    witness = ev.dual_witness(Solvable(), S5)
    assert witness is not None and witness.order() == 60
    # any solvable nontrivial group fails through its trivial subgroup
    witness = ev.dual_witness(Solvable(), cyclic(6))
    assert witness is not None and witness.order() == 1
    assert ev.dual_witness(Solvable(), alternating(5)) is None


def test_member_trace_dual(ev):
    value, trace = ev.member_trace(parse_class_expr("fnr"), symmetric(5))
    assert value is False
    assert trace["witness_normal_order"] == 60
    assert trace["quotient_order"] == 2
    value, trace = ev.member_trace(parse_class_expr("fnr"), alternating(5))
    assert value is True and trace == {}


# ---------------------------------------------------------------------------
# Associated (hat) classes


def test_hat_cyclic_series_for_s4(ev):
    value, trace = ev.member_trace(Hat(Cyclic()), symmetric(4))
    assert value is True
    assert trace["series_orders"] == [1, 2, 4, 12, 24]
    series = ev.hat_series(Cyclic(), symmetric(4))
    orders = [S.order() for S in series]
    assert orders == [1, 2, 4, 12, 24]
    # consecutive containment
    for small, big in zip(series, series[1:]):
        assert small.is_subgroup_of(big)


def test_hat_cyclic_rejects_a5(ev):
    assert not ev.member(Hat(Cyclic()), alternating(5))
    assert ev.hat_series(Cyclic(), alternating(5)) is None


def test_hat_abelian_agrees_with_solvable(ev):
    C = Hat(Abelian())
    for G in (symmetric(4), alternating(4), dihedral(8), quaternion(),
              cyclic(6), alternating(5), symmetric(5), cyclic(1)):
        assert ev.member(C, G) == is_solvable(G)


def test_hat_p_group_agrees_with_p_group(ev):
    C = Hat(PGroup(2))
    for G in (dihedral(8), quaternion(), cyclic(8), cyclic(6), symmetric(4),
              cyclic(1), klein_four()):
        assert ev.member(C, G) == is_p_group(G, 2)


def test_hat_trivial_group_always_in(ev):
    assert ev.member(Hat(Simple()), cyclic(1))
    series = ev.hat_series(Simple(), cyclic(1))
    assert [S.order() for S in series] == [1]


# ---------------------------------------------------------------------------
# Iterated duals


def test_dual_iter_chain_on_c4(ev):
    C4 = cyclic(4)
    chain = [ev.member(DualIter(FiniteSet(("C1", "C4")), k), C4)
             for k in range(4)]
    assert chain == [True, False, False, True]


def test_dual_iter_chain_on_c2(ev):
    C2 = cyclic(2)
    chain = [ev.member(DualIter(FiniteSet(("C1", "C4")), k), C2)
             for k in range(4)]
    assert chain == [False, True, False, True]


def test_dual_iter_zero_is_base(ev):
    assert ev.member(DualIter(Solvable(), 0), symmetric(4))
    assert not ev.member(DualIter(Solvable(), 0), alternating(5))


def test_dual_chain_depth_cap(ev):
    with pytest.raises(CapExceeded, match=r"^dual-iteration depth 6 exceeds configured "
                                          r"depth 5$"):
        ev.dual_chain_member(Solvable(), cyclic(2), 6)
    deep = ClassEval(Caps(dual_depth=8))
    assert deep.dual_chain_member(Trivial(), cyclic(2), 6) in (True, False)


def test_double_dual_equals_quadruple_dual(ev):
    C = FiniteSet(("C1", "C4"))
    for G in (cyclic(1), cyclic(2), cyclic(4), klein_four(), symmetric(3),
              symmetric(4), alternating(5)):
        assert ev.member(DualIter(C, 2), G) == ev.member(DualIter(C, 4), G)


# ---------------------------------------------------------------------------
# Bidual routes


BIDUAL_SAMPLE_CLASSES = ["solvable", "abelian", "set(C1,C4)", "p(2)",
                         "cyclic", "trivial"]


@pytest.mark.parametrize("text", BIDUAL_SAMPLE_CLASSES)
def test_bidual_routes_agree(ev, text):
    C = parse_class_expr(text)
    groups = [cyclic(1), cyclic(2), cyclic(4), cyclic(6), klein_four(),
              symmetric(3), symmetric(4), alternating(4), dihedral(8),
              quaternion(), alternating(5), symmetric(5), special_linear(5)]
    for G in groups:
        direct = ev.member(DualIter(C, 2), G)
        assert ev.bidual_member_maxnormal(C, G) == direct, (text, G.name)
        if G.order() > 1:
            assert ev.bidual_member_radical(C, G) == direct, (text, G.name)


def test_bidual_radical_rejects_trivial(ev):
    with pytest.raises(InvalidInput):
        ev.bidual_member_radical(Solvable(), cyclic(1))


def test_bidual_maxnormal_trivial_group(ev):
    assert ev.bidual_member_maxnormal(Solvable(), cyclic(1))


# ---------------------------------------------------------------------------
# The union/intersection boundary example


def test_dual_union_vs_dual_of_intersection(ev):
    C6 = cyclic(6)
    in_union = ev.member(parse_class_expr(
        "union(dual(set(C1,C2)),dual(set(C1,C3)))"), C6)
    in_dual_of_meet = ev.member(parse_class_expr(
        "dual(inter(set(C1,C2),set(C1,C3)))"), C6)
    assert not in_union
    assert in_dual_of_meet


# ---------------------------------------------------------------------------
# Audits over the degree-4 catalog


def test_audit_abelian(d4_catalog, ev):
    assert audit_property(Abelian(), d4_catalog, "C0", ev).holds
    assert audit_property(Abelian(), d4_catalog, "C1", ev).holds
    r2 = audit_property(Abelian(), d4_catalog, "C2", ev)
    assert not r2.holds
    assert r2.counterexamples[0]["group"] == "S3"
    assert audit_property(Abelian(), d4_catalog, "C3", ev).holds


def test_audit_cyclic(d4_catalog, ev):
    assert audit_property(Cyclic(), d4_catalog, "C0", ev).holds
    assert audit_property(Cyclic(), d4_catalog, "C1", ev).holds
    r3 = audit_property(Cyclic(), d4_catalog, "C3", ev)
    assert not r3.holds
    first = r3.counterexamples[0]
    assert first["group"] == "V4"
    assert first["h1_order"] == 2 and first["h2_order"] == 2
    assert first["meet_order"] == 1 and first["meet_quotient_order"] == 4


def test_audit_solvable_all_hold(d4_catalog, ev):
    for which in ("C0", "C1", "C2", "C3"):
        report = audit_property(Solvable(), d4_catalog, which, ev)
        assert report.holds, which
        assert not report.skipped


def test_audit_nilpotent(d4_catalog, ev):
    assert audit_property(Nilpotent(), d4_catalog, "C0", ev).holds
    assert audit_property(Nilpotent(), d4_catalog, "C1", ev).holds
    r2 = audit_property(Nilpotent(), d4_catalog, "C2", ev)
    assert not r2.holds and r2.counterexamples[0]["group"] == "S3"
    assert audit_property(Nilpotent(), d4_catalog, "C3", ev).holds


def test_audit_simple_quotient_closure_fails(d4_catalog, ev):
    report = audit_property(Simple(), d4_catalog, "C1", ev)
    assert not report.holds
    assert report.counterexamples[0]["quotient_order"] == 1


def test_audit_rejects_unknown_property(d4_catalog, ev):
    with pytest.raises(InvalidInput):
        audit_property(Abelian(), d4_catalog, "C9", ev)


def test_audit_skips_on_subgroup_cap(d4_catalog):
    small = ClassEval(Caps(subgroup_limit=5))
    report = audit_property(All(), d4_catalog, "C0", small)
    assert report.holds
    skipped_names = {entry["group"] for entry in report.skipped}
    assert "S4" in skipped_names


def _one_group_catalog(spec):
    G = parse_group_spec(spec)
    return Catalog([CatalogEntry(spec, G, fingerprint(G))], {"sym_degree": None})


def test_c0_canonicalizes_one_subgroup_per_conjugacy_class(monkeypatch):
    calls = []
    canon_id = ClassEval.canon_id

    def counted(self, G):
        calls.append(G)
        return canon_id(self, G)

    monkeypatch.setattr(ClassEval, "canon_id", counted)
    catalog = _one_group_catalog("S5")
    assert audit_property(All(), catalog, "C0", ClassEval()).holds
    # S5 itself, then the first member of each of its 19 subgroup classes.
    assert len(calls) == 20


def test_c0_lists_every_failing_subgroup_in_list_order():
    catalog = _one_group_catalog("A5")
    report = audit_property(Simple(), catalog, "C0", ClassEval())
    reference = ClassEval()
    expected = [{"group": "A5", "subgroup_order": S.order(), "subgroup_gens": S.gen_strings()}
                for S in subgroups(catalog.entries[0].group)
                if not reference.member(Simple(), S)]
    assert len(expected) > 9
    assert report.counterexamples == expected


def test_audit_report_json_shape(d4_catalog, ev):
    report = audit_property(Abelian(), d4_catalog, "C2", ev)
    data = report.to_json_dict()
    assert data["property"] == "C2"
    assert data["class"] == "abelian"
    assert data["holds"] is False
    assert isinstance(data["counterexamples"], list)
    assert "catalog of 9 groups" in data["domain"]


# ---------------------------------------------------------------------------
# Classification flags


def test_classify_solvable(d4_catalog, ev):
    flags = classify(Solvable(), d4_catalog, ev)["flags"]
    assert flags == {
        "pre_formation": True,
        "formation": True,
        "extensive_formation": True,
        "pre_variety": True,
        "extensive_variety": True,
    }


def test_classify_abelian(d4_catalog, ev):
    flags = classify(Abelian(), d4_catalog, ev)["flags"]
    assert flags["pre_formation"] and flags["formation"]
    assert flags["pre_variety"]
    assert not flags["extensive_formation"]
    assert not flags["extensive_variety"]


def test_classify_cyclic(d4_catalog, ev):
    flags = classify(Cyclic(), d4_catalog, ev)["flags"]
    assert flags["pre_formation"] and flags["pre_variety"]
    assert not flags["formation"]
    assert not flags["extensive_variety"]


def test_classify_trivial_class(d4_catalog, ev):
    flags = classify(Trivial(), d4_catalog, ev)["flags"]
    assert all(flags.values())


# ---------------------------------------------------------------------------
# Memoization reuses iso types


def test_memo_shared_across_realizations(ev):
    fnr = parse_class_expr("fnr")
    natural = alternating(5)
    assert ev.member(fnr, natural)
    size_before = len(ev._memo)
    # the image of A5 acting on the cosets of a D10 subgroup, degree 6
    from classlab.perm import coset_action, generate
    D10 = generate(["(1 2 3 4 5)", "(2 5)(3 4)"], 5)
    other = coset_action(natural, D10).image()
    assert other.degree == 6 and other.order() == 60
    assert ev.member(fnr, other)
    assert len(ev._memo) == size_before
    assert ev.canon_id(other) == ev.canon_id(natural)


def test_evaluator_does_not_keep_groups_alive(ev):
    # The first S4 becomes the registry's representative of its type; a second
    # parse joins that type, then is dropped by the caller.
    ev.member(Solvable(), parse_group_spec("S4"))
    dual_abelian = Dual(Abelian())
    G = parse_group_spec("S4")
    answer = ev.member(dual_abelian, G)
    gid = ev.canon_id(G)
    ref = weakref.ref(G)
    del G
    gc.collect()
    assert ref() is None
    again = parse_group_spec("S4")
    assert ev.member(dual_abelian, again) == answer
    assert ev.canon_id(again) == gid


# ---------------------------------------------------------------------------
# One evaluation per isomorphism type


def _conjugate(G, pi):
    """The conjugate πGπ⁻¹ in Sym(n), as a group with its own generators."""
    inv = [0] * len(pi)
    for i, x in enumerate(pi):
        inv[x] = i
    return generate([tuple(pi[g[inv[i]]] for i in range(len(pi))) for g in G.raw_gens()],
                    G.degree)


@st.composite
def iso_copies(draw):
    """A cyclic group, or its direct product with S3, D8 or Q8 (each factor
    on its own points), and three isomorphic copies of it: a fresh group on
    the same generators, a conjugate in Sym(n) and the left-regular image."""
    n = draw(st.integers(min_value=1, max_value=6))
    factor = draw(st.sampled_from([None, symmetric(3), dihedral(8), quaternion()]))
    blocks = [] if factor is None else [factor]
    blocks.append(cyclic(n))
    degree = sum(B.degree for B in blocks)
    gens, offset = [], 0
    for B in blocks:
        for g in B.raw_gens():
            gens.append(tuple(range(offset)) + tuple(offset + x for x in g)
                        + tuple(range(offset + B.degree, degree)))
        offset += B.degree
    G = generate(gens, degree)
    pi = draw(st.permutations(list(range(degree))).map(tuple), label="pi")
    return [G, generate(gens, degree), _conjugate(G, pi),
            regular_representation(G).image()]


ORACLE_EXPRS = [
    "dual(abelian)", "dual(set(C2))", "hat(cyclic)", "hat(p(2))",
    "dualn(set(C1,C2),2)", "union(p(3),set(S3,Q8))", "set(C6,D8,Q8)",
    "altge(3)", "inter(nilpotent,dual(cyclic))",
]


@given(iso_copies())
@settings(max_examples=25, deadline=None)
def test_shared_evaluator_agrees_with_one_evaluator_per_copy(copies):
    # A fresh evaluator per copy evaluates each copy on its own lattice; the
    # shared one evaluates them all on the first copy.  Mutation note: an
    # evaluator whose verdict reads G.degree separates the two (see the test
    # below), and it still trips the `classes-iso-closure` check, which gives
    # each copy its own evaluator (tests/test_suite.py).
    shared = ClassEval()
    for text in ORACLE_EXPRS:
        C = parse_class_expr(text)
        fresh = [ClassEval().member(C, X) for X in copies]
        assert len(set(fresh)) == 1, text
        assert [shared.member(C, X) for X in copies] == fresh, text
    assert len({shared.canon_id(X) for X in copies}) == 1


def test_degree_dependent_verdict_separates_fresh_and_shared_evaluators(monkeypatch):
    monkeypatch.setattr(classes, "is_nilpotent", lambda G: G.degree <= 5)
    copies = [symmetric(3), regular_representation(symmetric(3)).image()]
    assert [ClassEval().member(Nilpotent(), X) for X in copies] == [True, False]
    shared = ClassEval()
    assert [shared.member(Nilpotent(), X) for X in copies] == [True, True]


@pytest.fixture()
def work(monkeypatch):
    """The arguments of every isomorphism search, fingerprint and lattice
    the evaluator asks for."""
    calls = {"isomorphic": [], "fingerprint": [], "normal_subgroups": []}
    for name, log in calls.items():
        real = getattr(classes, name)

        def counted(*args, _real=real, _log=log):
            _log.append(args)
            return _real(*args)

        monkeypatch.setattr(classes, name, counted)
    return calls


def test_equal_subgroups_join_their_type_without_a_search(work):
    ev = ClassEval()
    first = parse_group_spec("S5")
    fnr = Dual(Solvable())
    assert not ev.member(fnr, first)
    assert len(work["fingerprint"]) > 0
    for log in work.values():
        log.clear()
    # a fresh parse has the same generators; S5 on other generators is the
    # same subgroup of Sym(5)
    again = parse_group_spec("S5")
    regenerated = generate(["(1 2 3 4 5)", "(1 2)", "(1 3)"], 5)
    for G in (again, regenerated):
        assert not ev.member(fnr, G)
        assert ev.canon_id(G) == ev.canon_id(first)
    assert work["isomorphic"] == [] and work["fingerprint"] == []


def test_conjugated_copy_is_searched_once_and_evaluated_on_the_representative(work):
    ev = ClassEval()
    rep = dihedral(8)
    dual_abelian, hat_cyclic = Dual(Abelian()), Hat(Cyclic())
    assert not ev.member(dual_abelian, rep)
    for log in work.values():
        log.clear()
    # conjugating by (2 3) moves D8 to another of the three D8s in S4
    copy = _conjugate(rep, (0, 2, 1, 3))
    assert not copy.same_group(rep)
    assert not ev.member(dual_abelian, copy)
    assert len(work["isomorphic"]) == 1 and len(work["fingerprint"]) == 1
    # new expressions search only among the representative's quotients
    assert ev.member(hat_cyclic, copy)
    assert not ev.member(Dual(Cyclic()), copy)
    assert [args for args in work["isomorphic"] if copy in args] == [work["isomorphic"][0]]
    assert all(args[0] is not copy for args in work["normal_subgroups"])
    assert "normal_lattice" not in copy._cache

    # traces are read off the copy itself
    def perms(gen_strings):
        return [Permutation.from_cycles(s, 4) for s in gen_strings]

    _, trace = ev.member_trace(dual_abelian, copy)
    assert all(copy.contains(p) for p in perms(trace["witness_normal_gens"]))
    _, trace = ev.member_trace(hat_cyclic, copy)
    assert trace["series_gens"][-1] == copy.gen_strings()
    assert all(copy.contains(p) for gens in trace["series_gens"] for p in perms(gens))
    assert not all(rep.contains(p) for p in perms(trace["series_gens"][-1]))
