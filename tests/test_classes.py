"""Tests for the class calculus: grammar, membership, duals, audits."""
import gc
import random
import re
import weakref
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from classlab import classes, structure, suite
from classlab.classes import (
    AuditReport,
    ClassEval,
    ClassExpr,
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
    ("trivial", ClassExpr("trivial")),
    ("all", ClassExpr("all")),
    ("abelian", ClassExpr("abelian")),
    ("cyclic", ClassExpr("cyclic")),
    ("nilpotent", ClassExpr("nilpotent")),
    ("solvable", ClassExpr("solvable")),
    ("simple", ClassExpr("simple")),
    ("p(2)", ClassExpr("p", 2)),
    ("pi(2,3)", ClassExpr("pi", 2, 3)),
    ("le(24)", ClassExpr("le", 24)),
    ("altge(5)", ClassExpr("altge", 5)),
    ("set(C4,Q8)", ClassExpr("set", "C4", "Q8")),
    ("union(abelian,simple)", ClassExpr("union", ClassExpr("abelian"), ClassExpr("simple"))),
    ("inter(cyclic,p(2))", ClassExpr("inter", ClassExpr("cyclic"), ClassExpr("p", 2))),
    ("dual(solvable)", ClassExpr("dual", ClassExpr("solvable"))),
    ("hat(cyclic)", ClassExpr("hat", ClassExpr("cyclic"))),
    ("dualn(solvable,3)", ClassExpr("dualn", ClassExpr("solvable"), 3)),
    ("le(1)", ClassExpr("le", 1)),
    ("altge(1)", ClassExpr("altge", 1)),
]


@pytest.mark.parametrize("text,expected", GRAMMAR_ROUND_TRIPS)
def test_parse_and_render(text, expected):
    expr = parse_class_expr(text)
    assert expr == expected
    assert (expr.op, expr.args) == (expected.op, expected.args)
    assert expr.text() == text
    assert parse_class_expr(expr.text()) == expr


@pytest.mark.parametrize("text,canonical", [
    ("set(Q8,C4)", "set(C4,Q8)"),
    ("set(C4,C4)", "set(C4)"),
    ("set(s3,C4,q8,C4)", "set(C4,Q8,S3)"),
    ("pi(3,2,3)", "pi(2,3)"),
])
def test_sets_are_sorted_and_deduplicated(text, canonical):
    expr = parse_class_expr(text)
    assert expr.text() == canonical
    assert expr == parse_class_expr(canonical)
    assert hash(expr) == hash(parse_class_expr(canonical))


def test_parse_fnr_is_dual_solvable():
    assert parse_class_expr("fnr") == parse_class_expr("dual(solvable)")


def test_parse_tolerates_whitespace_and_case():
    expr = parse_class_expr("  DUAL( Union( set( c4 , q8 ) , P(2) ) ) ")
    assert expr == parse_class_expr("dual(union(set(C4,Q8),p(2)))")


def test_parse_nested():
    expr = parse_class_expr("dualn(inter(union(abelian,simple),le(60)),2)")
    inner = ClassExpr("inter", ClassExpr("union", ClassExpr("abelian"), ClassExpr("simple")),
                      ClassExpr("le", 60))
    assert expr == ClassExpr("dualn", inner, 2)
    assert expr.args[0].args[0].args == (ClassExpr("abelian"), ClassExpr("simple"))


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


def _operators(expr):
    """The operators a class expression uses, at any depth."""
    return {expr.op}.union(*(_operators(a) for a in expr.args if isinstance(a, ClassExpr)))


def test_readme_grammar_and_iso_closure_check_cover_every_operator():
    named = {re.match(r"\w+", term).group() for term in _readme_grammar_terms()}
    assert named == set(classes._OPS) | {"fnr"}
    used = set().union(*(_operators(parse_class_expr(t)) for t in suite._ISO_CLOSURE_EXPRS))
    assert used == set(classes._OPS)


def test_unknown_operator_is_rejected_when_a_node_is_built():
    with pytest.raises(InvalidInput, match="unknown class operator 'fnr'"):
        ClassExpr("fnr")


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
    "p(6)",
    "pi(2,9)",
    "altge(-3)",
    "fnr(2)",
])
def test_parse_rejects(bad):
    with pytest.raises(ParseError):
        parse_class_expr(bad)


def test_pi_key_sorts_and_dedups():
    assert parse_class_expr("pi(3,2,3)").text() == "pi(2,3)"


_PRIMES = st.sampled_from([2, 3, 5, 7])
_LEAVES = st.one_of(
    st.sampled_from(["trivial", "all", "abelian", "cyclic", "nilpotent", "solvable",
                     "simple", "fnr", "Abelian"]),
    _PRIMES.map("p({})".format),
    st.lists(_PRIMES, min_size=1, max_size=5).map(
        lambda ps: "pi({})".format(",".join(map(str, ps)))),
    st.integers(1, 200).map("le({})".format),
    st.integers(1, 8).map("altge({})".format),
    st.lists(st.sampled_from(["C1", "C4", "q8", "S3", "perm3[(1 2 3)]"]),
             min_size=1, max_size=3).map(lambda specs: "set({})".format(",".join(specs))),
)
CLASS_TEXTS = st.recursive(_LEAVES, lambda sub: st.one_of(
    st.tuples(st.sampled_from(["union", "inter"]), sub, sub).map("{0[0]}({0[1]},{0[2]})".format),
    st.tuples(st.sampled_from(["dual", "hat"]), sub).map("{0[0]}({0[1]})".format),
    st.tuples(sub, st.integers(0, 4)).map("dualn({0[0]},{0[1]})".format),
), max_leaves=6)


def _reshuffle_sets(text, rnd):
    """The same expression with the arguments of each `pi` and `set`
    shuffled and one of them repeated."""
    def shuffled(m):
        items = m.group(2).split(",")
        rnd.shuffle(items)
        return "{}({})".format(m.group(1), ",".join(items + [rnd.choice(items)]))
    return re.sub(r"\b(pi|set)\(((?:[^()]|\([^()]*\))*)\)", shuffled, text)


@given(CLASS_TEXTS, CLASS_TEXTS, st.randoms(use_true_random=False))
@example("union(pi(3,2),abelian)", "union(pi(2,3),abelian)", random.Random(0))
@example("set(Q8,C4)", "set(C4,Q8)", random.Random(0))
@example("dual(set(C4,C4))", "dual(set(C4))", random.Random(0))
@settings(max_examples=200, deadline=None)
def test_expressions_are_equal_exactly_when_their_texts_are(t1, t2, rnd):
    e1, e2 = parse_class_expr(t1), parse_class_expr(t2)
    same = parse_class_expr(_reshuffle_sets(t1, rnd))
    for e in (e1, e2, same):
        assert parse_class_expr(e.text()) == e
    assert same.text() == e1.text()
    assert same == e1 and hash(same) == hash(e1)
    assert (e1 == e2) == (e1.text() == e2.text())
    assert (e1 != e2) == (e1.text() != e2.text())


# ---------------------------------------------------------------------------
# Atomic membership


def test_atomic_membership(ev):
    S3, A5, D8, C6 = symmetric(3), alternating(5), dihedral(8), cyclic(6)
    Q8, triv = quaternion(), cyclic(1)

    def member(text, G):
        return ev.member(parse_class_expr(text), G)

    assert member("trivial", triv)
    assert not member("trivial", S3)
    assert member("all", S3)
    assert member("abelian", C6) and not member("abelian", S3)
    assert member("cyclic", C6) and not member("cyclic", klein_four())
    assert member("nilpotent", D8) and not member("nilpotent", S3)
    assert member("solvable", S3) and not member("solvable", A5)
    assert member("simple", A5) and not member("simple", triv)
    assert member("p(2)", Q8) and not member("p(2)", C6)
    assert member("p(2)", triv)
    assert member("pi(2,3)", symmetric(4))
    assert not member("pi(2,3)", dihedral(10))
    assert not member("pi(2,3)", A5)
    assert member("le(24)", symmetric(4))
    assert not member("le(24)", A5)


def test_altge_membership(ev):
    C = parse_class_expr("altge(5)")
    assert ev.member(C, cyclic(1))
    assert ev.member(C, alternating(5))
    assert ev.member(C, alternating(6))
    assert not ev.member(C, symmetric(5))
    assert not ev.member(C, alternating(4))
    assert not ev.member(C, cyclic(3))
    low = parse_class_expr("altge(3)")
    assert ev.member(low, cyclic(3))
    assert ev.member(low, alternating(4))
    assert not ev.member(low, klein_four())


def test_finite_set_membership_is_iso_closed(ev):
    C = parse_class_expr("set(C4,Q8)")
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
    C = parse_class_expr("union(cyclic,simple)")
    assert ev.member(C, cyclic(6))
    assert ev.member(C, alternating(5))
    assert not ev.member(C, klein_four())
    D = parse_class_expr("inter(abelian,p(2))")
    assert ev.member(D, klein_four())
    assert not ev.member(D, cyclic(6))
    assert not ev.member(D, quaternion())


# ---------------------------------------------------------------------------
# Duals


def test_dual_of_all_is_trivial_class(ev):
    C = parse_class_expr("dual(all)")
    assert ev.member(C, cyclic(1))
    for G in (cyclic(2), symmetric(3), alternating(5)):
        assert not ev.member(C, G)


def test_dual_of_trivial_class_is_all(ev):
    C = parse_class_expr("dual(trivial)")
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
    witness = ev.dual_witness(parse_class_expr("solvable"), S5)
    assert witness is not None and witness.order() == 60
    # any solvable nontrivial group fails through its trivial subgroup
    witness = ev.dual_witness(parse_class_expr("solvable"), cyclic(6))
    assert witness is not None and witness.order() == 1
    assert ev.dual_witness(parse_class_expr("solvable"), alternating(5)) is None


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
    value, trace = ev.member_trace(parse_class_expr("hat(cyclic)"), symmetric(4))
    assert value is True
    assert trace["series_orders"] == [1, 2, 4, 12, 24]
    series = ev.hat_series(parse_class_expr("cyclic"), symmetric(4))
    orders = [S.order() for S in series]
    assert orders == [1, 2, 4, 12, 24]
    # consecutive containment
    for small, big in zip(series, series[1:]):
        assert small.is_subgroup_of(big)


def test_hat_cyclic_rejects_a5(ev):
    assert not ev.member(parse_class_expr("hat(cyclic)"), alternating(5))
    assert ev.hat_series(parse_class_expr("cyclic"), alternating(5)) is None


def test_hat_abelian_agrees_with_solvable(ev):
    C = parse_class_expr("hat(abelian)")
    for G in (symmetric(4), alternating(4), dihedral(8), quaternion(),
              cyclic(6), alternating(5), symmetric(5), cyclic(1)):
        assert ev.member(C, G) == is_solvable(G)


def test_hat_p_group_agrees_with_p_group(ev):
    C = parse_class_expr("hat(p(2))")
    for G in (dihedral(8), quaternion(), cyclic(8), cyclic(6), symmetric(4),
              cyclic(1), klein_four()):
        assert ev.member(C, G) == is_p_group(G, 2)


def test_hat_trivial_group_always_in(ev):
    assert ev.member(parse_class_expr("hat(simple)"), cyclic(1))
    series = ev.hat_series(parse_class_expr("simple"), cyclic(1))
    assert [S.order() for S in series] == [1]


# ---------------------------------------------------------------------------
# Iterated duals


def test_dual_iter_chain_on_c4(ev):
    C4 = cyclic(4)
    chain = [ev.member(parse_class_expr(f"dualn(set(C1,C4),{k})"), C4)
             for k in range(4)]
    assert chain == [True, False, False, True]


def test_dual_iter_chain_on_c2(ev):
    C2 = cyclic(2)
    chain = [ev.member(parse_class_expr(f"dualn(set(C1,C4),{k})"), C2)
             for k in range(4)]
    assert chain == [False, True, False, True]


def test_dual_iter_zero_is_base(ev):
    assert ev.member(parse_class_expr("dualn(solvable,0)"), symmetric(4))
    assert not ev.member(parse_class_expr("dualn(solvable,0)"), alternating(5))


def test_dual_chain_depth_cap(ev):
    with pytest.raises(CapExceeded, match=r"^dual-iteration depth 6 exceeds configured "
                                          r"depth 5$"):
        ev.dual_chain_member(parse_class_expr("solvable"), cyclic(2), 6)


def test_double_dual_equals_quadruple_dual(ev):
    C = parse_class_expr("set(C1,C4)")
    for G in (cyclic(1), cyclic(2), cyclic(4), klein_four(), symmetric(3),
              symmetric(4), alternating(5)):
        assert (ev.member(parse_class_expr(f"dualn({C},2)"), G)
                == ev.member(parse_class_expr(f"dualn({C},4)"), G))


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
        direct = ev.member(parse_class_expr(f"dualn({text},2)"), G)
        assert ev.bidual_member_maxnormal(C, G) == direct, (text, G.name)
        if G.order() > 1:
            assert ev.bidual_member_radical(C, G) == direct, (text, G.name)


def test_bidual_radical_rejects_trivial(ev):
    with pytest.raises(InvalidInput):
        ev.bidual_member_radical(parse_class_expr("solvable"), cyclic(1))


def test_bidual_maxnormal_trivial_group(ev):
    assert ev.bidual_member_maxnormal(parse_class_expr("solvable"), cyclic(1))


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
    C = parse_class_expr("abelian")
    assert audit_property(C, d4_catalog, "C0", ev).holds
    assert audit_property(C, d4_catalog, "C1", ev).holds
    r2 = audit_property(C, d4_catalog, "C2", ev)
    assert not r2.holds
    assert r2.counterexamples[0]["group"] == "S3"
    assert audit_property(C, d4_catalog, "C3", ev).holds


def test_audit_cyclic(d4_catalog, ev):
    C = parse_class_expr("cyclic")
    assert audit_property(C, d4_catalog, "C0", ev).holds
    assert audit_property(C, d4_catalog, "C1", ev).holds
    r3 = audit_property(C, d4_catalog, "C3", ev)
    assert not r3.holds
    first = r3.counterexamples[0]
    assert first["group"] == "V4"
    assert first["h1_order"] == 2 and first["h2_order"] == 2
    assert first["meet_order"] == 1 and first["meet_quotient_order"] == 4


def test_audit_solvable_all_hold(d4_catalog, ev):
    for which in ("C0", "C1", "C2", "C3"):
        report = audit_property(parse_class_expr("solvable"), d4_catalog, which, ev)
        assert report.holds, which
        assert not report.skipped


def test_audit_nilpotent(d4_catalog, ev):
    C = parse_class_expr("nilpotent")
    assert audit_property(C, d4_catalog, "C0", ev).holds
    assert audit_property(C, d4_catalog, "C1", ev).holds
    r2 = audit_property(C, d4_catalog, "C2", ev)
    assert not r2.holds and r2.counterexamples[0]["group"] == "S3"
    assert audit_property(C, d4_catalog, "C3", ev).holds


def test_audit_simple_quotient_closure_fails(d4_catalog, ev):
    report = audit_property(parse_class_expr("simple"), d4_catalog, "C1", ev)
    assert not report.holds
    assert report.counterexamples[0]["quotient_order"] == 1


def test_audit_rejects_unknown_property(d4_catalog, ev):
    with pytest.raises(InvalidInput):
        audit_property(parse_class_expr("abelian"), d4_catalog, "C9", ev)


def test_audit_skips_on_subgroup_cap(d4_catalog):
    small = ClassEval(Caps(subgroup_limit=5))
    report = audit_property(parse_class_expr("all"), d4_catalog, "C0", small)
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
    assert audit_property(parse_class_expr("all"), catalog, "C0", ClassEval()).holds
    # S5 itself, then the first member of each of its 19 subgroup classes.
    assert len(calls) == 20


def test_c0_lists_every_failing_subgroup_in_list_order():
    catalog = _one_group_catalog("A5")
    report = audit_property(parse_class_expr("simple"), catalog, "C0", ClassEval())
    reference = ClassEval()
    expected = [{"group": "A5", "subgroup_order": S.order(), "subgroup_gens": S.gen_strings()}
                for S in subgroups(catalog.entries[0].group)
                if not reference.member(parse_class_expr("simple"), S)]
    assert len(expected) > 9
    assert report.counterexamples == expected


def test_audit_report_json_shape(d4_catalog, ev):
    report = audit_property(parse_class_expr("abelian"), d4_catalog, "C2", ev)
    data = report.to_json_dict()
    assert data["property"] == "C2"
    assert data["class"] == "abelian"
    assert data["holds"] is False
    assert isinstance(data["counterexamples"], list)
    assert "catalog of 9 groups" in data["domain"]


# ---------------------------------------------------------------------------
# Classification flags


def test_classify_solvable(d4_catalog, ev):
    flags = classify(parse_class_expr("solvable"), d4_catalog, ev)["flags"]
    assert flags == {
        "pre_formation": True,
        "formation": True,
        "extensive_formation": True,
        "pre_variety": True,
        "extensive_variety": True,
    }


def test_classify_abelian(d4_catalog, ev):
    flags = classify(parse_class_expr("abelian"), d4_catalog, ev)["flags"]
    assert flags["pre_formation"] and flags["formation"]
    assert flags["pre_variety"]
    assert not flags["extensive_formation"]
    assert not flags["extensive_variety"]


def test_classify_cyclic(d4_catalog, ev):
    flags = classify(parse_class_expr("cyclic"), d4_catalog, ev)["flags"]
    assert flags["pre_formation"] and flags["pre_variety"]
    assert not flags["formation"]
    assert not flags["extensive_variety"]


def test_classify_trivial_class(d4_catalog, ev):
    flags = classify(parse_class_expr("trivial"), d4_catalog, ev)["flags"]
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
    ev.member(parse_class_expr("solvable"), parse_group_spec("S4"))
    dual_abelian = parse_class_expr("dual(abelian)")
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
    assert [ClassEval().member(parse_class_expr("nilpotent"), X) for X in copies] == [True, False]
    shared = ClassEval()
    assert [shared.member(parse_class_expr("nilpotent"), X) for X in copies] == [True, True]


def test_the_evaluator_keeps_verdicts_and_the_structure_layer_keeps_groups():
    # iso types are decided by `structure.IsoTypes`, and lattice quotients
    # are cached on their groups by `structure.lattice_quotient`
    assert not any(hasattr(classes, name) for name in ("isomorphic", "fingerprint", "weakref"))
    assert not any(hasattr(ClassEval, name) for name in ("lattice", "quotient_at"))
    assert set(vars(ClassEval())) == {"caps", "types", "_memo", "_finite_sets"}


@pytest.fixture()
def work(monkeypatch):
    """The arguments of every isomorphism test, fingerprint and lattice the
    evaluator asks for, where the registry and the evaluator look them up:
    the lattice in both modules, the other two in `structure`; and of every
    backtracking search that `isomorphic` starts past the fingerprint
    test (`_generating_sequence`)."""
    calls = {"isomorphic": [], "fingerprint": [], "normal_subgroups": [],
             "_generating_sequence": []}
    for module, name in ((structure, "isomorphic"), (structure, "fingerprint"),
                         (structure, "normal_subgroups"), (classes, "normal_subgroups"),
                         (structure, "_generating_sequence")):
        def counted(*args, _real=getattr(module, name), _log=calls[name]):
            _log.append(args)
            return _real(*args)

        monkeypatch.setattr(module, name, counted)
    return calls


def test_equal_subgroups_join_their_type_without_a_search(work):
    ev = ClassEval()
    fnr = parse_class_expr("dual(solvable)")
    # SL(2,5) is a second type of order 120, so the first S5 is told from it
    # by fingerprint: one `isomorphic` test, refused before any search.
    sl25 = special_linear(5)
    assert ev.member(fnr, sl25)
    first = parse_group_spec("S5")
    assert not ev.member(fnr, first)
    assert any(args[0] is first for args in work["fingerprint"])
    assert [args[:2] for args in work["isomorphic"]] == [(sl25, first)]
    assert work["_generating_sequence"] == []
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
    dual_abelian, hat_cyclic = parse_class_expr("dual(abelian)"), parse_class_expr("hat(cyclic)")
    assert not ev.member(dual_abelian, rep)
    # D8 and each of its quotients is alone in its order or equal to a
    # group seen before, so nothing is fingerprinted yet
    assert work["fingerprint"] == [] and "fingerprint" not in rep._cache
    for log in work.values():
        log.clear()
    # conjugating by (2 3) moves D8 to another of the three D8s in S4
    copy = _conjugate(rep, (0, 2, 1, 3))
    assert not copy.same_group(rep)
    assert not ev.member(dual_abelian, copy)
    # one search, and the representative is fingerprinted only now that a
    # second group of its order arrives
    assert len(work["isomorphic"]) == 1
    assert {id(args[0]) for args in work["fingerprint"]} == {id(rep), id(copy)}
    # new expressions search only among the representative's quotients
    assert ev.member(hat_cyclic, copy)
    assert not ev.member(parse_class_expr("dual(cyclic)"), copy)
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
