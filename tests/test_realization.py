"""Tests for the normalizer-quotient realization machinery."""
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from classlab import perm, realization, structure
from classlab.config import Caps, cap_message
from classlab.errors import CapExceeded, FalsificationAlarm, InvalidInput
from classlab.perm import (
    GroupHom,
    PermGroup,
    Permutation,
    StabChain,
    WreathProduct,
    _compose,
    coset_action,
    direct_power,
    generate,
    identity_hom,
    regular_representation,
    trivial_group,
)
from classlab.realization import (
    alternating_embedding,
    block_swap_automorphism,
    brute_normalizer,
    brute_search,
    build_realization,
    compose_automorphisms,
    conjugation_automorphism,
    coordinatewise_automorphism,
    diagonal_subgroup,
    embedding_into,
    factor_permutation_check,
    is_primitive,
    maximal_selfnormalizing,
    realize,
    split_check,
)
from classlab.structure import is_simple, isomorphic
from classlab.universe import alternating, cyclic, parse_group_spec, quaternion, symmetric

import oracles


def psl_168():
    """The simple group of order 168 in its natural degree-7 action."""
    G = generate(["(1 2 4)(3 6 5)", "(2 3)(6 7)"], 7, name="L168")
    assert G.order() == 168
    return G


# ---------------------------------------------------------------------------
# Primitivity


def test_primitivity_verdicts():
    assert is_primitive(alternating(5))
    assert is_primitive(symmetric(4))
    assert not is_primitive(cyclic(4))
    D8 = generate(["(1 2 3 4)", "(1 3)"], 4)
    assert not is_primitive(D8)


def test_primitivity_requires_transitive():
    with pytest.raises(InvalidInput):
        is_primitive(generate(["(1 2)"], 3))


# ---------------------------------------------------------------------------
# Maximal self-normalizing subgroups


def test_maximal_selfnormalizing_a5():
    H0 = maximal_selfnormalizing(alternating(5))
    assert H0.order() == 12
    assert H0.is_subgroup_of(alternating(5))
    assert isomorphic(H0, alternating(4)) is not None


def test_maximal_selfnormalizing_psl168():
    H0 = maximal_selfnormalizing(psl_168())
    assert H0.order() == 24


def test_maximal_selfnormalizing_fallback_on_fixed_point():
    # A5 acting on 6 points with one fixed: intransitive, but the stabilizer
    # of a moved point is still a maximal A4.
    G = generate(["(1 2 3 4 5)", "(1 2 3)"], 6)
    assert G.order() == 60
    H0 = maximal_selfnormalizing(G)
    assert H0.order() == 12


def a5_on_pairs():
    """A5 acting on the 10 two-point subsets of {1, …, 5}."""
    pairs = list(combinations(range(5), 2))
    return generate([tuple(pairs.index(tuple(sorted((g[a], g[b])))) for a, b in pairs)
                     for g in alternating(5).raw_gens()], 10)


# A5 in actions other than the natural one: fixing point 1 of six (so the
# least moved point is not 0), regular on 60 points (every point stabilizer
# is trivial, so the walk must grow it), and on the 10 pairs.
A5_ACTIONS = {
    "fixing-a-point": lambda: generate(["(2 3 4 5 6)", "(2 3 4)"], 6),
    "regular": lambda: regular_representation(alternating(5)).image(),
    "on-pairs": a5_on_pairs,
}


@pytest.mark.parametrize("action", sorted(A5_ACTIONS))
def test_maximal_selfnormalizing_in_other_actions(action):
    G = A5_ACTIONS[action]()
    assert G.order() == 60
    H0 = maximal_selfnormalizing(G)
    assert H0.is_subgroup_of(G) and 1 < H0.order() < 60
    assert brute_normalizer(G, H0).order() == H0.order()
    assert is_primitive(coset_action(G, H0).image())


@pytest.mark.parametrize("action", sorted(A5_ACTIONS))
def test_maximal_selfnormalizing_enumerates_no_subgroups(action, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("subgroups() called")

    G = A5_ACTIONS[action]()
    monkeypatch.setattr(structure, "subgroups", refuse)
    monkeypatch.setattr(realization, "subgroups", refuse)
    assert maximal_selfnormalizing(G).order() in (6, 10, 12)


def test_maximal_selfnormalizing_rejects_bad_input():
    with pytest.raises(InvalidInput):
        maximal_selfnormalizing(cyclic(5))
    with pytest.raises(InvalidInput):
        maximal_selfnormalizing(symmetric(4))


def test_brute_normalizer_matches_known_case():
    S4 = symmetric(4)
    C4 = generate(["(1 2 3 4)"], 4)
    N = brute_normalizer(S4, C4)
    assert N.order() == 8


@st.composite
def group_and_subgroup(draw):
    """(degree, generators of P, elements of H ≤ P, kind of H): H is trivial,
    P itself, normal in P, self-normalizing in P, or generated by random
    elements of P."""
    degree = draw(st.integers(min_value=1, max_value=5))
    perm = st.permutations(list(range(degree))).map(tuple)
    gens = draw(st.lists(perm, min_size=1, max_size=3))
    P = oracles.naive_closure(gens, degree)
    seeds = draw(st.lists(st.sampled_from(sorted(P)), min_size=1, max_size=2))
    kind = draw(st.sampled_from(
        ["trivial", "parent", "normal", "selfnormalizing", "random"]))
    if kind == "trivial":
        H = frozenset({tuple(range(degree))})
    elif kind == "parent":
        H = P
    elif kind == "normal":
        H = oracles.naive_normal_closure(P, seeds, degree)
    else:
        H = oracles.naive_closure(seeds, degree)
        if kind == "selfnormalizing":
            # H ≤ N(H) ≤ N(N(H)) ≤ … stops at a self-normalizing subgroup.
            while (N := oracles.naive_normalizer(P, H)) != H:
                H = N
    return degree, gens, sorted(H), kind


@given(group_and_subgroup())
@settings(max_examples=60, deadline=None)
def test_brute_normalizer_matches_element_scan_and_oracle(case):
    degree, gens, h_elements, kind = case
    P, H = generate(gens, degree), generate(h_elements, degree)
    N = brute_normalizer(P, H)
    assert N.raw_gens()[:len(H.generators)] == H.raw_gens()
    expected = oracles.naive_normalizer(oracles.naive_closure(gens, degree),
                                        frozenset(h_elements))
    assert N.element_set() == expected
    if kind in ("trivial", "parent", "normal"):
        assert N.order() == P.order()
    elif kind == "selfnormalizing":
        assert N.order() == H.order()


def test_brute_normalizer_requires_subgroup():
    A4 = generate(["(1 2 3)", "(2 3 4)"], 4)
    with pytest.raises(InvalidInput):
        brute_normalizer(A4, generate(["(1 2)"], 4))
    with pytest.raises(InvalidInput):
        brute_normalizer(A4, generate(["(1 2 3)"], 5))


def test_brute_normalizer_cap_message():
    S4 = symmetric(4)
    C4 = generate(["(1 2 3 4)"], 4)
    with pytest.raises(CapExceeded, match=r"^order 24 exceeds enumeration cap 23; "
                                          r"raise it with --enum-cap or CLASSLAB_ENUM_CAP$"):
        brute_normalizer(S4, C4, Caps(enum_cap=23))
    assert brute_normalizer(S4, C4, Caps(enum_cap=24)).order() == 8


def test_realize_brute_check_meets_the_enum_cap_in_brute_normalizer():
    tight = Caps(enum_cap=1000)
    with pytest.raises(CapExceeded, match=r"^order 14400 exceeds enumeration cap 1000; "
                                          r"raise it with --enum-cap or CLASSLAB_ENUM_CAP$"):
        realize(cyclic(2), top=cyclic(4), caps=tight)
    cert = realize(cyclic(2), top=cyclic(4), caps=tight, brute_check=False)
    assert cert.checks["brute_normalizer"] == "skipped"


def test_brute_check_never_enumerates_gamma(monkeypatch):
    cert = realize(cyclic(2), top=cyclic(4))
    assert cert.checks["brute_normalizer"] == "passed"
    assert "raw_elements" not in cert.gamma._cache

    yielded = []
    iter_elements = StabChain.iter_elements

    def counting(self):
        for x in iter_elements(self):
            yielded.append(x)
            yield x

    monkeypatch.setattr(StabChain, "iter_elements", counting)
    H = PermGroup(cert.h.degree, cert.h.generators)
    N = brute_normalizer(cert.gamma, H)
    assert N.same_group(cert.normalizer)
    assert yielded == []
    assert "raw_elements" not in cert.gamma._cache


# ---------------------------------------------------------------------------
# build_realization


def test_build_c2_over_a5_by_c2():
    C2 = cyclic(2)
    cert = build_realization(C2, alternating(5), C2, identity_hom(C2))
    assert cert.n_coords == 1
    assert cert.gamma.order() == 120
    assert cert.h.order() == 12
    assert cert.normalizer.order() == 24
    assert list(cert.checks.items()) == [
        ("embedding_multiplicative", "passed"), ("order_arithmetic", "passed"),
        ("structural_normalizer", "passed"), ("brute_normalizer", "passed"),
        ("top_quotient", "passed"), ("iso_verified", "passed")]
    assert cert.iso.forward.source.order() == 2


def test_build_alarms_when_structural_normalizer_does_not_normalize(monkeypatch):
    # A corrupted M: the top lift of the target's generator replaced by
    # (1 2 3), which moves the point H0 fixes and so does not normalize H.
    bad = Permutation.from_cycles("(1 2 3)", 7)
    monkeypatch.setattr(WreathProduct, "top_lift", lambda self, h: bad)
    C2 = cyclic(2)
    with pytest.raises(FalsificationAlarm, match="does not normalize H") as info:
        build_realization(C2, alternating(5), C2, identity_hom(C2))
    assert info.value.witness["m"] == "(1 2 3)"


def test_build_alarms_when_one_lift_generator_does_not_normalize(monkeypatch):
    # S3 has two generators; only the lift of the transposition is replaced,
    # by (1 2 3) in the base, which moves the point H0 fixes.
    top_lift = WreathProduct.top_lift
    bad = Permutation.from_cycles("(1 2 3)", 8)
    monkeypatch.setattr(WreathProduct, "top_lift",
                        lambda self, h: bad if str(h) == "(1 2)" else top_lift(self, h))
    S3 = symmetric(3)
    with pytest.raises(FalsificationAlarm, match="does not normalize H") as info:
        build_realization(S3, alternating(5), S3, identity_hom(S3))
    assert info.value.witness["m"] == "(1 2 3)"


def test_lift_check_alarms_on_a_lift_map_that_is_not_multiplicative(monkeypatch):
    # Every nontrivial lift of C2's generator is multiplied by (2 3 4), which
    # lies in H0 (the stabilizer of point 1) and commutes with the lift: the
    # lifts still normalize H, but the involution's image has order 6.
    top_lift = WreathProduct.top_lift
    twist = Permutation.from_cycles("(2 3 4)", 7)

    def corrupted(self, h):
        lift = top_lift(self, h)
        return lift if lift.is_identity() else lift * twist

    monkeypatch.setattr(WreathProduct, "top_lift", corrupted)
    C2 = cyclic(2)
    with pytest.raises(FalsificationAlarm, match="lift of the target is not an embedding") as info:
        build_realization(C2, alternating(5), C2, identity_hom(C2))
    assert info.value.witness["failed"] == "lift map is not multiplicative"


def test_lift_check_alarms_on_a_dropped_lift_generator(monkeypatch):
    # The lift of V4's second generator is the identity, so M has only one
    # lift generator: the map is still a homomorphism, with a kernel of order
    # 2, and the dropped lift fixes the top points its generator moves.
    top_lift = WreathProduct.top_lift
    monkeypatch.setattr(WreathProduct, "top_lift",
                        lambda self, h: (Permutation.identity(self.group.degree)
                                         if str(h) == "(1 3)(2 4)" else top_lift(self, h)))
    V4 = generate(["(1 2)(3 4)", "(1 3)(2 4)"], 4)
    with pytest.raises(FalsificationAlarm, match="lift of the target is not an embedding") as info:
        build_realization(V4, alternating(5), V4, identity_hom(V4))
    assert info.value.witness["failed"] == "lift does not act on the top points as the embedding"


def test_lift_check_alarms_on_a_lift_inside_h(monkeypatch):
    # C3's generator is lifted to (2 3 4), which lies in H0 = H: the lift
    # normalizes H and the map is an injective homomorphism, and M's chain,
    # built from the true lift, even has order |H|·|G|, yet ⟨H, L⟩ = H.
    # Only the tail tells: (2 3 4) fixes the top points (1 2 3) moves.
    top_lift = WreathProduct.top_lift
    inside = Permutation.from_cycles("(2 3 4)", 8)
    monkeypatch.setattr(WreathProduct, "top_lift",
                        lambda self, h: inside if str(h) == "(1 2 3)" else top_lift(self, h))
    C3 = cyclic(3)
    with pytest.raises(FalsificationAlarm, match="lift of the target is not an embedding") as info:
        build_realization(C3, alternating(5), C3, identity_hom(C3))
    assert info.value.witness["failed"] == "lift does not act on the top points as the embedding"


def test_realize_caps_the_regular_action_of_the_target():
    # The certificate's source has |G| points: |S5| = 120 is over this cap,
    # which A5 and its H0 walk meet, and no brute check is asked for.
    tight = Caps(enum_cap=60)
    with pytest.raises(CapExceeded) as info:
        realize(symmetric(5), caps=tight, brute_check=False)
    assert str(info.value) == cap_message(tight, "enum_cap", "order", 120)


def test_order_arithmetic_alarms_on_a_lift_that_does_not_normalize_the_base(monkeypatch):
    # A5 wr C4 over C2 has two blocks of five points and a tail of four.
    # Every top lift also exchanges the first points of the two blocks, so it
    # keeps the tail but carries base generators outside the base.
    swap = Permutation.from_cycles("(1 6)", 14).images
    lift_blocks = perm._lift_blocks

    def corrupted(sigma, d, tail=()):
        return _compose(lift_blocks(sigma, d, tail), swap)

    monkeypatch.setattr(perm, "_lift_blocks", corrupted)
    C2, C4 = cyclic(2), cyclic(4)
    embed = GroupHom(C2, C4, [Permutation((2, 3, 0, 1))])
    with pytest.raises(FalsificationAlarm, match="wreath order arithmetic failed") as info:
        build_realization(C2, alternating(5), C4, embed)
    assert info.value.witness["failed"] == "base is not normal in Gamma"


def test_order_arithmetic_alarms_on_a_coset_map_that_is_not_a_homomorphism(monkeypatch):
    # S3 on the three cosets of a C2, with the images of its 3-cycle and its
    # transposition exchanged: no homomorphism sends a 3-cycle to a
    # transposition.  The lifts still normalize the base.
    action = perm.coset_action

    def corrupted(G, S, kernel=None):
        hom = action(G, S, kernel)
        swapped = hom.gen_images[::-1]
        table = dict(zip(G.raw_gens(), (p.images for p in swapped)))
        return GroupHom(G, hom.target, swapped,
                        map_fn=lambda raw: table.get(raw) or hom.apply_raw(raw))

    monkeypatch.setattr(perm, "coset_action", corrupted)
    S3 = symmetric(3)
    assert sorted(g.order() for g in S3.generators) == [2, 3]
    C2 = generate(["(1 2)"], 3)
    embed = GroupHom(C2, S3, [Permutation.from_cycles("(1 2)", 3)])
    with pytest.raises(FalsificationAlarm, match="wreath order arithmetic failed") as info:
        build_realization(C2, alternating(5), S3, embed)
    assert info.value.witness["failed"] == "coset map is not a homomorphism"


def test_realize_never_runs_schreier_sims_on_gamma(monkeypatch):
    # Γ = A5^12 ⋊ S4 and M get their chains by construction; only small
    # groups (G0, H0, the top group, graph subgroups) are extended.
    degrees = []
    extend = StabChain.extend

    def counting(self, g):
        degrees.append(self.degree)
        return extend(self, g)

    monkeypatch.setattr(StabChain, "extend", counting)
    cert = realize(cyclic(2), top=symmetric(4), G0=alternating(5), brute_check=False)
    assert cert.gamma.degree == 64
    assert degrees and cert.gamma.degree not in degrees


def test_build_c2_inside_c4_top():
    C2, C4 = cyclic(2), cyclic(4)
    embed = GroupHom(C2, C4, [Permutation((2, 3, 0, 1))])
    cert = build_realization(C2, alternating(5), C4, embed)
    assert cert.n_coords == 2
    assert cert.gamma.order() == 14400
    assert cert.gamma.degree == 14
    assert cert.h.order() == 720
    assert cert.normalizer.order() == 1440
    assert cert.checks["brute_normalizer"] == "passed"
    assert cert.checks["top_quotient"] == "passed"


def test_build_trivial_target():
    T = trivial_group(1)
    cert = build_realization(T, alternating(5), T, identity_hom(T))
    assert cert.n_coords == 1
    assert cert.gamma.order() == 60
    assert cert.h.order() == 12
    assert cert.normalizer.order() == 12
    assert cert.iso.forward.source.order() == 1


def test_build_rejects_non_injective_embedding():
    C4, C2 = cyclic(4), cyclic(2)
    collapse = GroupHom(C4, C2, [Permutation((1, 0))])
    with pytest.raises(InvalidInput):
        build_realization(C4, alternating(5), C2, collapse)


def test_build_brute_cap_and_optout():
    C2 = cyclic(2)
    tight = Caps(enum_cap=100)
    with pytest.raises(CapExceeded):
        build_realization(C2, alternating(5), C2, identity_hom(C2), caps=tight)
    cert = build_realization(C2, alternating(5), C2, identity_hom(C2),
                             caps=tight, brute_check=False)
    assert cert.checks["brute_normalizer"] == "skipped"
    assert cert.normalizer.order() == 24


def test_embedding_checked_beyond_enumeration_cap():
    cert = realize(cyclic(11), caps=Caps(enum_cap=100), brute_check=False)
    assert cert.checks["embedding_multiplicative"] == "passed"


def test_certificate_json_shape():
    C2 = cyclic(2)
    cert = build_realization(C2, alternating(5), C2, identity_hom(C2))
    data = cert.to_json_dict()
    assert data["gamma"]["order"] == 120
    assert data["h"]["degree"] == data["gamma"]["degree"]
    assert data["n_coords"] == 1
    assert data["checks"]["iso_verified"] == "passed"
    assert all(isinstance(s, str) for s in data["normalizer"]["gens"])


# ---------------------------------------------------------------------------
# realize driver


def test_realize_s3():
    cert = realize(symmetric(3))
    assert cert.gamma.order() == 360
    assert cert.n_coords == 1
    assert cert.iso.forward.source.order() == 6
    assert cert.checks["brute_normalizer"] == "passed"


def test_realize_trivial():
    cert = realize(trivial_group(1))
    assert cert.gamma.order() == 60
    assert cert.normalizer.order() == cert.h.order() == 12


def test_realize_q8():
    cert = realize(quaternion())
    assert cert.gamma.order() == 480
    assert cert.normalizer.order() == 12 * 8


def test_realize_alt3_top():
    cert = realize(cyclic(3), alt=3)
    assert cert.n_coords == 1
    assert cert.gamma.order() == 180
    assert cert.normalizer.order() == 36
    assert cert.checks["brute_normalizer"] == "passed"


def test_realize_alt4_structural_only():
    cert = realize(cyclic(2), alt=4, brute_check=False)
    assert cert.n_coords == 6
    assert cert.gamma.order() == 60 ** 6 * 12
    assert cert.h.order() == 12 * 60 ** 5
    assert cert.normalizer.order() == 2 * cert.h.order()
    assert cert.checks["brute_normalizer"] == "skipped"
    assert cert.checks["top_quotient"] == "passed"


def test_realize_alt_too_small():
    with pytest.raises(InvalidInput):
        realize(cyclic(2), alt=3)


def test_alternating_embedding_doubles_odd_regular_image():
    embed = alternating_embedding(symmetric(3), 12)
    img = embed.image()
    assert img.order() == 6
    assert all(p.parity() == 0 for p in embed.gen_images)
    with pytest.raises(InvalidInput):
        alternating_embedding(symmetric(3), 6)


# ---------------------------------------------------------------------------
# Lift certificates


def assert_lift_certificate_matches_the_quotient(cert):
    """The certificate's source is M/H as the coset action builds it, the
    search finds M/H ≅ G, and the forward map is an isomorphism."""
    Q = coset_action(cert.normalizer, cert.h).image()
    assert cert.iso.source.generators == Q.generators
    assert isomorphic(Q, cert.target) is not None
    assert cert.iso.verify()
    assert cert.iso.forward.gen_images == cert.target.generators


def test_lift_certificate_on_every_small_catalog_group(default_catalog):
    small = [e for e in default_catalog.entries if e.group.order() <= 12]
    assert len(small) == 18
    for entry in small:
        assert_lift_certificate_matches_the_quotient(realize(entry.group))


@pytest.mark.parametrize("target,top,g0,alt", [
    ("C2", "C4", None, None), ("C3", "C6", None, None),
    ("C2", "S3", "A5", None), ("V4", "S4", "A5", None), ("C3", "A4", "A5", None),
    ("C2", "S4", "A5", None), ("C2", "C4", "A6", None),
    ("C3", None, None, 3), ("C2", None, None, 4),
])
def test_lift_certificate_with_top_alt_and_base_groups(target, top, g0, alt):
    structural = g0 is not None or alt == 4
    cert = realize(parse_group_spec(target), alt=alt, brute_check=not structural,
                   top=parse_group_spec(top) if top else None,
                   G0=parse_group_spec(g0) if g0 else None)
    assert_lift_certificate_matches_the_quotient(cert)


@pytest.mark.parametrize("G,brute_check", [(alternating(7), True), (symmetric(7), False)],
                         ids=["A7", "S7-structural"])
def test_realize_never_searches_for_an_isomorphism(G, brute_check, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("isomorphic() called")

    monkeypatch.setattr(realization, "isomorphic", refuse)
    cert = realize(G, brute_check=brute_check)
    assert cert.checks["iso_verified"] == "passed"
    assert cert.normalizer.order() == cert.h.order() * G.order()


def test_default_base_runs_the_h0_walk_once(default_catalog, monkeypatch):
    # Each walk for H0 starts from one point stabilizer of G0.
    walks = []
    stabilizer = realization.point_stabilizer

    def counting(G0, point):
        walks.append(G0)
        return stabilizer(G0, point)

    monkeypatch.setattr(realization, "_DEFAULT_G0", alternating(5))
    monkeypatch.setattr(realization, "point_stabilizer", counting)
    certs = [realize(e.group) for e in default_catalog.entries if e.group.order() <= 12]
    assert len(certs) == 18
    assert walks == [realization._DEFAULT_G0]
    assert all(c.g0 is certs[0].g0 and c.h0 is certs[0].h0 for c in certs)

    # Smaller caps still meet their limits, before any walk.
    tight = Caps(enum_cap=59)
    with pytest.raises(CapExceeded) as info:
        realize(cyclic(2), caps=tight)
    assert str(info.value) == cap_message(tight, "enum_cap", "order", 60)
    assert len(walks) == 1


# ---------------------------------------------------------------------------
# brute_search


def test_brute_search_s4_for_c2():
    hits = brute_search(symmetric(4), cyclic(2))
    assert any(h.subgroup.order() == 4 and h.normalizer.order() == 8
               and h.subgroup.contains_raw((1, 2, 3, 0))
               for h in hits)


def test_brute_search_s3_for_trivial():
    hits = brute_search(symmetric(3), trivial_group(1))
    held = [h.subgroup for h in hits]
    assert any(H.order() == 2 and H.contains_raw((1, 0, 2)) for H in held)
    assert any(H.order() == 6 for H in held)


def test_brute_search_a5_for_a5():
    hits = brute_search(alternating(5), alternating(5))
    assert any(h.subgroup.order() == 1 for h in hits)


# ---------------------------------------------------------------------------
# split_check


def a5_times_c2():
    gens = ["(1 2 3 4 5)", "(1 2 3)", "(6 7)"]
    return generate(gens, 7), generate(["(1 2 3 4 5)", "(1 2 3)"], 7)


def test_split_a5_times_c2():
    G, N = a5_times_c2()
    comp = split_check(G, N)
    assert comp.order() == 2
    assert isomorphic(comp, cyclic(2)) is not None


def test_split_wreath_over_its_base():
    C2, C4 = cyclic(2), cyclic(4)
    embed = GroupHom(C2, C4, [Permutation((2, 3, 0, 1))])
    cert = build_realization(C2, alternating(5), C4, embed)
    base_gens = []
    for g in alternating(5).gen_strings():
        for offset in (0, 1):
            shifted = Permutation.from_cycles(g, 5).images
            images = list(range(cert.gamma.degree))
            for p, x in enumerate(shifted):
                images[offset * 5 + p] = offset * 5 + x
            base_gens.append(Permutation(tuple(images)))
    base = PermGroup(cert.gamma.degree, base_gens)
    assert base.order() == 3600
    comp = split_check(cert.gamma, base)
    assert comp.order() == 4
    assert isomorphic(comp, cyclic(4)) is not None


def test_split_s3_times_c2_over_s3():
    G = generate(["(1 2 3)", "(1 2)", "(4 5)"], 5)
    N = generate(["(1 2 3)", "(1 2)"], 5)
    comp = split_check(G, N)
    assert comp.order() == 2


def test_split_check_alarms_on_nonsplit():
    # hypotheses deliberately violated: C2 has no complement in C4
    with pytest.raises(FalsificationAlarm):
        split_check(cyclic(4), generate(["(1 3)(2 4)"], 4))


# ---------------------------------------------------------------------------
# Twisted diagonals


def test_plain_diagonal():
    A5 = alternating(5)
    ident = list(A5.generators)
    diag = diagonal_subgroup(A5, 2, [ident, ident])
    assert diag.group.order() == 60
    assert diag.support == (0, 1)
    emb = diag.ambient.coordinate_embeddings
    for g in A5.raw_gens():
        pair = _compose(emb[0].apply_raw(g), emb[1].apply_raw(g))
        assert diag.group.contains_raw(pair)


def test_single_factor_diagonal():
    A5 = alternating(5)
    diag = diagonal_subgroup(A5, 2, [list(A5.generators), None])
    assert diag.support == (0,)
    emb = diag.ambient.coordinate_embeddings
    for g in A5.raw_gens():
        assert diag.group.contains_raw(emb[0].apply_raw(g))
        assert not diag.group.contains_raw(emb[1].apply_raw(g))


def test_twisted_diagonal_differs_but_is_isomorphic():
    A5 = alternating(5)
    twist = conjugation_automorphism(A5, "(1 2)")
    plain = diagonal_subgroup(A5, 2, [list(A5.generators)] * 2)
    twisted = diagonal_subgroup(A5, 2, [list(A5.generators), twist])
    assert twisted.group.order() == 60
    assert not twisted.group.same_group(plain.group)
    assert isomorphic(twisted.group, A5) is not None


def test_diagonal_rejects_bad_twists():
    A5 = alternating(5)
    with pytest.raises(InvalidInput):
        diagonal_subgroup(A5, 2, [None, None])
    collapse = [A5.generators[0], A5.generators[0]]
    with pytest.raises(InvalidInput):
        diagonal_subgroup(A5, 2, [collapse, None])
    with pytest.raises(InvalidInput):
        diagonal_subgroup(A5, 2, [list(A5.generators)])


def test_conjugation_automorphism_requires_normalizing():
    A4 = generate(["(1 2 3)", "(1 2)(3 4)"], 5)
    with pytest.raises(InvalidInput):
        conjugation_automorphism(A4, "(4 5)")


# ---------------------------------------------------------------------------
# Factor permutations


def test_factor_permutation_swap():
    A5 = alternating(5)
    theta = block_swap_automorphism(A5, 2, 0, 1)
    assert factor_permutation_check(A5, 2, theta) == (1, 0)


def test_factor_permutation_coordinatewise():
    A5 = alternating(5)
    alpha = identity_hom(A5)
    beta = conjugation_automorphism(A5, "(1 2)")
    theta = coordinatewise_automorphism(A5, 2, [alpha, beta])
    assert factor_permutation_check(A5, 2, theta) == (0, 1)


def test_factor_permutation_composed():
    A5 = alternating(5)
    swap = block_swap_automorphism(A5, 2, 0, 1)
    cw = coordinatewise_automorphism(
        A5, 2, [identity_hom(A5), conjugation_automorphism(A5, "(1 2)")])
    theta = compose_automorphisms(swap, cw)
    assert factor_permutation_check(A5, 2, theta) == (1, 0)


def test_factor_permutation_three_coordinates():
    A5 = alternating(5)
    theta = block_swap_automorphism(A5, 3, 1, 2)
    assert factor_permutation_check(A5, 3, theta) == (0, 2, 1)


def test_factor_permutation_rejects_non_automorphism():
    A5 = alternating(5)
    D = direct_power(A5, 2)
    ident = Permutation(tuple(range(D.degree)))
    bad = GroupHom(D, D, [ident for _ in D.generators],
                   map_fn=lambda raw: ident.images)
    with pytest.raises(InvalidInput):
        factor_permutation_check(A5, 2, bad)


def test_factor_permutation_rejects_abelian_factor():
    with pytest.raises(InvalidInput):
        factor_permutation_check(cyclic(4), 2,
                                 block_swap_automorphism(cyclic(4), 2, 0, 1))


def test_realize_with_top_group():
    cert = realize(cyclic(2), top=cyclic(4))
    assert cert.n_coords == 2
    assert cert.gamma.order() == 14400
    assert cert.checks["brute_normalizer"] == "passed"
    assert cert.checks["iso_verified"] == "passed"


def test_realize_top_structural_only():
    cert = realize(cyclic(3), top=symmetric(4), brute_check=False)
    assert cert.n_coords == 8
    assert cert.gamma.order() == 60**8 * 24
    assert cert.checks["structural_normalizer"] == "passed"
    assert cert.checks["brute_normalizer"] == "skipped"


def test_realize_rejects_alt_with_top():
    with pytest.raises(InvalidInput):
        realize(cyclic(2), alt=4, top=cyclic(4))


def test_embedding_into_finds_subgroup():
    emb = embedding_into(cyclic(3), symmetric(4))
    assert emb.kernel().order() == 1
    assert emb.is_multiplicative()
    assert oracles.naive_is_homomorphism(
        {x: emb.apply_raw(x) for x in emb.source.raw_elements()})


def test_embedding_into_no_candidate():
    with pytest.raises(InvalidInput):
        embedding_into(cyclic(5), symmetric(4))
    with pytest.raises(InvalidInput):
        embedding_into(quaternion(), symmetric(4))
