"""Tests for the normalizer-quotient realization machinery."""
import pytest

from classlab.config import Caps
from classlab.errors import CapExceeded, FalsificationAlarm, InvalidInput
from classlab.perm import (
    GroupHom,
    PermGroup,
    Permutation,
    _compose,
    direct_power,
    generate,
    identity_hom,
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
from classlab.universe import alternating, cyclic, quaternion, symmetric

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
    # A5 acting on 6 points with one fixed: intransitive, so the subgroup
    # lattice supplies the maximal subgroup instead of a point stabilizer.
    G = generate(["(1 2 3 4 5)", "(1 2 3)"], 6)
    assert G.order() == 60
    H0 = maximal_selfnormalizing(G)
    assert H0.order() == 12


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


# ---------------------------------------------------------------------------
# build_realization


def test_build_c2_over_a5_by_c2():
    C2 = cyclic(2)
    cert = build_realization(C2, alternating(5), C2, identity_hom(C2))
    assert cert.n_coords == 1
    assert cert.gamma.order() == 120
    assert cert.h.order() == 12
    assert cert.normalizer.order() == 24
    assert cert.checks["brute_normalizer"] == "passed"
    assert cert.iso.forward.source.order() == 2


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
