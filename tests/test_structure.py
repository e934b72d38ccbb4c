"""Structural analysis: classes, lattices, radicals, quotients, isomorphism."""
import ast
import gc
import hashlib
import json
import weakref
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from classlab import perm, structure
from classlab.config import DEFAULT_CAPS, Caps, cap_message
from classlab.errors import CapExceeded, FalsificationAlarm, InvalidInput, SubgroupLimitExceeded
from classlab.perm import (
    GroupHom,
    Permutation,
    coset_action,
    generate,
    point_stabilizer,
    regular_representation,
    trivial_group,
    wreath_by_cosets,
)
from classlab.realization import maximal_selfnormalizing
from classlab.structure import (
    IsoCertificate,
    IsoTypes,
    NormalLattice,
    baer_radical,
    center,
    complement_exists,
    conjugacy_classes,
    derived_series,
    derived_subgroup,
    fingerprint,
    has_prime_order_quotient,
    is_abelian,
    is_cyclic,
    is_nilpotent,
    is_p_group,
    is_simple,
    is_solvable,
    isomorphic,
    lattice_quotient,
    lower_central_series,
    normal_closure,
    normal_in,
    normal_subgroups,
    quotient,
    radical_factorization,
    simple_quotients,
    subgroup_classes,
    subgroups,
)
from classlab.suite import SuiteContext
from classlab.universe import build_universe, parse_group_spec

import oracles


def S4():
    return generate(["(1 2)", "(1 2 3 4)"], 4)


def A4():
    return generate(["(1 2 3)", "(1 2)(3 4)"], 4)


def A5():
    return generate(["(1 2 3)", "(3 4 5)"], 5)


def S3():
    return generate(["(1 2)", "(1 2 3)"], 3)


def V4():
    return generate(["(1 2)(3 4)", "(1 3)(2 4)"], 4)


def C6():
    return generate(["(1 2)(3 4 5)"], 5)


def D8():
    return generate(["(1 2 3 4)", "(1 3)"], 4)


def Q8():
    return generate(["(1 2 3 4)(5 6 7 8)", "(1 5 3 7)(2 8 4 6)"], 8)


def S5():
    return parse_group_spec("S5")


def SL25():
    return parse_group_spec("SL25")


class TestConjugacyClasses:
    def test_s4_class_sizes(self):
        sizes = sorted(c.size for c in conjugacy_classes(S4()))
        assert sizes == [1, 3, 6, 6, 8]

    def test_a5_class_sizes(self):
        sizes = sorted(c.size for c in conjugacy_classes(A5()))
        assert sizes == [1, 12, 12, 15, 20]

    def test_classes_partition_group(self):
        G = S4()
        classes = conjugacy_classes(G)
        union = set().union(*(c.members for c in classes))
        assert union == set(G.raw_elements())
        assert sum(c.size for c in classes) == 24

    def test_identity_class_first_and_reps_minimal(self):
        classes = conjugacy_classes(S4())
        assert classes[0].rep.is_identity()
        for c in classes:
            assert c.rep.images == min(c.members)

    def test_deterministic(self):
        a = [c.rep for c in conjugacy_classes(S4())]
        b = [c.rep for c in conjugacy_classes(S4())]
        c2 = [c.rep for c in conjugacy_classes(generate(["(1 2)", "(1 2 3 4)"], 4))]
        assert a == b == c2

    @staticmethod
    def assert_matches_naive_oracle(G):
        """The members of each class, the class order (by least element, the
        identity first), each rep (the least member) and each element order
        agree with conjugation by every element of G."""
        classes = conjugacy_classes(G)
        assert [c.members for c in classes] == oracles.naive_classes(G.element_set())
        assert classes[0].rep.is_identity()
        for c in classes:
            assert c.rep.images == min(c.members)
            assert c.order == oracles.naive_element_order(c.rep.images)

    @pytest.mark.parametrize("spec", ["S4", "A5", "SL23"])
    def test_matches_naive_oracle(self, spec):
        self.assert_matches_naive_oracle(parse_group_spec(spec))

    @given(st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.lists(st.permutations(list(range(n))).map(tuple),
                           min_size=1, max_size=3)))
    @settings(max_examples=25, deadline=None)
    def test_matches_naive_oracle_on_generated_groups(self, gens):
        self.assert_matches_naive_oracle(generate(gens, len(gens[0])))


class TestCenterAndClosure:
    def test_centers(self):
        assert center(Q8()).order() == 2
        assert center(D8()).order() == 2
        assert center(S4()).order() == 1
        assert center(C6()).order() == 6

    def test_center_matches_oracle(self):
        G = D8()
        assert set(center(G).raw_elements()) == oracles.naive_center(G.element_set())

    def test_normal_closure_of_transposition_is_whole_s4(self):
        assert normal_closure(S4(), ["(1 2)"]).order() == 24

    def test_normal_closure_of_double_transposition_is_v4(self):
        N = normal_closure(S4(), ["(1 2)(3 4)"])
        assert N.order() == 4
        assert N.same_group(V4())

    def test_normal_closure_matches_oracle(self):
        G = S4()
        seed = Permutation.from_cycles("(1 2 3)", 4).images
        fast = set(normal_closure(G, [seed]).raw_elements())
        assert fast == oracles.naive_normal_closure(G.element_set(), [seed], 4)

    def test_derived_series_s4(self):
        assert [H.order() for H in derived_series(S4())] == [24, 12, 4, 1]

    def test_derived_subgroup_matches_oracle(self):
        G = S4()
        fast = set(derived_subgroup(G).raw_elements())
        assert fast == oracles.naive_commutator_subgroup(G.element_set(), 4)

    def test_derived_series_stalls_on_a5(self):
        assert [H.order() for H in derived_series(A5())] == [60]

    def test_lower_central_series(self):
        assert [H.order() for H in lower_central_series(D8())] == [8, 2, 1]
        assert [H.order() for H in lower_central_series(S3())] == [6, 3]

    def test_derived_series_members_match_oracle(self):
        G = S4()
        expected = [G.element_set()]
        while len(expected[-1]) > 1:
            expected.append(oracles.naive_commutator_subgroup(expected[-1], 4))
        assert [H.element_set() for H in derived_series(G)] == expected

    def test_series_of_the_trivial_group(self):
        E = generate([], 3)
        assert derived_series(E) == [E] and lower_central_series(E) == [E]


class TestPredicates:
    def test_frozen_table(self):
        assert is_abelian(V4()) and not is_abelian(S3())
        assert is_cyclic(C6()) and not is_cyclic(V4())
        assert is_p_group(D8(), 2) and not is_p_group(C6(), 2)
        assert is_solvable(S4()) and not is_solvable(A5())
        assert is_nilpotent(D8()) and not is_nilpotent(S3())
        assert is_simple(A5()) and not is_simple(S4())

    def test_simplicity_edge_cases(self):
        assert is_simple(generate(["(1 2 3 4 5)"], 5))
        assert not is_simple(generate(["(1 2 3 4)"], 4))
        assert not is_simple(generate([], 3))
        assert not is_simple(C6())

    def test_trivial_group_predicates(self):
        T = generate([], 2)
        assert is_abelian(T) and is_cyclic(T) and is_solvable(T) and is_nilpotent(T)


@st.composite
def generated_group(draw):
    """(degree, generators) of a group of degree at most 5."""
    degree = draw(st.integers(min_value=1, max_value=5))
    perm = st.permutations(list(range(degree))).map(tuple)
    return degree, draw(st.lists(perm, min_size=1, max_size=3))


class TestClassInvariants:
    @given(generated_group())
    @settings(max_examples=40, deadline=None)
    def test_orders_centre_and_fingerprint_match_oracles(self, case):
        degree, gens = case
        G = generate(gens, degree)
        brute_centre = oracles.naive_center(oracles.naive_closure(gens, degree))
        for cls in conjugacy_classes(G):
            assert {oracles.naive_element_order(x) for x in cls.members} == {cls.order}
        assert center(G).element_set() == brute_centre
        hist = Counter(oracles.naive_element_order(x) for x in G.element_set())
        _, fp_hist, _, fp_centre, _ = fingerprint(G)
        assert fp_hist == tuple(sorted(hist.items()))
        assert fp_centre == len(brute_centre)

    @given(generated_group())
    @settings(max_examples=40, deadline=None)
    def test_raw_elements_are_the_sorted_closure(self, case):
        degree, gens = case
        elems = generate(gens, degree).raw_elements()
        assert all(a < b for a, b in zip(elems, elems[1:]))
        assert elems == tuple(sorted(oracles.naive_closure(gens, degree)))


class TestCapsBindOnEveryCall:
    """A result cached on a group under larger caps is not returned under
    smaller ones: a warm group raises the message a fresh copy raises."""

    # Each cached entry point: (a fresh group, the call under caps).
    ENTRY_POINTS = {
        "raw_elements": (A5, lambda G, caps: G.raw_elements(caps)),
        "conjugacy_classes": (A5, conjugacy_classes),
        "normal_subgroups": (A5, normal_subgroups),
        "lattice_quotient": (A5, lambda G, caps: lattice_quotient(G, 1, caps)),
        "subgroups": (A5, subgroups),
        "is_simple": (A5, is_simple),
        "maximal_selfnormalizing": (A5, maximal_selfnormalizing),
        # is_cyclic returns before enumerating on a non-abelian group
        "is_cyclic": (lambda: parse_group_spec("C60"), is_cyclic),
        "fingerprint": (A5, fingerprint),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_warm_group_raises_the_fresh_message(self, entry):
        make, call = self.ENTRY_POINTS[entry]
        tight, field = ((Caps(iso_cap=59), "iso_cap") if entry == "fingerprint"
                        else (Caps(enum_cap=59), "enum_cap"))
        with pytest.raises(CapExceeded) as fresh:
            call(make(), tight)
        assert str(fresh.value) == cap_message(tight, field, "order", 60)
        G = make()
        call(G, DEFAULT_CAPS)
        with pytest.raises(CapExceeded) as warm:
            call(G, tight)
        assert str(warm.value) == str(fresh.value)

    def test_abelian_base_over_the_cap_is_still_invalid_input(self):
        tight = Caps(enum_cap=59)
        G0 = parse_group_spec("C60")
        for _ in range(2):
            with pytest.raises(InvalidInput, match="input is abelian"):
                maximal_selfnormalizing(G0, tight)
            G0.raw_elements()


class TestNormalLattice:
    def test_s4_lattice(self):
        lat = normal_subgroups(S4())
        assert [m.order() for m in lat.members] == [1, 4, 12, 24]
        assert [m.order() for m in lat.maximal_members()] == [12]

    def test_c6_lattice(self):
        lat = normal_subgroups(C6())
        assert [m.order() for m in lat.members] == [1, 2, 3, 6]
        assert sorted(m.order() for m in lat.maximal_members()) == [2, 3]

    def test_a5_lattice(self):
        lat = normal_subgroups(A5())
        assert [m.order() for m in lat.members] == [1, 60]

    def test_d8_lattice(self):
        lat = normal_subgroups(D8())
        assert [m.order() for m in lat.members] == [1, 2, 4, 4, 4, 8]
        assert [m.order() for m in lat.maximal_members()] == [4, 4, 4]

    @pytest.mark.parametrize("maker", [S4, A4, C6, D8, Q8, S3])
    def test_matches_brute_force(self, maker):
        G = maker()
        fast = {frozenset(m.raw_elements()) for m in normal_subgroups(G).members}
        brute = oracles.naive_normal_subgroups(G.element_set(), G.degree)
        assert fast == brute

    def test_all_members_are_normal(self):
        G = S4()
        for m in normal_subgroups(G).members:
            assert normal_in(G, m)

    def test_meet_of_no_members_is_the_group(self):
        lat = normal_subgroups(D8())
        assert lat.meet() == len(lat.members) - 1
        assert [lat.meet(i, i) for i in range(6)] == list(range(6))

    def test_meet_outside_the_lattice_raises(self):
        G = S3()
        lat = NormalLattice([G] * 3, [False] * 3, [0b011, 0b110, 0b111])
        with pytest.raises(InvalidInput, match="lattice is not intersection-closed"):
            lat.meet(0, 1)

    @given(generated_group())
    @settings(max_examples=40, deadline=None)
    def test_lattice_meets_and_radical_match_oracles(self, case):
        degree, gens = case
        G = generate(gens, degree)
        elements = oracles.naive_closure(gens, degree)
        naive = oracles.naive_normal_subgroups(elements, degree)
        lat = normal_subgroups(G)
        sets = [m.element_set() for m in lat.members]
        assert set(sets) == naive and len(sets) == len(naive)
        for i, a in enumerate(sets):
            for j, b in enumerate(sets):
                assert sets[lat.meet(i, j)] == a & b
        proper = naive - {elements}
        maximal = {s for s in proper if not any(s < t for t in proper)}
        assert lat.maximal == [s in maximal for s in sets]
        if len(elements) > 1:
            assert baer_radical(G).element_set() == frozenset.intersection(*maximal)
        assert is_simple(G) == (len(naive) == 2)


@st.composite
def cyclic_product(draw):
    """(degree, generators) of a direct product of at most one of S3, D8 and
    Q8 with up to three cyclic groups, each on its own block of points, of
    order at most 64."""
    factors = list(draw(st.sampled_from([[], [S3().raw_gens()], [D8().raw_gens()],
                                         [Q8().raw_gens()]])))
    order = len(oracles.naive_closure(factors[0], len(factors[0][0]))) if factors else 1
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        n = draw(st.integers(min_value=1, max_value=max(1, min(8, 64 // order))))
        factors.append([tuple((i + 1) % n for i in range(n))])
        order *= n
    degree, gens = 0, []
    for block in factors:
        for g in block:
            gens.append(tuple(range(degree)) + tuple(degree + x for x in g))
        degree += len(block[0])
    return degree, [g + tuple(range(len(g), degree)) for g in gens]


def mask_classes(G, mask):
    return [cls for k, cls in enumerate(conjugacy_classes(G)) if mask >> k & 1]


@pytest.fixture(scope="module")
def gammas():
    """Γ of every realization `realization-gamma-quotients` checks, with its
    top group: every catalog member of order at most 12, and C2 in C4."""
    ctx = SuiteContext(build_universe(), DEFAULT_CAPS)
    return [(name, cert.gn, cert.gamma) for name, cert in ctx.small_realizations()]


class TestLatticeByClassMasks:
    # sha256 of the generator strings, masks and maximal flags of every
    # member, recorded before joins and closures were matched by the
    # class-size order identity.
    PINNED_LATTICE_SHA256 = "2c1d352e4263ffce35812460f6f6501a894c1ef2a2c4c2c809ff25416b2308b3"

    def test_pinned_lattices(self, gammas):
        groups = [(spec, parse_group_spec(spec))
                  for spec in ("S4", "A5", "S5", "SL25", "S6", "A7")]
        groups += [(f"gamma:{name}", gamma) for name, _, gamma in gammas]
        got = {}
        for label, G in groups:
            lat = normal_subgroups(G)
            got[label] = {"gens": [m.gen_strings() for m in lat.members],
                          "masks": lat.masks, "maximal": lat.maximal}
            for m, mask in zip(lat.members, lat.masks):
                assert m.order() == sum(cls.size for cls in mask_classes(G, mask))
        blob = json.dumps(got, sort_keys=True, separators=(",", ":")).encode()
        assert hashlib.sha256(blob).hexdigest() == self.PINNED_LATTICE_SHA256

    def test_work_on_the_gamma_quotient_groups(self, gammas, monkeypatch):
        # Before joins were decided by the order identity and closures
        # inherited along power classes, these lattices made 578
        # `PermGroup.extended` and 618 `normal_closure` calls.
        calls = Counter()
        extended, closure = perm.PermGroup.extended, structure.normal_closure

        def counted_extended(self, extra):
            calls["extended"] += 1
            return extended(self, extra)

        def counted_closure(G, seeds):
            calls["normal_closure"] += 1
            return closure(G, seeds)

        monkeypatch.setattr(perm.PermGroup, "extended", counted_extended)
        monkeypatch.setattr(structure, "normal_closure", counted_closure)
        for _, gn, gamma in gammas:
            for G in (gn, gamma):
                G._cache.pop("normal_lattice", None)
                normal_subgroups(G)
        assert dict(calls) == {"extended": 12, "normal_closure": 297}

    @pytest.mark.parametrize("spec,closures", [("C7", 1), ("C12", 5), ("A5", 3)])
    def test_power_classes_inherit_their_closure(self, spec, closures, monkeypatch):
        # A generator of C7 is a coprime power of the least one; in A5 the
        # second class of 5-cycles holds the squares of the first.
        seeds = []
        closure = structure.normal_closure
        monkeypatch.setattr(structure, "normal_closure",
                            lambda G, s: seeds.append(s) or closure(G, s))
        G = parse_group_spec(spec)
        normal_subgroups(G)
        assert len(seeds) == closures < len(conjugacy_classes(G)) - 1

    @given(cyclic_product())
    @settings(max_examples=30, deadline=None)
    def test_cyclic_and_direct_products_match_oracle(self, case):
        # Cyclic factors give classes that are coprime powers of each other,
        # whose closures are inherited rather than computed.
        degree, gens = case
        G = generate(gens, degree)
        lat = normal_subgroups(G)
        sets = [m.element_set() for m in lat.members]
        naive = oracles.naive_normal_subgroups(oracles.naive_closure(gens, degree), degree)
        assert set(sets) == naive and len(sets) == len(naive)
        for m, mask in zip(sets, lat.masks):
            assert m == frozenset().union(*(cls.members for cls in mask_classes(G, mask)))


class TestRadical:
    def test_frozen_values(self):
        assert baer_radical(A5()).order() == 1
        assert baer_radical(C6()).order() == 1
        assert baer_radical(S4()).order() == 12
        assert baer_radical(D8()).order() == 2

    def test_q8_radical_is_center(self):
        G = Q8()
        rad = baer_radical(G)
        assert rad.order() == 2
        assert rad.same_group(center(G))

    def test_radical_is_normal(self):
        for maker in (S4, D8, Q8, C6):
            G = maker()
            assert normal_in(G, baer_radical(G))

    def test_trivial_group_rejected(self):
        with pytest.raises(InvalidInput):
            baer_radical(generate([], 2))


class TestQuotient:
    def test_s4_mod_v4_is_s3(self):
        Q, proj = quotient(S4(), V4())
        assert Q.order() == 6
        assert proj.kernel().same_group(V4())
        assert isomorphic(Q, S3()) is not None

    def test_s4_mod_a4(self):
        Q, _ = quotient(S4(), A4())
        assert Q.order() == 2

    def test_trivial_normal_gives_same_group(self):
        G = S4()
        Q, proj = quotient(G, generate([], 4))
        assert Q is G
        assert proj.kernel().order() == 1

    def test_full_group_gives_trivial_quotient(self):
        G = C6()
        Q, proj = quotient(G, G)
        assert Q.order() == 1 and Q.degree == 1
        assert Q.generators == () and Q.same_group(trivial_group(1))
        assert proj.kernel().same_group(G)

    def test_non_normal_rejected(self):
        with pytest.raises(InvalidInput):
            quotient(S4(), generate(["(1 2)"], 4))

    def test_projection_is_multiplicative(self):
        _, proj = quotient(S4(), V4())
        assert proj.is_multiplicative()
        assert oracles.naive_is_homomorphism(
            {x: proj.apply_raw(x) for x in proj.source.raw_elements()})

    def test_lattice_quotient_is_built_once_and_cached_on_the_group(self, monkeypatch):
        G = S4()
        members = normal_subgroups(G).members
        calls = []
        real = structure.quotient
        monkeypatch.setattr(structure, "quotient", lambda *args: calls.append(args) or real(*args))
        first = [lattice_quotient(G, idx) for idx in range(len(members))]
        again = [lattice_quotient(G, idx) for idx in range(len(members))]
        assert [Q.order() for Q in first] == [24, 6, 2, 1]
        assert all(a is b for a, b in zip(first, again))
        # G/1 is G itself, neither built nor stored
        assert first[0] is G and all(v is not G for v in G._cache.values())
        assert [N for _, N in calls] == members[1:]


def naive_kernel(hom: GroupHom) -> frozenset:
    """{x in the source : hom(x) = 1}, one evaluation per element."""
    ident = tuple(range(hom.target.degree))
    return frozenset(x for x in hom.source.raw_elements() if hom.apply_raw(x) == ident)


@st.composite
def group_and_subgroup(draw):
    """(G, S): G of degree at most 5 on random generators, S ≤ G on random
    elements of G."""
    degree, gens = draw(generated_group())
    G = generate(gens, degree)
    return G, generate(draw(st.lists(st.sampled_from(G.raw_elements()), max_size=2)), degree)


class TestComputedKernels:
    """Every kernel is the pointwise stabilizer of the target points in the
    graph chain, never a stored value, so it is checked against the naive
    kernel {x : hom(x) = 1} read through each map's own evaluation."""

    NAMED = ["S4", "A5", "SL23"]

    @pytest.mark.parametrize("spec", NAMED)
    def test_coset_action_kernels_of_named_groups(self, spec):
        G = parse_group_spec(spec)
        groups = subgroups(G)
        for idx in sorted(set(subgroup_classes(G))):
            hom = coset_action(G, groups[idx])
            assert hom.kernel().element_set() == naive_kernel(hom)

    @given(group_and_subgroup())
    @settings(max_examples=40, deadline=None)
    def test_coset_action_kernels_of_generated_groups(self, case):
        G, S = case
        hom = coset_action(G, S)
        assert hom.kernel().element_set() == naive_kernel(hom)

    @staticmethod
    def _assert_quotient_kernels(G):
        for N in normal_subgroups(G).members:
            proj = quotient(G, N)[1]
            assert proj.kernel().element_set() == naive_kernel(proj) == N.element_set()

    @pytest.mark.parametrize("spec", NAMED)
    def test_quotient_kernels_of_named_groups(self, spec):
        self._assert_quotient_kernels(parse_group_spec(spec))

    @given(generated_group())
    @settings(max_examples=40, deadline=None)
    def test_quotient_kernels_of_generated_groups(self, case):
        degree, gens = case
        self._assert_quotient_kernels(generate(gens, degree))

    @staticmethod
    def _assert_wreath_top_kernel(G0, Gn, G_sub):
        W = wreath_by_cosets(G0, Gn, G_sub)
        assert W.top.kernel().element_set() == naive_kernel(W.top) == W.base.element_set()

    @pytest.mark.parametrize("spec", NAMED)
    def test_wreath_top_kernels_of_named_groups(self, spec):
        Gn = parse_group_spec(spec)
        self._assert_wreath_top_kernel(generate(["(1 2)"], 2), Gn, point_stabilizer(Gn, 0))

    @given(generated_group(), group_and_subgroup())
    @settings(max_examples=40, deadline=None)
    def test_wreath_top_kernels_of_generated_groups(self, base, top):
        (degree, gens), (Gn, G_sub) = base, top
        G0 = generate(gens, degree)
        # Γ is enumerated for the naive kernel, so keep |Γ| = |G0|^N·|Gn| small.
        assume(G0.order() ** (Gn.order() // G_sub.order()) * Gn.order() <= 3000)
        self._assert_wreath_top_kernel(G0, Gn, G_sub)


class TestIsomorphism:
    def test_c4_not_isomorphic_to_v4(self):
        assert isomorphic(generate(["(1 2 3 4)"], 4), V4()) is None

    def test_quotient_s4_v4_isomorphic_s3(self):
        Q, _ = quotient(S4(), V4())
        cert = isomorphic(Q, S3())
        assert cert is not None
        assert cert.verify()

    def test_reflexive(self):
        for maker in (S4, Q8, A5):
            G = maker()
            cert = isomorphic(G, G)
            assert cert is not None and cert.verify()

    def test_two_presentations_of_same_group(self):
        direct = generate(["(1 2 3)", "(1 2)", "(4 5)"], 5)
        dihedral = generate(["(1 2 3 4 5 6)", "(2 6)(3 5)"], 6)
        assert direct.order() == dihedral.order() == 12
        cert = isomorphic(direct, dihedral)
        assert cert is not None and cert.verify()

    def test_a5_on_six_points(self):
        G = A5()
        D10 = generate(["(1 2 3 4 5)", "(2 5)(3 4)"], 5)
        acted = coset_action(G, D10).image()
        assert acted.degree == 6
        cert = isomorphic(G, acted)
        assert cert is not None and cert.verify()

    def test_symmetric(self):
        Q, _ = quotient(S4(), V4())
        assert (isomorphic(Q, S3()) is None) == (isomorphic(S3(), Q) is None)

    def test_different_orders_rejected_fast(self):
        assert isomorphic(S3(), S4()) is None

    def test_trivial_groups(self):
        cert = isomorphic(generate([], 2), generate([], 5))
        assert cert is not None and cert.verify()

    def test_verify_rejects_bad_certificate(self):
        G = S3()
        bad_images = [Permutation.from_cycles("(1 2)", 3),
                      Permutation.from_cycles("(1 2)", 3)]
        bad = IsoCertificate(GroupHom(G, G, bad_images))
        assert not bad.verify()

    def test_verify_rejects_images_outside_target(self):
        # ⟨(2 3)⟩ has the target's order, but (2 3) is not in ⟨(1 2)⟩.
        stray = IsoCertificate(GroupHom(generate(["(1 2)"], 2), generate(["(1 2)"], 3),
                                        [Permutation.from_cycles("(2 3)", 3)]))
        assert not stray.verify()

    def test_fingerprints_separate_order_eight_groups(self):
        assert fingerprint(D8()) != fingerprint(Q8())
        c8 = generate(["(1 2 3 4 5 6 7 8)"], 8)
        assert fingerprint(c8) != fingerprint(D8())

    def test_fingerprint_equal_groups_not_isomorphic(self):
        # C4 ⋊ C4 and Q8 × C2 share every fingerprint invariant, so the search
        # must run to exhaustion in both directions.
        G = parse_group_spec("perm8[(1 2 3 4);(2 4)(5 6 7 8)]")
        H = parse_group_spec("perm10[(1 2 3 4)(5 6 7 8);(1 5 3 7)(2 8 4 6);(9 10)]")
        assert G.order() == H.order() == 16
        assert fingerprint(G) == fingerprint(H)
        assert isomorphic(G, H) is None and isomorphic(H, G) is None
        assert oracles.naive_isomorphic(G.element_set(), H.element_set(),
                                        G.degree, H.degree) is None

    SMALL_GENS = st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.lists(st.permutations(list(range(n))).map(tuple),
                           min_size=1, max_size=3))

    @given(SMALL_GENS, st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_naive_oracle_on_generated_groups(self, gens_g, data):
        n = len(gens_g[0])
        G = generate(gens_g, n)
        if data.draw(st.booleans(), label="relabel"):
            # the same group on relabelled points, under other generators
            sigma = data.draw(st.permutations(list(range(n))), label="sigma")
            moved = [oracles.compose(sigma, oracles.compose(g, oracles.inverse(sigma)))
                     for g in gens_g]
            product = moved[0]
            for g in moved[1:]:
                product = oracles.compose(g, product)
            H = generate(moved[::-1] + [product], n)
        else:
            gens_h = data.draw(self.SMALL_GENS, label="gens_h")
            H = generate(gens_h, len(gens_h[0]))
        cert = isomorphic(G, H)
        brute = oracles.naive_isomorphic(G.element_set(), H.element_set(),
                                         G.degree, H.degree)
        assert (cert is None) == (brute is None)
        if cert is not None:
            assert cert.verify()

    # sha256 of the certificate's generator images: the first certificate in the
    # fixed candidate order is part of the output (`realize --json` prints it).
    PINNED_CERTIFICATES = {
        "A6": "c2d691e343624d40a0ac94da196eef8a38fc38da237d320f2b6ceb8181ad6b80",
        "A7": "3bc7eb969f3254bcf0bdd2a259a893e3c0db4de8df97944a27ad1e808fd55e66",
        "S7": "5712833295b5b0618ecaa6bfaec77fa2719a72b50fdc06a9279e32eade9f7bda",
        "A5": "cf12bf3813e4c156ecdad2f3af1c2a57d85ae7941d19c81ac3404c3b31763b3b",
        "SL25": "9f9a3f9de08c122bcd213f4aca6c13f1fdcf7e8f6bf63eea54e1138d22ca819f",
        "S5": "18f082c8ae021c202a52618bff7879416d9b705c675ad1afeefa2085e0b0beef",
        "A5-regular": "67b383ecc77f66dac4067f09db5aa4022a7232f8149249196bf68188ca55a566",
    }

    @staticmethod
    def certificate_digest(G, H):
        cert = isomorphic(G, H)
        assert cert is not None and cert.verify()
        images = [str(p) for p in cert.forward.gen_images]
        return hashlib.sha256(json.dumps(images).encode()).hexdigest()

    @pytest.mark.parametrize("spec", ["A6", "A7", "S7", "A5", "SL25", "S5"])
    def test_pinned_certificate_between_two_parses(self, spec):
        digest = self.certificate_digest(parse_group_spec(spec), parse_group_spec(spec))
        assert digest == self.PINNED_CERTIFICATES[spec]

    def test_pinned_certificate_onto_regular_image(self):
        # The left-regular action on the sorted element list, as pinned.
        G = parse_group_spec("A5")
        elems = G.raw_elements()
        index = {e: i for i, e in enumerate(elems)}
        regular = generate([tuple(index[oracles.compose(g, e)] for e in elems)
                            for g in G.raw_gens()], len(elems))
        assert regular.degree == 60
        assert self.certificate_digest(G, regular) == self.PINNED_CERTIFICATES["A5-regular"]

    @given(generated_group(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_conjugated_copy_matches_unfiltered_reference(self, case, data):
        degree, gens = case
        pi = data.draw(st.permutations(list(range(degree))).map(tuple), label="pi")
        moved = [oracles.compose(pi, oracles.compose(g, oracles.inverse(pi))) for g in gens]
        G, H = generate(gens, degree), generate(moved, degree)
        cert = isomorphic(G, H)
        table = oracles.reference_isomorphism(G.element_set(), H.element_set(),
                                              degree, degree)
        assert cert is not None and table is not None
        assert [p.images for p in cert.forward.gen_images] == [table[g] for g in G.raw_gens()]

    @pytest.mark.parametrize("first", [True, False])
    def test_known_order_over_the_cap_raises_before_the_other_chain(self, first):
        caps = Caps(iso_cap=100)
        known = parse_group_spec("S5")
        assert known.order() == 120
        other = parse_group_spec("A5")
        assert other._chain is None
        # Orders differ, so this is None when neither order exceeds the cap.
        pair = (known, other) if first else (other, known)
        with pytest.raises(CapExceeded, match="order 120 exceeds iso cap 100"):
            isomorphic(*pair, caps)
        assert other._chain is None


def _conjugate(G, pi):
    """πGπ⁻¹ in Sym(n), on generators of its own."""
    return generate([oracles.compose(pi, oracles.compose(g, oracles.inverse(pi)))
                     for g in G.raw_gens()], G.degree)


def _times_c2(G):
    """G × C2, with C2 on two points of its own."""
    n = G.degree
    return generate([g + (n, n + 1) for g in G.raw_gens()]
                    + [tuple(range(n)) + (n + 1, n)], n + 2)


# Small groups whose orders collide: C4 and V4; S3 and C6; C8, D8 and Q8
# (and C4 × C2, D8 × C2 ... through `_times_c2`).
ISO_BASES = ["C2", "C4", "V4", "S3", "perm5[(1 2)(3 4 5)]", "C8", "D8", "Q8"]


@st.composite
def iso_family(draw):
    """Two to four distinct groups of `ISO_BASES`, perhaps a random group of
    degree at most 4, and copies and products of them: a conjugate in
    Sym(n), the left-regular image, the direct product with C2, and a
    conjugate of that product."""
    random_group = st.integers(1, 4).flatmap(
        lambda n: st.lists(st.permutations(list(range(n))).map(tuple), min_size=1,
                           max_size=2)).map(lambda gens: generate(gens, len(gens[0])))
    named = draw(st.lists(st.sampled_from(ISO_BASES), min_size=2, max_size=4, unique=True))
    bases = [parse_group_spec(spec) for spec in named]
    bases += draw(st.lists(random_group, max_size=1))
    groups = list(bases)
    for _ in range(draw(st.integers(2, 4))):
        G = draw(st.sampled_from(bases))
        how = draw(st.sampled_from(["conjugate", "regular", "times_c2"]))
        if how == "regular":
            groups.append(regular_representation(G).image())
            continue
        if how == "times_c2":
            G = _times_c2(G)
        pi = draw(st.permutations(list(range(G.degree))).map(tuple), label="pi")
        groups.append(_conjugate(G, pi))
    return groups


class TestIsoTypes:
    @given(iso_family())
    @settings(max_examples=25, deadline=None)
    def test_one_type_exactly_when_the_naive_oracle_finds_an_isomorphism(self, groups):
        types = IsoTypes()
        ids = [types.id_of(G) for G in groups]
        for i, G in enumerate(groups):
            for j in range(i + 1, len(groups)):
                H = groups[j]
                iso = oracles.naive_isomorphic(G.element_set(), H.element_set(),
                                               G.degree, H.degree)
                assert (ids[i] == ids[j]) == (iso is not None)
        assert [types.id_of(G) for G in groups] == ids
        assert [types.id_of(R) for R in types.reps] == list(range(len(types.reps)))

    def test_iso_cap_binds_only_between_groups_of_one_order(self):
        types = IsoTypes(Caps(iso_cap=50))
        s5, a5 = parse_group_spec("S5"), parse_group_spec("A5")
        # each alone in its order, so neither is fingerprinted
        assert [types.id_of(s5), types.id_of(a5)] == [0, 1]
        assert "fingerprint" not in s5._cache
        # equal to a representative as a subgroup of Sym(5): no search
        assert types.id_of(generate(["(1 2 3 4 5)", "(1 2)", "(1 3)"], 5)) == 0
        with pytest.raises(CapExceeded, match="order 120 exceeds iso cap 50"):
            types.id_of(parse_group_spec("SL25"))


def _one_registry(*groups):
    types = IsoTypes()
    for G in groups:
        types.id_of(G)


class TestNoReferenceCycles:
    """A group dies with its last strong reference, without the cycle collector."""

    CASES = {
        "isomorphic": (lambda: (S4(), S4()), isomorphic),
        # fingerprint-equal and not isomorphic, so the search runs to exhaustion
        "isomorphic-exhausted": (
            lambda: (parse_group_spec("perm8[(1 2 3 4);(2 4)(5 6 7 8)]"),
                     parse_group_spec("perm10[(1 2 3 4)(5 6 7 8);(1 5 3 7)(2 8 4 6);(9 10)]")),
            isomorphic),
        "normal_subgroups": (lambda: (S4(),), normal_subgroups),
        "lattice_quotient": (lambda: (S4(),),
                             lambda G: [lattice_quotient(G, idx) for idx in range(4)]),
        "IsoTypes": (lambda: (S4(), regular_representation(S4()).image()), _one_registry),
        "complement_exists": (lambda: (S4(), V4()), complement_exists),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_groups_die_without_collection(self, case):
        make, call = self.CASES[case]
        gc.disable()
        try:
            groups = make()
            refs = [weakref.ref(X) for X in groups]
            call(*groups)
            del groups
            assert [r() for r in refs] == [None] * len(refs)
        finally:
            gc.enable()

    def test_no_nested_function_refers_to_itself(self):
        # Such a function holds itself through its own closure cell, so the
        # cycle keeps everything it closes over alive until a collection.
        src = Path(__file__).resolve().parent.parent / "src" / "classlab"
        found = []
        for path in sorted(src.glob("*.py")):
            for outer in ast.walk(ast.parse(path.read_text())):
                if not isinstance(outer, ast.FunctionDef):
                    continue
                for inner in ast.walk(outer):
                    if (inner is not outer and isinstance(inner, ast.FunctionDef)
                            and any(isinstance(n, ast.Name) and n.id == inner.name
                                    for n in ast.walk(inner))):
                        found.append(f"{path.name}:{inner.lineno} {inner.name}")
        assert found == []


class TestSubgroups:
    def test_frozen_counts(self):
        assert len(subgroups(C6())) == 4
        assert len(subgroups(S3())) == 6
        assert len(subgroups(S4())) == 30
        assert len(subgroups(Q8())) == 6
        assert len(subgroups(A4())) == 10
        assert len(subgroups(D8())) == 10
        assert len(subgroups(A5())) == 59

    def test_trivial(self):
        got = subgroups(generate([], 3))
        assert len(got) == 1 and got[0].order() == 1

    def test_s3_subgroup_orders(self):
        assert [S.order() for S in subgroups(S3())] == [1, 2, 2, 2, 3, 6]

    def test_every_result_is_a_subgroup(self):
        G = S4()
        for S in subgroups(G):
            assert S.is_subgroup_of(G)

    def test_limit_overflow(self):
        G = S4()
        G._cache.pop("subgroups", None)
        with pytest.raises(SubgroupLimitExceeded):
            subgroups(G, caps=Caps(subgroup_limit=10))

    def test_cached_list_longer_than_limit_raises(self):
        G = S4()
        assert len(subgroups(G)) == 30
        with pytest.raises(SubgroupLimitExceeded):
            subgroups(G, caps=Caps(subgroup_limit=29))
        assert len(subgroups(G, caps=Caps(subgroup_limit=30))) == 30

    def test_limit_counts_cyclic_atoms(self):
        # C6 has four subgroups, all cyclic, so no join adds one: the first
        # call must raise as the second does.
        C6 = parse_group_spec("C6")
        for _ in range(2):
            with pytest.raises(SubgroupLimitExceeded):
                subgroups(C6, caps=Caps(subgroup_limit=1))
        assert len(subgroups(C6, caps=Caps(subgroup_limit=4))) == 4

    @pytest.mark.parametrize("spec,limit", [("S5", 100), ("A6", 50)])
    def test_limit_stops_large_enumeration(self, spec, limit):
        with pytest.raises(SubgroupLimitExceeded):
            subgroups(parse_group_spec(spec), caps=Caps(subgroup_limit=limit))

    LIMIT_HINT = "raise it with --subgroup-limit or CLASSLAB_SUBGROUP_LIMIT"

    def test_limit_messages_name_the_count_and_how_to_raise_it(self):
        G = S4()
        with pytest.raises(SubgroupLimitExceeded) as exc:
            subgroups(G, caps=Caps(subgroup_limit=10))
        assert str(exc.value) == f"subgroup count 11 exceeds subgroup limit 10; {self.LIMIT_HINT}"
        assert len(subgroups(G)) == 30
        with pytest.raises(SubgroupLimitExceeded) as exc:
            subgroups(G, caps=Caps(subgroup_limit=29))
        assert str(exc.value) == f"subgroup count 30 exceeds subgroup limit 29; {self.LIMIT_HINT}"

    # sha256 of the generator lists of subgroups(): a class representative
    # has its parent representative's generators followed by one atom, and
    # every other member of a non-cyclic class the conjugates of those.
    PINNED_GENERATORS_SHA256 = "4f44454caf0243f6c5f641a15df03f07f591059b895d3ea4abcf98de6385c704"

    def test_pinned_generator_lists(self):
        got = {spec: [S.gen_strings() for S in subgroups(parse_group_spec(spec))]
               for spec in ("S4", "A5", "S5", "SL25", "A6")}
        blob = json.dumps(got, sort_keys=True, separators=(",", ":")).encode()
        assert hashlib.sha256(blob).hexdigest() == self.PINNED_GENERATORS_SHA256

    @pytest.mark.parametrize("spec,count", [("S4", 11), ("S5", 19), ("SL25", 12), ("A6", 22)])
    def test_conjugacy_class_counts(self, spec, count):
        G = parse_group_spec(spec)
        first = subgroup_classes(G)
        assert len(first) == len(subgroups(G))
        assert len(set(first)) == count

    def test_popping_the_cache_drops_the_class_list(self):
        G = S4()
        subs, first = subgroups(G), subgroup_classes(G)
        G._cache.pop("subgroups")
        again = subgroup_classes(G)
        assert again is not first and again == first
        assert subgroups(G) is not subs

    @staticmethod
    def assert_classes_match_oracle(G):
        subs, first = subgroups(G), subgroup_classes(G)
        assert len(first) == len(subs)
        # Each entry points at the first member of its class.
        assert all(first[first[i]] == first[i] <= i for i in range(len(first)))
        classes: dict[int, set] = {}
        for S, f in zip(subs, first):
            classes.setdefault(f, set()).add(S.element_set())
        assert ({frozenset(c) for c in classes.values()}
                == oracles.naive_subgroup_classes(G.element_set(), G.degree))

    @pytest.mark.parametrize("make", [D8, Q8, A4, S4, A5, SL25])
    def test_classes_match_naive_oracle(self, make):
        self.assert_classes_match_oracle(make())

    @given(st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.lists(st.permutations(list(range(n))).map(tuple),
                           min_size=1, max_size=3)))
    @settings(max_examples=25, deadline=None)
    def test_classes_match_naive_oracle_on_generated_groups(self, gens):
        self.assert_classes_match_oracle(generate(gens, len(gens[0])))

    # sha256 of the element sets and the class lists of subgroups(): what
    # the choice of generators must never move.
    PINNED_ELEMENTS_SHA256 = "0113427a8cb5bd5db21b2677736dc368fc68883b4d18fc6219721407fe7e6d3a"

    def test_pinned_element_sets_and_classes(self):
        got = {}
        for spec in ("S4", "A5", "S5", "SL25", "A6"):
            G = parse_group_spec(spec)
            got[spec] = [[S.raw_elements() for S in subgroups(G)], subgroup_classes(G)]
        blob = json.dumps(got, sort_keys=True, separators=(",", ":")).encode()
        assert hashlib.sha256(blob).hexdigest() == self.PINNED_ELEMENTS_SHA256

    @staticmethod
    def assert_class_generators_conjugate(G):
        """One element of G conjugates the generators of the first member of
        a class of non-cyclic subgroups, in order, onto each member's."""
        subs, first = subgroups(G), subgroup_classes(G)
        elems = G.raw_elements()
        for S, f in zip(subs, first):
            if is_cyclic(S):
                continue
            r, s = subs[f].raw_gens(), S.raw_gens()
            assert len(r) == len(s) and any(
                all(conj(t) == u for t, u in zip(r, s)) for conj in map(perm._conjugator, elems)), \
                (subs[f].gen_strings(), S.gen_strings())

    @pytest.mark.parametrize("make", [A5, S5, SL25])
    def test_class_members_have_conjugate_generators(self, make):
        self.assert_class_generators_conjugate(make())

    @given(st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.lists(st.permutations(list(range(n))).map(tuple),
                           min_size=1, max_size=3)))
    @settings(max_examples=25, deadline=None)
    def test_class_members_have_conjugate_generators_on_generated_groups(self, gens):
        self.assert_class_generators_conjugate(generate(gens, len(gens[0])))

    @staticmethod
    def assert_matches_oracle(G):
        subs = subgroups(G)
        fast = [S.element_set() for S in subs]
        assert len(set(fast)) == len(fast)
        assert set(fast) == oracles.naive_subgroups(G.element_set(), G.degree)
        assert [S.order() for S in subs] == sorted(len(x) for x in fast)

    @pytest.mark.parametrize("make", [D8, Q8, A4, S4])
    def test_matches_naive_oracle(self, make):
        self.assert_matches_oracle(make())

    @given(st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.lists(st.permutations(list(range(n))).map(tuple),
                           min_size=1, max_size=3)))
    @settings(max_examples=25, deadline=None)
    def test_matches_naive_oracle_on_generated_groups(self, gens):
        self.assert_matches_oracle(generate(gens, len(gens[0])))

    def test_pinned_s4_generators(self):
        assert [S.gen_strings() for S in subgroups(S4())] == [
            [], ["(3 4)"], ["(2 3)"], ["(2 4)"], ["(1 2)"], ["(1 2)(3 4)"],
            ["(1 3)"], ["(1 3)(2 4)"], ["(1 4)"], ["(1 4)(2 3)"], ["(2 3 4)"],
            ["(1 2 3)"], ["(1 2 4)"], ["(1 3 4)"], ["(3 4)", "(1 2)"],
            ["(1 4)", "(2 3)"], ["(2 4)", "(1 3)"], ["(1 2)(3 4)", "(1 3)(2 4)"],
            ["(1 3 2 4)"], ["(1 2 3 4)"], ["(1 2 4 3)"], ["(3 4)", "(2 3)"],
            ["(3 4)", "(1 3)"], ["(1 2)", "(1 3)"], ["(1 4)", "(2 4)"],
            ["(3 4)", "(1 3)(2 4)"], ["(1 4)", "(1 3)(2 4)"],
            ["(2 4)", "(1 4)(2 3)"], ["(2 3 4)", "(1 2)(3 4)"],
            ["(3 4)", "(1 2 3)"]]

    def test_pinned_sl23_orders_and_generators(self):
        got = [(S.order(), S.gen_strings()) for S in subgroups(parse_group_spec("SL23"))]
        assert got == [
            (1, []),
            (2, ["(1 2)(3 6)(4 8)(5 7)"]),
            (3, ["(3 4 5)(6 8 7)"]),
            (3, ["(1 3 8)(2 6 4)"]),
            (3, ["(1 4 7)(2 8 5)"]),
            (3, ["(1 5 6)(2 7 3)"]),
            (4, ["(1 3 2 6)(4 5 8 7)"]),
            (4, ["(1 4 2 8)(3 7 6 5)"]),
            (4, ["(1 5 2 7)(3 4 6 8)"]),
            (6, ["(1 2)(3 7 4 6 5 8)"]),
            (6, ["(1 3 5 2 6 7)(4 8)"]),
            (6, ["(1 4 3 2 8 6)(5 7)"]),
            (6, ["(1 5 4 2 7 8)(3 6)"]),
            (8, ["(1 3 2 6)(4 5 8 7)", "(1 4 2 8)(3 7 6 5)"]),
            (24, ["(3 4 5)(6 8 7)", "(1 3 2 6)(4 5 8 7)"])]

    def test_matches_naive_filter_on_s3(self):
        G = S3()
        fast = {frozenset(S.raw_elements()) for S in subgroups(G)}
        elems = G.element_set()
        brute = set()
        for sub in oracles.naive_normal_subgroups(G.element_set(), 3):
            brute.add(sub)
        assert brute <= fast


class TestRadicalFactorization:
    def test_q8(self):
        fac = radical_factorization(Q8())
        assert sorted(fac.quotient_orders) == [2, 2]
        assert fac.radical.order() == 2
        assert len(fac.family) == 2

    def test_c6(self):
        fac = radical_factorization(C6())
        assert sorted(fac.quotient_orders) == [2, 3]
        assert fac.radical.order() == 1

    def test_a5(self):
        fac = radical_factorization(A5())
        assert fac.quotient_orders == [60]
        assert fac.radical.order() == 1

    def test_v4(self):
        fac = radical_factorization(V4())
        assert sorted(fac.quotient_orders) == [2, 2]
        assert len(fac.family) == 2

    def test_order_identity(self):
        for maker in (S4, Q8, C6, D8, A4):
            G = maker()
            fac = radical_factorization(G)
            product = 1
            for q in fac.quotient_orders:
                product *= q
            assert product == G.order() // fac.radical.order()
            for Q in fac.quotients:
                assert is_simple(Q)


class TestSimpleQuotients:
    def test_frozen(self):
        assert [q.order() for q in simple_quotients(S4())] == [2]
        assert sorted(q.order() for q in simple_quotients(C6())) == [2, 3]
        assert [q.order() for q in simple_quotients(A5())] == [60]
        assert [q.order() for q in simple_quotients(Q8())] == [2]
        assert simple_quotients(generate([], 3)) == []


class TestPrimeOrderQuotient:
    def test_frozen(self):
        S5 = generate(["(1 2)", "(1 2 3 4 5)"], 5)
        assert has_prime_order_quotient(S5)
        assert not has_prime_order_quotient(A5())
        assert has_prime_order_quotient(Q8())
        assert has_prime_order_quotient(generate(["(1 2 3 4 5 6 7)"], 7))

    def test_agrees_with_maximal_normal_scan(self):
        for maker in (S4, A4, A5, C6, D8, Q8, S3):
            G = maker()
            lat = normal_subgroups(G)
            scan = any((G.order() // H.order()) in (2, 3, 5, 7, 11)
                       for H in lat.maximal_members())
            assert has_prime_order_quotient(G) == scan


class TestComplements:
    def test_s4_over_a4(self):
        K = complement_exists(S4(), A4())
        assert K is not None and K.order() == 2
        assert len(K.element_set() & A4().element_set()) == 1

    def test_c4_over_c2_has_none(self):
        C4 = generate(["(1 2 3 4)"], 4)
        C2 = generate(["(1 3)(2 4)"], 4)
        assert complement_exists(C4, C2) is None

    def test_trivial_normal(self):
        G = S4()
        assert complement_exists(G, generate([], 4)) is G

    def test_full_normal(self):
        K = complement_exists(S4(), S4())
        assert K is not None and K.order() == 1

    def test_q8_over_center_has_none(self):
        G = Q8()
        assert complement_exists(G, center(G)) is None

    def test_search_space_over_the_fixed_bound(self, monkeypatch):
        # The fiber over the quotient generator is the 6 transpositions.
        monkeypatch.setattr(structure, "COMPLEMENT_SPACE_BOUND", 5)
        with pytest.raises(CapExceeded) as exc:
            complement_exists(S4(), A4())
        assert str(exc.value) == "complement search space 6 exceeds fixed bound 5"
        monkeypatch.setattr(structure, "COMPLEMENT_SPACE_BOUND", 6)
        assert complement_exists(S4(), A4()).order() == 2

    def test_s3_over_c3(self):
        G = S3()
        C3 = generate(["(1 2 3)"], 3)
        K = complement_exists(G, C3)
        assert K is not None and K.order() == 2
