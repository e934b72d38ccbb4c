"""Permutation arithmetic, stabilizer chains, and product constructions."""
import hashlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from classlab.config import Caps, cap_message
from classlab.errors import CapExceeded, DegreeMismatch, InvalidInput, ParseError
from classlab.perm import (
    GroupHom,
    Permutation,
    StabChain,
    _compose,
    _conjugator,
    _inverse,
    _place_blocks,
    _right,
    block_product,
    coset_action,
    direct_power,
    generate,
    group_from_elements,
    induced_map,
    point_stabilizer,
    regular_representation,
    trivial_group,
    wreath_by_cosets,
)
from classlab.realization import realize
from classlab.universe import parse_group_spec

import oracles

perm_of = st.integers(min_value=1, max_value=7).flatmap(
    lambda n: st.permutations(list(range(n))).map(tuple))


def same_degree_pairs(max_degree: int = 7):
    return st.integers(min_value=1, max_value=max_degree).flatmap(
        lambda n: st.tuples(st.permutations(list(range(n))).map(tuple),
                            st.permutations(list(range(n))).map(tuple)))


@st.composite
def group_with_subgroup(draw):
    """(degree, generators of G, generators of a subgroup of G, a point)."""
    degree = draw(st.integers(min_value=1, max_value=5))
    perm = st.permutations(list(range(degree))).map(tuple)
    g_gens = draw(st.lists(perm, min_size=1, max_size=3))
    elems = sorted(oracles.naive_closure(g_gens, degree))
    s_gens = draw(st.lists(st.sampled_from(elems), max_size=2))
    point = draw(st.integers(min_value=0, max_value=degree - 1))
    return degree, g_gens, s_gens, point


@st.composite
def generator_images(draw):
    """(source group, target degree, generator images): uniformly random images,
    or those of the sign map, of a relabelled inclusion, or of the trivial map."""
    rnd = random.Random(draw(st.integers(min_value=0, max_value=2**32)))

    def shuffled(n: int) -> tuple[int, ...]:
        points = list(range(n))
        rnd.shuffle(points)
        return tuple(points)

    degree, target = rnd.randint(2, 5), rnd.randint(1, 4)
    G = generate([shuffled(degree) for _ in range(rnd.randint(1, 3))], degree)
    kind = rnd.choice(["random", "random", "sign", "inclusion", "trivial"])
    ident = tuple(range(target))
    if kind == "random":
        images = [shuffled(target) for _ in G.generators]
    elif kind == "sign":
        flip = (1, 0) + ident[2:] if target > 1 else ident
        images = [flip if g.parity() else ident for g in G.generators]
    elif kind == "inclusion" and degree <= target:
        pi = shuffled(target)
        images = [_conjugator(pi)(g.images + ident[degree:]) for g in G.generators]
    else:
        images = [ident for _ in G.generators]
    return G, target, images


def same_degree_triples():
    return st.integers(min_value=1, max_value=7).flatmap(
        lambda n: st.tuples(st.permutations(list(range(n))).map(tuple),
                            st.permutations(list(range(n))).map(tuple),
                            st.permutations(list(range(n))).map(tuple)))


class TestPermutationBasics:
    def test_parse_frozen(self):
        assert Permutation.from_cycles("(1 2 3)(4 5)", 5).images == (1, 2, 0, 4, 3)
        assert Permutation.from_cycles("()", 4).images == (0, 1, 2, 3)
        assert Permutation.from_cycles("( 1   2 )", 3).images == (1, 0, 2)

    def test_format_frozen(self):
        assert str(Permutation((1, 2, 0, 4, 3))) == "(1 2 3)(4 5)"
        assert str(Permutation.identity(6)) == "()"

    def test_parse_rejects_garbage(self):
        with pytest.raises(ParseError):
            Permutation.from_cycles("(1 2", 4)
        with pytest.raises(ParseError):
            Permutation.from_cycles("(1 9)", 4)
        with pytest.raises(ParseError):
            Permutation.from_cycles("(1 2)(2 3)", 4)
        with pytest.raises(ParseError):
            Permutation.from_cycles("", 4)
        with pytest.raises(ParseError):
            Permutation.from_cycles("(1 x)", 4)

    def test_non_bijection_rejected(self):
        with pytest.raises(InvalidInput):
            Permutation((0, 0, 1))

    def test_compose_applies_right_factor_first(self):
        a = Permutation.from_cycles("(1 2)", 3)
        b = Permutation.from_cycles("(2 3)", 3)
        assert str(a * b) == "(1 2 3)"
        assert str(b * a) == "(1 3 2)"

    def test_order_and_parity(self):
        p = Permutation.from_cycles("(1 2 3)(4 5)", 5)
        assert p.order() == 6
        assert p.parity() == 1
        assert Permutation.from_cycles("(1 2 3)", 5).parity() == 0
        assert Permutation.identity(5).order() == 1

    @given(same_degree_pairs())
    def test_compose_matches_oracle(self, pair):
        a, b = pair
        assert (Permutation(a) * Permutation(b)).images == oracles.compose(a, b)

    @given(perm_of)
    def test_inverse(self, raw):
        p = Permutation(raw)
        assert (p * p.inverse()).is_identity()
        assert (p.inverse() * p).is_identity()

    @given(same_degree_triples())
    def test_associativity(self, triple):
        a, b, c = triple
        assert _compose(_compose(a, b), c) == _compose(a, _compose(b, c))

    @given(same_degree_pairs())
    def test_conjugate_helper_formula(self, pair):
        g, x = pair
        assert _conjugator(g)(x) == _compose(g, _compose(x, _inverse(g)))

    @given(same_degree_pairs(max_degree=8))
    def test_right_and_compose_match_oracle(self, pair):
        a, b = pair
        assert _right(b)(a) == _compose(a, b) == oracles.compose(a, b)

    @given(same_degree_pairs(max_degree=8))
    def test_conjugator_matches_oracle(self, pair):
        g, x = pair
        assert _conjugator(g)(x) == oracles.compose(g, oracles.compose(x, oracles.inverse(g)))

    # Degrees 1 and 2: an `itemgetter` on one index returns a scalar, so the
    # products must still come back as image tuples.
    @pytest.mark.parametrize("a, b", [((0,), (0,)), ((0, 1), (0, 1)), ((0, 1), (1, 0)),
                                      ((1, 0), (0, 1)), ((1, 0), (1, 0))])
    def test_small_degree_products_are_image_tuples(self, a, b):
        assert _right(b)(a) == _compose(a, b) == oracles.compose(a, b)
        assert _conjugator(a)(b) == oracles.compose(a, oracles.compose(b, oracles.inverse(a)))
        assert type(_compose(a, b)) is tuple and type(_conjugator(a)(b)) is tuple

    @given(same_degree_pairs())
    def test_parity_is_multiplicative(self, pair):
        a, b = pair
        pa, pb = Permutation(a), Permutation(b)
        assert (pa * pb).parity() == (pa.parity() + pb.parity()) % 2

    @given(perm_of)
    def test_cycle_text_round_trip(self, raw):
        p = Permutation(raw)
        assert Permutation.from_cycles(str(p), p.degree) == p


class TestStabChain:
    def test_a5_order_and_elements(self):
        G = generate(["(1 2 3)", "(3 4 5)"], 5)
        assert G.order() == 60
        elems = set(G.raw_elements())
        assert elems == oracles.naive_closure(G.raw_gens(), 5)

    def test_s4_order(self):
        G = generate(["(1 2)", "(1 2 3 4)"], 4)
        assert G.order() == 24
        assert set(G.raw_elements()) == oracles.naive_closure(G.raw_gens(), 4)

    def test_membership(self):
        A5 = generate(["(1 2 3)", "(3 4 5)"], 5)
        assert A5.contains("(1 2)(3 4)")
        assert not A5.contains("(1 2)")
        assert A5.contains(Permutation.identity(5))

    def test_trivial_group(self):
        T = trivial_group(4)
        assert T.order() == 1
        assert T.raw_elements() == ((0, 1, 2, 3),)

    def test_deterministic_rebuild(self):
        gens = ["(1 2 3)", "(3 4 5)"]
        G1, G2 = generate(gens, 5), generate(gens, 5)
        assert G1.chain().base() == G2.chain().base()
        assert tuple(G1.chain().iter_elements()) == tuple(G2.chain().iter_elements())
        assert G1.raw_elements() == G2.raw_elements()

    def test_elements_distinct_and_counted(self):
        G = generate(["(1 2)", "(1 2 3 4 5)"], 5)
        assert G.order() == 120
        elems = G.raw_elements()
        assert len(elems) == 120 == len(set(elems))

    def test_chain_copy_is_independent(self):
        G = generate(["(1 2 3)"], 5)
        c = G.chain().copy()
        c.extend(Permutation.from_cycles("(3 4 5)", 5).images)
        assert c.order() == 60
        assert G.order() == 3

    def test_extending_a_copy_leaves_the_original_alone(self):
        G = generate(["(1 2 3)(4 5)", "(1 2)"], 6)
        chain = G.chain()
        orbits = [sorted(lv.inverses) for lv in chain.levels]
        c = chain.copy()
        c.extend(Permutation.from_cycles("(1 2 3 4 5 6)", 6).images)
        assert c.order() == 720
        assert [sorted(lv.inverses) for lv in chain.levels] == orbits
        assert chain.order() == G.order() == 12
        # The original's Schreier-generator scan state is its own too: growing
        # it afterwards gives the chain a fresh build gives.
        extra = Permutation.from_cycles("(5 6)", 6).images
        chain.extend(extra)
        fresh = StabChain(6, G.raw_gens() + [extra])
        assert chain.base() == fresh.base()
        assert [lv.gens for lv in chain.levels] == [lv.gens for lv in fresh.levels]
        assert list(chain.iter_elements()) == list(fresh.iter_elements())

    @pytest.mark.parametrize("raws", [
        [(1, 0, 4, 3, 2), (2, 4, 0, 1, 3), (0, 3, 1, 2, 4)],
        [(0, 3, 4, 1, 2), (4, 2, 1, 0, 3)],
    ])
    def test_resumed_scan_finds_every_failure(self, raws):
        # Both generate S5; in each, a level's Schreier-generator scan fails
        # on two consecutive pairs, so resuming one pair too late loses half
        # of the group.
        assert StabChain(5, raws).order() == len(oracles.naive_closure(raws, 5)) == 120

    # sha256 of repr(tuple(chain().iter_elements())).  Element order depends on
    # the base, the strong generators and every transversal element, so these
    # pin the chain.
    PINNED_ELEMENT_ORDERS = {
        "S5": "0ee1b8204c4f55fc013a1ecb1b96437bd877419235e9e1513264d97edbf24b30",
        "SL25": "71655dd97fec31081f6edd1532efcc861b49cfe470fe3726687fd9dc027645e9",
        "gamma C2 top C4": "f55daab364535b3a1bf0ef88519c70e7f933f86716cd7a8d37b80e54b8baaf50",
    }

    @pytest.mark.parametrize("name", sorted(PINNED_ELEMENT_ORDERS))
    def test_element_order_is_pinned(self, name):
        if name == "gamma C2 top C4":
            G = realize(parse_group_spec("C2"), top=parse_group_spec("C4"),
                        brute_check=False).gamma
        else:
            G = parse_group_spec(name)
        digest = hashlib.sha256(repr(tuple(G.chain().iter_elements())).encode()).hexdigest()
        assert digest == self.PINNED_ELEMENT_ORDERS[name]

    def test_extended_reuses_without_mutation(self):
        C3 = generate(["(1 2 3)"], 5)
        A5 = C3.extended(["(3 4 5)"])
        assert A5.order() == 60
        assert C3.order() == 3
        assert C3.extended(["(1 2 3)"]) is C3

    def test_base_hint_puts_point_first(self):
        G = generate(["(2 3 4)", "(1 2)(3 4)"], 4)
        chain = StabChain(4, G.raw_gens(), base_hint=[0])
        assert chain.base()[0] == 0
        assert chain.order() == G.order()

    @given(st.lists(perm_of, min_size=1, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_order_matches_naive_closure(self, raws):
        degree = max(len(r) for r in raws)
        padded = [tuple(list(r) + list(range(len(r), degree))) for r in raws]
        G = generate([Permutation(p) for p in padded], degree)
        assert G.order() == len(oracles.naive_closure(padded, degree))


@st.composite
def block_case(draw):
    """(degree, block size, generators per block): a group generated on
    disjoint blocks, some of them possibly trivial, with fixed points after
    the last block."""
    d = draw(st.integers(min_value=1, max_value=4))
    blocks = draw(st.integers(min_value=1, max_value=12 // d))
    tail = draw(st.integers(min_value=0, max_value=12 - blocks * d))
    perm = st.permutations(list(range(d))).map(tuple)
    gens = draw(st.lists(st.lists(perm, max_size=2), min_size=blocks, max_size=blocks))
    return blocks * d + tail, d, gens


@st.composite
def wreath_case(draw):
    """(G0, Gn, a subgroup of Gn): G0 of degree at most 3, Gn of degree at
    most 4, each on random generators, the subgroup on random elements of Gn."""
    def group(max_degree):
        degree = draw(st.integers(min_value=2, max_value=max_degree))
        perm = st.permutations(list(range(degree))).map(tuple)
        return degree, draw(st.lists(perm, min_size=1, max_size=3))

    d0, g0_gens = group(3)
    dn, gn_gens = group(4)
    elems = sorted(oracles.naive_closure(gn_gens, dn))
    sub_gens = draw(st.lists(st.sampled_from(elems), max_size=2))
    return generate(g0_gens, d0), generate(gn_gens, dn), generate(sub_gens, dn)


class TestBlockChains:
    """Chains built by StabChain.from_layers, for block products (one layer
    per block) and split extensions (the lifted top, then the kernel),
    against Schreier-Sims from nothing."""

    ENUM_LIMIT = 20_000

    def _assert_matches_fresh(self, G):
        chain = G.chain()
        fresh = StabChain(G.degree, G.raw_gens())
        assert chain.base() == fresh.base()
        assert ([sorted(lv.inverses.items()) for lv in chain.levels]
                == [sorted(lv.inverses.items()) for lv in fresh.levels])
        if G.order() <= self.ENUM_LIMIT:
            assert tuple(chain.iter_elements()) == tuple(fresh.iter_elements())
        # Each level's generators generate that level's whole stabilizer.
        for i, lv in enumerate(chain.levels):
            below = math.prod(len(m.inverses) for m in chain.levels[i:])
            assert StabChain(G.degree, lv.gens).order() == below

    def _assert_valid_split_chain(self, G, top_degree, top_levels, rnd):
        """What any correct chain of a split extension K ⋊ lift(T) must satisfy,
        T acting on the last top_degree points, whatever its base order."""
        chain = G.chain()
        fresh = StabChain(G.degree, G.raw_gens())
        assert chain.order() == fresh.order()
        gens = G.raw_gens()
        for _ in range(20):
            word = tuple(range(G.degree))
            for _ in range(rnd.randint(0, 6) if gens else 0):
                word = _compose(rnd.choice(gens), word)
            assert chain.contains(word)
            x = tuple(rnd.sample(range(G.degree), G.degree))
            assert chain.contains(x) == fresh.contains(x)
            y = _compose(x, word)
            assert chain.contains(y) == fresh.contains(y)
            # A near miss: the word followed by a random transposition.
            swap = list(range(G.degree))
            i, j = rnd.sample(range(G.degree), 2)
            swap[i], swap[j] = j, i
            z = _compose(word, tuple(swap))
            assert chain.contains(z) == fresh.contains(z)
        for i, lv in enumerate(chain.levels):
            below = math.prod(len(m.inverses) for m in chain.levels[i:])
            assert StabChain(G.degree, lv.gens).order() == below
        tail = G.degree - top_degree
        assert all(p >= tail for p in chain.base()[:top_levels])

    def test_block_product_of_unlike_pieces(self):
        # H0 × G0 × G0 as the realization builds H, with two fixed points after.
        A5 = parse_group_spec("A5")
        A4 = point_stabilizer(A5, 0)
        pieces = [(0, A4), (1, A5), (2, A5)]
        G = block_product(17, pieces)
        assert G.raw_gens() == [_place_blocks(17, [(i, g)])
                                for i, P in pieces for g in P.raw_gens()]
        assert G.order() == 12 * 60 * 60
        self._assert_matches_fresh(G)

    @pytest.mark.parametrize("spec", ["C2", "S3", "D8", "Q8", "A4", "A5", "SL23", "D14"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_direct_power_of_catalog_group(self, spec, n):
        self._assert_matches_fresh(direct_power(parse_group_spec(spec), n))

    def test_direct_power_of_random_groups(self):
        rnd = random.Random(7)
        for _ in range(100):
            degree = rnd.randint(1, 6)
            gens = [tuple(rnd.sample(range(degree), degree))
                    for _ in range(rnd.randint(1, 3))]
            self._assert_matches_fresh(direct_power(generate(gens, degree), rnd.randint(1, 4)))

    # (G0, Gn, subgroup of Gn) as the suite's wreath checks build them.
    WREATHS = {
        "C2-wreath-C4-over-C2": ("C2", "C4", ["(1 3)(2 4)"]),
        "A5-wreath-C4-over-C2": ("A5", "C4", ["(1 3)(2 4)"]),
        "C2-wreath-S3-over-C2": ("C2", "S3", ["(1 2)"]),
        "C3-times-C2": ("C3", "C2", ["(1 2)"]),
        "A5-times-A5": ("A5", "A5", ["(1 2 3)", "(3 4 5)"]),
        "A5-wreath-A5-over-A4": ("A5", "A5", ["(1 2 3)", "(1 2)(3 4)"]),
    }

    @pytest.mark.parametrize("case", sorted(WREATHS))
    def test_wreath_base_and_gamma(self, case):
        g0, gn, sub = self.WREATHS[case]
        Gn = parse_group_spec(gn)
        W = wreath_by_cosets(parse_group_spec(g0), Gn, generate(sub, Gn.degree))
        self._assert_matches_fresh(W.base)
        self._assert_valid_split_chain(W.group, Gn.degree, len(Gn.chain().levels),
                                       random.Random(case))

    @pytest.mark.parametrize("target,top", [("C2", "C4"), ("C3", "C6"), ("C2", "S3")])
    def test_realization_h_and_normalizer(self, target, top):
        cert = realize(parse_group_spec(target), top=parse_group_spec(top),
                       brute_check=False)
        self._assert_matches_fresh(cert.h)
        image = cert.embed.image()
        self._assert_valid_split_chain(cert.normalizer, image.degree,
                                       len(image.chain().levels),
                                       random.Random(target + top))

    @pytest.mark.parametrize("build", ["schreier-sims", "from_layers-blocks", "from_layers-split"])
    def test_base_point_entry_is_identity(self, build):
        # strip and the coset keys skip the base point's entry as the identity.
        W = wreath_by_cosets(parse_group_spec("A5"), parse_group_spec("C4"),
                             generate(["(1 3)(2 4)"], 4))
        chains = {
            "schreier-sims": [parse_group_spec(s).chain() for s in ("S5", "SL25", "D14")]
                             + [StabChain(W.group.degree, W.group.raw_gens())],
            "from_layers-blocks": [direct_power(parse_group_spec("A5"), 3).chain(),
                                   W.base.chain()],
            "from_layers-split": [W.group.chain(),
                                  realize(parse_group_spec("C2"), top=parse_group_spec("S3"),
                                          brute_check=False).normalizer.chain()],
        }[build]
        for chain in chains:
            assert chain.levels
            for lv in chain.levels:
                assert lv.inverses[lv.point] == tuple(range(chain.degree))

    @given(wreath_case(), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=60, deadline=None)
    def test_split_chain_agrees_with_fresh_chain(self, case, seed):
        G0, Gn, sub = case
        W = wreath_by_cosets(G0, Gn, sub)
        assert W.group.order() == G0.order() ** W.n_coords * Gn.order()
        self._assert_valid_split_chain(W.group, Gn.degree, len(Gn.chain().levels),
                                       random.Random(seed))

    @given(block_case(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_membership_agrees_with_fresh_chain(self, case, data):
        degree, d, gens = case
        pieces = [(b, StabChain(d, block_gens)) for b, block_gens in enumerate(gens)]
        chain = StabChain.from_layers(degree, [
            (b * d, block, lambda raw, b=b: _place_blocks(degree, [(b, raw)]))
            for b, block in pieces])
        placed = [_place_blocks(degree, [(b, g)]) for b, block_gens in enumerate(gens)
                  for g in block_gens]
        fresh = StabChain(degree, placed)
        assert chain.order() == fresh.order()
        word = data.draw(st.lists(st.sampled_from(placed), max_size=6)) if placed else []
        inside = tuple(range(degree))
        for g in word:
            inside = _compose(g, inside)
        assert chain.contains(inside) and fresh.contains(inside)
        for _ in range(5):
            x = tuple(data.draw(st.permutations(list(range(degree)))))
            assert chain.contains(x) == fresh.contains(x)
            y = _compose(x, inside)
            assert chain.contains(y) == fresh.contains(y)


class TestPointStabilizer:
    def test_a5_stabilizer_is_a4(self):
        A5 = generate(["(1 2 3)", "(3 4 5)"], 5)
        S = point_stabilizer(A5, 0)
        assert S.order() == 12
        assert all(g(0) == 0 for g in S.generators)
        assert S.is_subgroup_of(A5)

    def test_stabilizer_in_intransitive_group(self):
        G = generate(["(1 2 3)"], 5)
        assert point_stabilizer(G, 4).order() == 3
        assert point_stabilizer(G, 0).order() == 1


class TestGroupFromElements:
    def test_round_trip(self):
        G = generate(["(1 2)", "(1 2 3)"], 3)
        H = group_from_elements(3, G.raw_elements())
        assert H.order() == 6
        assert H.same_group(G)
        assert len(H.generators) <= 3


class TestHomomorphisms:
    def test_induced_map_builds_sign_character(self):
        table = induced_map([(1, 0, 2), (1, 2, 0)], [(1, 0), (0, 1)], 3, 2)
        assert table is not None
        assert len(table) == 6
        assert oracles.naive_is_homomorphism(table)

    def test_induced_map_rejects_inconsistent_images(self):
        c4 = [(1, 2, 3, 0)]
        three_cycle = [(1, 2, 0)]
        assert induced_map(c4, three_cycle, 4, 3) is None

    def test_word_table_hom(self):
        S3 = generate(["(1 2)", "(1 2 3)"], 3)
        C2 = generate(["(1 2)"], 2)
        sign = GroupHom(S3, C2, [Permutation((1, 0)), Permutation((0, 1))])
        assert sign.apply(Permutation.from_cycles("(1 3)", 3)).images == (1, 0)
        assert sign.kernel().order() == 3
        assert sign.is_multiplicative()
        assert sign.image().order() == 2

    @settings(max_examples=80, deadline=None)
    @given(generator_images())
    def test_graph_subgroup_matches_brute_force(self, case):
        G, target, images = case
        h = GroupHom(G, generate(images, target), [Permutation(t) for t in images])
        table = oracles.naive_hom_table(G.raw_gens(), images, G.degree, target)
        is_hom = oracles.naive_is_homomorphism(table)
        assert h.is_multiplicative() == is_hom
        if not is_hom:
            with pytest.raises(InvalidInput):
                h.apply_raw(G.identity().images)
            return
        assert all(h.apply_raw(x) == fx for x, fx in table.items())
        ident = tuple(range(target))
        assert h.kernel().element_set() == {x for x, fx in table.items() if fx == ident}

    def test_images_are_read_off_the_map(self):
        S4 = parse_group_spec("S4")
        t = Permutation.from_cycles("(1 2)", 4).images

        def fn(raw):
            return _conjugator(t)(raw)

        h = GroupHom(S4, S4, map_fn=fn)
        assert [p.images for p in h.gen_images] == [fn(g) for g in S4.raw_gens()]
        assert h.is_isomorphism_onto(S4)

    def test_images_are_coerced_like_generators(self):
        S3 = generate(["(1 2)", "(1 2 3)"], 3)
        C2 = generate(["(1 2)"], 2)
        h = GroupHom(S3, C2, ["(1 2)", (0, 1)])
        assert h.gen_images == (Permutation((1, 0)), Permutation((0, 1)))
        with pytest.raises(InvalidInput):
            GroupHom(S3, C2)
        with pytest.raises(DegreeMismatch):
            GroupHom(S3, C2, [(1, 0, 2), (0, 1)])

    def test_apply_outside_source_rejected(self):
        A3 = generate(["(1 2 3)"], 3)
        h = GroupHom(A3, A3, A3.generators)
        with pytest.raises(InvalidInput):
            h.apply(Permutation.from_cycles("(1 2)", 3))


class TestDirectPower:
    def test_square_of_a5(self):
        A5 = generate(["(1 2 3)", "(3 4 5)"], 5)
        P = direct_power(A5, 2)
        assert P.degree == 10
        assert P.order() == 3600
        g = Permutation.from_cycles("(1 2 3)", 5)
        x, y = (Permutation(_place_blocks(P.degree, [(i, g.images)])) for i in (0, 1))
        assert str(x) == "(1 2 3)"
        assert str(y) == "(6 7 8)"
        assert P.contains(x) and P.contains(y)
        assert x * y == y * x

    def test_power_one_is_same_group(self):
        C3 = generate(["(1 2 3)"], 3)
        P = direct_power(C3, 1)
        assert P.degree == 3 and P.order() == 3


class TestCosetAction:
    def test_s4_on_cosets_of_c2(self):
        S4 = generate(["(1 2)", "(1 2 3 4)"], 4)
        C2 = generate(["(1 2)"], 4)
        act = coset_action(S4, C2)
        assert act.target.degree == 12
        assert act.coset_reps[0] == tuple(range(4))
        assert act.image().order() == 24
        assert act.kernel().order() == 1

    def test_identity_coset_is_fixed_by_subgroup(self):
        S4 = generate(["(1 2)", "(1 2 3 4)"], 4)
        V = generate(["(1 2)(3 4)", "(1 3)(2 4)"], 4)
        act = coset_action(S4, V)
        assert act.target.degree == 6
        for s in V.generators:
            assert act.apply(s)(0) == 0
        assert act.kernel().same_group(V)

    def test_action_is_multiplicative(self):
        S4 = generate(["(1 2)", "(1 2 3 4)"], 4)
        S3 = generate(["(1 2)", "(1 2 3)"], 4)
        act = coset_action(S4, S3)
        assert act.target.degree == 4
        assert act.is_multiplicative()
        assert oracles.naive_is_homomorphism({x: act.apply_raw(x) for x in S4.raw_elements()})

    def test_whole_group_gives_single_point(self):
        S3 = generate(["(1 2)", "(1 2 3)"], 3)
        act = coset_action(S3, S3)
        assert act.target.degree == 1
        assert act.kernel().same_group(S3)

    def test_rejects_non_subgroup(self):
        A4 = generate(["(1 2 3)", "(1 2)(3 4)"], 4)
        C2 = generate(["(1 2)"], 4)
        with pytest.raises(InvalidInput):
            coset_action(A4, C2)

    # (G generators, S generators, degree).  The index keyed through S's chain
    # is compared with a brute-force scan of the cosets.
    CASES = {
        "S4/C2": (["(1 2)", "(1 2 3 4)"], ["(1 2)"], 4),
        "S4/V4": (["(1 2)", "(1 2 3 4)"], ["(1 2)(3 4)", "(1 3)(2 4)"], 4),
        "D8/centre": (["(1 2 3 4)", "(1 3)"], ["(1 3)(2 4)"], 4),
        "Q8/C4": (["(1 2 3 4)(5 6 7 8)", "(1 5 3 7)(2 8 4 6)"],
                  ["(1 2 3 4)(5 6 7 8)"], 8),
        "A5/A4": (["(1 2 3)", "(3 4 5)"], ["(1 2 3)", "(1 2)(3 4)"], 5),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_scan_index_matches_keyed_index_and_brute_force(self, case):
        g_gens, s_gens, degree = self.CASES[case]
        G, S = generate(g_gens, degree), generate(s_gens, degree)
        keyed = coset_action(G, S)

        s_elems = oracles.naive_closure(S.raw_gens(), degree)
        g_elems = oracles.naive_closure(G.raw_gens(), degree)
        cosets = [frozenset(oracles.compose(r, s) for s in s_elems)
                  for r in keyed.coset_reps]
        assert keyed.coset_reps[0] == tuple(range(degree))
        assert set(cosets) == {frozenset(oracles.compose(x, s) for s in s_elems)
                               for x in g_elems}
        assert len(set(cosets)) == len(cosets)
        for g, image in zip(G.raw_gens(), keyed.gen_images):
            for j, r in enumerate(keyed.coset_reps):
                assert oracles.compose(g, r) in cosets[image(j)]

    def test_element_outside_group_raises(self):
        A4 = generate(["(1 2 3)", "(1 2)(3 4)"], 4)
        V = generate(["(1 2)(3 4)", "(1 3)(2 4)"], 4)
        act = coset_action(A4, V)
        with pytest.raises(InvalidInput):
            act.apply(Permutation.from_cycles("(1 2)", 4))

    @pytest.mark.parametrize("raw", [(1, 0, 2), (1, 0, 2, 3, 4)], ids=["short", "long"])
    def test_wrong_degree_argument_raises(self, raw):
        S4 = generate(["(1 2)", "(1 2 3 4)"], 4)
        V = generate(["(1 2)(3 4)", "(1 3)(2 4)"], 4)
        act = coset_action(S4, V)
        with pytest.raises(DegreeMismatch):
            act.apply_raw(raw)

    @staticmethod
    def _assert_brute_force_cosets(G, S):
        """Each x in G lands on the index of its brute-force left coset xS."""
        act = coset_action(G, S)
        g_elems = oracles.naive_closure(G.raw_gens(), G.degree)
        s_elems = oracles.naive_closure(S.raw_gens(), G.degree)
        classes: dict[int, set] = {}
        for x in g_elems:
            # x carries the identity coset S (index 0) to xS.
            classes.setdefault(act.apply_raw(x)[0], set()).add(x)
        assert sorted(classes) == list(range(len(g_elems) // len(s_elems)))
        for j, members in classes.items():
            x = next(iter(members))
            assert members == {oracles.compose(x, s) for s in s_elems}
            assert act.coset_reps[j] in members

    @given(group_with_subgroup())
    @settings(max_examples=40, deadline=None)
    def test_cosets_of_generated_subgroup_match_brute_force(self, case):
        degree, g_gens, s_gens, _ = case
        self._assert_brute_force_cosets(generate(g_gens, degree),
                                        generate(s_gens, degree))

    @given(group_with_subgroup())
    @settings(max_examples=40, deadline=None)
    def test_cosets_of_point_stabilizer_match_brute_force(self, case):
        degree, g_gens, _, point = case
        G = generate(g_gens, degree)
        self._assert_brute_force_cosets(G, point_stabilizer(G, point))


class TestRegularRepresentation:
    def test_s3_regular(self):
        S3 = generate(["(1 2)", "(1 2 3)"], 3)
        reg = regular_representation(S3)
        assert reg.target.degree == 6
        assert reg.image().order() == 6
        assert reg.kernel().order() == 1
        assert reg.is_multiplicative()
        assert oracles.naive_is_homomorphism({x: reg.apply_raw(x) for x in S3.raw_elements()})

    @pytest.mark.parametrize("spec", ["C1", "S3", "Q8", "A5", "SL23"])
    def test_is_the_coset_action_on_the_trivial_subgroup(self, spec):
        G = parse_group_spec(spec)
        reg = regular_representation(G)
        coset = coset_action(G, trivial_group(G.degree))
        assert reg.gen_images == coset.gen_images
        assert reg.image().generators == coset.image().generators
        assert reg.kernel().order() == 1

    def test_enum_cap_message(self):
        caps = Caps(enum_cap=59)
        with pytest.raises(CapExceeded) as exc:
            regular_representation(parse_group_spec("A5"), caps)
        assert str(exc.value) == cap_message(caps, "enum_cap", "order", 60)
        assert regular_representation(parse_group_spec("A5"), Caps(enum_cap=60)).target.degree == 60


class TestWreathByCosets:
    def test_two_block_wreath_order(self):
        A5 = generate(["(1 2 3)", "(3 4 5)"], 5)
        C4 = generate(["(1 2 3 4)"], 4)
        C2 = generate(["(1 3)(2 4)"], 4)
        W = wreath_by_cosets(A5, C4, C2)
        assert W.n_coords == 2
        assert W.group.degree == 14
        assert W.group.order() == 14400
        assert W.base.order() == 3600
        assert W.top.kernel().same_group(W.base)
        assert W.top.image().order() == 4

    def test_three_block_wreath_order(self):
        C2 = generate(["(1 2)"], 2)
        S3 = generate(["(1 2)", "(1 2 3)"], 3)
        C2sub = generate(["(1 2)"], 3)
        W = wreath_by_cosets(C2, S3, C2sub)
        assert W.n_coords == 3
        assert W.group.order() == 48
        assert W.base.order() == 8

    def test_top_lift_conjugation_permutes_coordinates(self):
        C2 = generate(["(1 2)"], 2)
        S3 = generate(["(1 2)", "(1 2 3)"], 3)
        C2sub = generate(["(1 2)"], 3)
        W = wreath_by_cosets(C2, S3, C2sub)
        g = Permutation.from_cycles("(1 2)", 2)
        for h in S3.generators:
            t = W.top_lift(h)
            sigma = W.coset_hom.apply(h)
            for i in range(W.n_coords):
                lhs = t * W.coordinate_embedding(i).apply(g) * t.inverse()
                rhs = W.coordinate_embedding(sigma(i)).apply(g)
                assert lhs == rhs

    def test_top_lift_section_of_projection(self):
        C2 = generate(["(1 2)"], 2)
        S3 = generate(["(1 2)", "(1 2 3)"], 3)
        C2sub = generate(["(1 2)"], 3)
        W = wreath_by_cosets(C2, S3, C2sub)
        for h in S3.elements():
            assert W.top.apply(W.top_lift(h)) == h

    def test_index_one_degenerates_to_direct_product(self):
        A5 = generate(["(1 2 3)", "(3 4 5)"], 5)
        C2 = generate(["(1 2)"], 2)
        W = wreath_by_cosets(A5, C2, C2)
        assert W.n_coords == 1
        assert W.group.order() == 120
        assert W.top.image().order() == 2
