"""Normalizer-quotient realization inside wreath products.

Given a target group G, build Γ = G0^N ⋊ Gn (N the index of an embedded copy
of G in Gn) together with H = H0 × G0^{N−1}, where H0 is a maximal
self-normalizing subgroup of the simple non-abelian G0: the stabilizer of
the least point G0 moves, grown to the stabilizer of a block of G0's action
on its cosets until that action is primitive.  H0 is found once per base
group and caps, and `realize`'s default A5 is built once per process.  The
normalizer N_Γ(H) is computed structurally as M = H ⋊ L, L the lifts of the
embedded copy of G, and, within caps, confirmed by brute force, one test per
left coset of H in Γ.  The isomorphism M/H ≅ G is certified from the lift
itself, not searched for: the lift map ψ: G → M is checked to be a
homomorphism that acts on Gn's points as the embedding of G, which is
injective; as H fixes those points, ψ is injective and L meets H trivially.
The module also hosts the
supporting demonstrators: exhaustive realization search in a fixed ambient
group, split-extension checks over a centerless normal subgroup,
twisted-diagonal subgroups of direct powers, and the factor-permutation
behaviour of automorphisms of G0^N.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .config import DEFAULT_CAPS, Caps, cap_message
from .errors import CapExceeded, FalsificationAlarm, InvalidInput
from .perm import (
    GroupHom,
    PermGroup,
    Permutation,
    RawPerm,
    StabChain,
    _compose,
    _conjugate,
    _coset_index,
    _identity,
    _lift_blocks,
    _place_blocks,
    _restrict,
    block_product,
    coset_action,
    direct_power,
    identity_hom,
    point_stabilizer,
    regular_representation,
    trivial_group,
    wreath_by_cosets,
)
from .structure import (
    IsoCertificate,
    complement_exists,
    is_abelian,
    is_simple,
    isomorphic,
    normal_in,
    quotient,
    subgroups,
)
from .universe import alternating


# ---------------------------------------------------------------------------
# Primitivity and brute normalizers


def _minimal_block(degree: int, gens: list[RawPerm], beta: int) -> list[int]:
    """The smallest block containing {0, beta} for a transitive action, in
    increasing order."""
    parent = list(range(degree))

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    parent[find(beta)] = find(0)
    queue = [(0, beta)]
    while queue:
        u, v = queue.pop()
        for g in gens:
            ru, rv = find(g[u]), find(g[v])
            if ru != rv:
                parent[rv] = ru
                queue.append((ru, rv))
    root = find(0)
    return [x for x in range(degree) if find(x) == root]


def _is_transitive(G: PermGroup) -> bool:
    gens = G.raw_gens()
    orbit = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for g in gens:
            if g[x] not in orbit:
                orbit.add(g[x])
                frontier.append(g[x])
    return len(orbit) == G.degree


def _proper_block(degree: int, gens: list[RawPerm]) -> list[int] | None:
    """A block B ∋ 0 with 1 < |B| < degree of a transitive action, or None
    when the action is primitive."""
    return next((B for B in (_minimal_block(degree, gens, beta) for beta in range(1, degree))
                 if len(B) < degree), None)


def is_primitive(G: PermGroup) -> bool:
    """No nontrivial block system; the action must be transitive on all points."""
    if not _is_transitive(G):
        raise InvalidInput("primitivity requires a transitive action")
    return _proper_block(G.degree, G.raw_gens()) is None


def brute_normalizer(parent: PermGroup, H: PermGroup,
                     caps: Caps = DEFAULT_CAPS) -> PermGroup:
    """N_parent(H) for H ≤ parent, by one test per left coset of H.

    If r·H·r⁻¹ = H then every element of rH normalizes H, and if r does not
    then none does; so testing one representative of each coset decides every
    element of the parent, which is never enumerated.  The union of the
    normalizing cosets is ⟨H, reps⟩, so N is H's chain grown by the normalizing
    representatives, with H's generators followed by the representatives that
    grew it; no element of H is listed.  Raises InvalidInput unless
    H ≤ parent, and CapExceeded when |parent| exceeds the enumeration cap.
    """
    n = parent.order()
    if n > caps.enum_cap:
        raise CapExceeded(cap_message(caps, "enum_cap", "order", n))
    reps, _, _ = _coset_index(parent, H)
    hgens = H.raw_gens()
    chain = H.chain().copy()
    grown = [r for r in reps
             if all(H.contains_raw(_conjugate(r, h)) for h in hgens) and chain.extend(r)]
    return PermGroup(parent.degree, hgens + grown, chain=chain)


# ---------------------------------------------------------------------------
# Maximal self-normalizing subgroups of simple groups


def maximal_selfnormalizing(G0: PermGroup, caps: Caps = DEFAULT_CAPS) -> PermGroup:
    """A maximal subgroup H0 of a simple non-abelian G0 with N_{G0}(H0) = H0.

    H0 starts as the stabilizer of the least point G0 moves, a proper
    subgroup.  A subgroup is maximal exactly when G0's action on its cosets
    is primitive (Dixon & Mortimer, Cor. 1.5A): a block B containing the
    coset H0 itself, with 1 < |B| < index, is the set of cosets of its own
    stabilizer, an intermediate subgroup generated by H0 and the coset
    representatives of B.  So while the coset action has such a block, H0
    grows to that subgroup; every step keeps H0 proper and makes it larger,
    and the walk ends at a maximal subgroup.  Self-normalization is confirmed
    by `brute_normalizer`, one test per coset.

    H0 is cached on G0, so the walk runs once per base group.
    """
    if is_abelian(G0):
        raise InvalidInput("a simple non-abelian group is required (input is abelian)")

    def walk() -> PermGroup:
        if not is_simple(G0, caps):
            raise InvalidInput("a simple non-abelian group is required (input is not simple)")
        least = min(next(p for p, x in enumerate(g) if x != p) for g in G0.raw_gens())
        H0 = point_stabilizer(G0, least)
        while True:
            action = coset_action(G0, H0)
            block = _proper_block(action.target.degree, action.target.raw_gens())
            if block is None:
                break
            H0 = H0.extended(action.coset_reps[j] for j in block)

        normalizer = brute_normalizer(G0, H0, caps)
        if normalizer.order() != H0.order():
            raise FalsificationAlarm(
                "maximal subgroup of a simple group is not self-normalizing",
                witness={"g0_order": G0.order(), "h0_order": H0.order(),
                         "normalizer_order": normalizer.order()})
        return H0

    return G0.cached("maximal_selfnormalizing", caps, walk)


# ---------------------------------------------------------------------------
# Certificates


@dataclass
class RealizationCertificate:
    """A verified instance of the normalizer-quotient construction."""

    target: PermGroup
    g0: PermGroup
    h0: PermGroup
    gn: PermGroup
    embed: GroupHom
    n_coords: int
    gamma: PermGroup
    h: PermGroup
    normalizer: PermGroup
    iso: IsoCertificate
    checks: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        def describe(G: PermGroup) -> dict:
            return {"degree": G.degree, "order": G.order(),
                    "gens": G.gen_strings()}

        return {
            "target": describe(self.target),
            "g0": describe(self.g0),
            "h0": describe(self.h0),
            "gn": describe(self.gn),
            "embedding": [str(p) for p in self.embed.gen_images],
            "n_coords": self.n_coords,
            "gamma": describe(self.gamma),
            "h": describe(self.h),
            "normalizer": describe(self.normalizer),
            "iso": {
                "source_gens": [str(p) for p in self.iso.forward.source.generators],
                "images": [str(p) for p in self.iso.forward.gen_images],
            },
            "checks": dict(self.checks),
        }


def build_realization(G: PermGroup, G0: PermGroup, Gn: PermGroup,
                      embed: GroupHom, caps: Caps = DEFAULT_CAPS,
                      brute_check: bool = True) -> RealizationCertificate:
    """Construct Γ = G0^N ⋊ Gn and certify N_Γ(H)/H ≅ G for H = H0 × G0^{N−1}.

    The normalizer is assembled structurally as M = H ⋊ L from H and the
    canonical lifts L = ψ(G), ψ: g ↦ top_lift(embed(g)); with brute_check on,
    `brute_normalizer`, exhaustive over Γ by testing one element of each left
    coset of H, must reproduce it exactly, and raises CapExceeded when |Γ|
    exceeds the enumeration cap.

    `iso_verified` is certified from the lift, with no isomorphism search:
    the lifts normalize H (`structural_normalizer`), one chain of ψ's graph
    shows that ψ is multiplicative, and each lift acts on Gn's points as the
    embedded generator.  So the restriction to those points composed with ψ
    is embed, which is injective; as H fixes Gn's points, ψ is injective and
    L meets H trivially, so M/H ≅ L ≅ G.  The certificate's source Q is G
    acting on its cosets of the trivial subgroup, which is M acting on the
    cosets of H, read through ψ; its forward map sends Q's i-th generator to
    G's i-th generator.  No search runs, so no iso cap applies; Q has |G|
    points, so |G| must not exceed the enumeration cap, and Q's own chain is
    not built.
    """
    checks: dict = {}

    if embed.source is not G and not embed.source.same_group(G):
        raise InvalidInput("embedding source does not match the target group")
    if embed.target is not Gn and not embed.target.same_group(Gn):
        raise InvalidInput("embedding target does not match the top group")
    if embed.kernel().order() != 1:
        raise InvalidInput("embedding is not injective")
    if not embed.is_multiplicative():
        raise InvalidInput("embedding is not a homomorphism")
    checks["embedding_multiplicative"] = "passed"

    H0 = maximal_selfnormalizing(G0, caps)
    image = embed.image()
    wp = wreath_by_cosets(G0, Gn, image, caps)
    Gamma, N = wp.group, wp.n_coords

    # |Γ| = |G0|^N·|Gn|, and with it Γ's constructed chain, from facts that do
    # not read that chain: the base is normal in Γ, and the coset map is a
    # homomorphism, so the top lifts form a copy of Gn, which meets the base
    # trivially because the base fixes the tail.  The top quotient check below
    # confirms that the tail restriction maps Γ onto Gn.
    for failed, holds in (("base is not normal in Gamma", lambda: normal_in(Gamma, wp.base)),
                          ("coset map is not a homomorphism", wp.coset_hom.is_multiplicative)):
        if not holds():
            raise FalsificationAlarm(
                "wreath order arithmetic failed",
                witness={"failed": failed, "g0_order": G0.order(),
                         "n": N, "gn_order": Gn.order()})
    checks["order_arithmetic"] = "passed"

    H = block_product(Gamma.degree, [(0, H0)] + [(i, G0) for i in range(1, N)])

    # M = H ⋊ L, L = ψ(G) for the lift map ψ: g ↦ top_lift(embed(g)), its
    # chain by construction; |M| = |H|·|G| then holds as soon as the lifts
    # normalize H, which is tested first: one conjugate h^m per lift m and
    # generator h of H.
    embedded = [embed.apply(g) for g in G.generators]
    lifts = [wp.top_lift(t).images for t in embedded]
    M = PermGroup(Gamma.degree, H.raw_gens() + lifts,
                  chain=StabChain.from_split(Gamma.degree, image.chain(),
                                             lambda raw: wp.top_lift(raw).images, H.chain()))
    bad = next(((m, h) for m in lifts for h in H.raw_gens()
                if not H.contains_raw(_conjugate(m, h))), None)
    if bad is not None:
        raise FalsificationAlarm(
            "structural normalizer does not normalize H",
            witness={"m": str(Permutation(bad[0])),
                     "h": str(Permutation(bad[1]))})
    checks["structural_normalizer"] = "passed"

    # ψ is a homomorphism, and top ∘ ψ = embed on the generators, so on all
    # of G; embed is injective, so L meets ker(top) ⊇ H trivially.
    psi = GroupHom(G, Gamma, lifts)
    for failed, holds in (
            ("lift map is not multiplicative", psi.is_multiplicative),
            ("lift does not act on the top points as the embedding",
             lambda: all(wp.top.apply_raw(m) == t.images for m, t in zip(lifts, embedded)))):
        if not holds():
            raise FalsificationAlarm(
                "lift of the target is not an embedding",
                witness={"failed": failed, "target_order": G.order()})

    if brute_check:
        brute = brute_normalizer(Gamma, H, caps)
        if brute.order() != M.order() or not all(
                brute.contains_raw(g) for g in M.raw_gens()):
            raise FalsificationAlarm(
                "brute-force normalizer disagrees with the structural one",
                witness={"structural_order": M.order(),
                         "brute_order": brute.order()})
        checks["brute_normalizer"] = "passed"
    else:
        checks["brute_normalizer"] = "skipped"

    _check_top_quotient(wp, checks)

    # Q is G's regular action, on |G| points.
    if G.order() > caps.enum_cap:
        raise CapExceeded(cap_message(caps, "enum_cap", "order", G.order()))
    Q = coset_action(G, trivial_group(G.degree)).image()
    iso = IsoCertificate(GroupHom(Q, G, G.generators))
    checks["iso_verified"] = "passed"

    return RealizationCertificate(
        target=G, g0=G0, h0=H0, gn=Gn, embed=embed, n_coords=N,
        gamma=Gamma, h=H, normalizer=M, iso=iso, checks=checks)


def _check_top_quotient(wp, checks: dict) -> None:
    """Certify Γ/G0^N ≅ Gn via the restriction to the top group's own points."""
    tails = []
    for g in wp.group.raw_gens():
        t = wp.top.apply_raw(g)
        if not wp.gn.contains_raw(t):
            raise FalsificationAlarm(
                "top restriction leaves the top group",
                witness={"element": str(Permutation(g))})
        tails.append(t)
    restricted = PermGroup(wp.gn.degree, tails)
    if restricted.order() != wp.gn.order():
        raise FalsificationAlarm(
            "top restriction is not surjective onto the top group",
            witness={"restricted_order": restricted.order(),
                     "gn_order": wp.gn.order()})
    checks["top_quotient"] = "passed"


_DEFAULT_G0 = alternating(5)


def realize(G: PermGroup, alt: int | None = None, caps: Caps = DEFAULT_CAPS,
            brute_check: bool = True,
            G0: PermGroup | None = None,
            top: PermGroup | None = None) -> RealizationCertificate:
    """Convenience driver: G0 = A5, top group = G itself (identity embedding),
    with ``alt=n`` the alternating group A_n and a regular embedding (doubled
    to even permutations when needed), or with ``top=H`` an ambient group that
    is scanned for a subgroup isomorphic to G.  The default A5 is one group
    for the whole process, so its chain and H0 are computed once."""
    base = G0 if G0 is not None else _DEFAULT_G0
    if alt is not None and top is not None:
        raise InvalidInput("alt and top are mutually exclusive")
    if top is not None:
        embed = embedding_into(G, top, caps)
        return build_realization(G, base, top, embed, caps, brute_check)
    if alt is None:
        return build_realization(G, base, G, identity_hom(G), caps, brute_check)

    if alt < 3:
        raise InvalidInput("alternating top groups need n >= 3")
    Gn = alternating(alt)
    embed = alternating_embedding(G, alt, caps)
    return build_realization(G, base, Gn, embed, caps, brute_check)


def embedding_into(G: PermGroup, ambient: PermGroup,
                   caps: Caps = DEFAULT_CAPS) -> GroupHom:
    """An injective homomorphism G → ambient, found by scanning the ambient
    subgroup lattice for the first subgroup isomorphic to G."""
    if ambient.order() % G.order() != 0:
        raise InvalidInput(
            f"no subgroup of order {G.order()} fits in a group of order "
            f"{ambient.order()}")
    for S in subgroups(ambient, caps=caps):
        if S.order() != G.order():
            continue
        cert = isomorphic(G, S, caps)
        if cert is not None:
            return GroupHom(G, ambient, cert.forward.gen_images)
    raise InvalidInput("the ambient group has no subgroup isomorphic to the source")


def alternating_embedding(G: PermGroup, n: int,
                          caps: Caps = DEFAULT_CAPS) -> GroupHom:
    """An injective homomorphism G → A_n from the regular action, using two
    disjoint copies when the regular image contains odd permutations."""
    reg = regular_representation(G, caps)
    m = G.order()
    doubled = any(Permutation(reg.apply_raw(g)).parity() == 1
                  for g in G.raw_gens())
    needed = 2 * m if doubled else m
    if needed > n:
        raise InvalidInput(
            f"A{n} cannot host the regular embedding (needs degree {needed})")
    Gn = alternating(n)

    def fn(raw: RawPerm) -> RawPerm:
        r = reg.apply_raw(raw)
        return _place_blocks(n, [(0, r), (1, r)] if doubled else [(0, r)])

    hom = GroupHom(G, Gn, map_fn=fn)
    for p in hom.gen_images:
        if p.parity() != 0:
            raise FalsificationAlarm(
                "regular embedding produced an odd permutation",
                witness={"image": str(p)})
    return hom


# ---------------------------------------------------------------------------
# Exhaustive search in a fixed ambient group


@dataclass
class BruteHit:
    """One subgroup H of the ambient group with N(H)/H isomorphic to the target."""

    subgroup: PermGroup
    normalizer: PermGroup
    quotient: PermGroup
    iso: IsoCertificate


def brute_search(Gamma: PermGroup, G: PermGroup,
                 caps: Caps = DEFAULT_CAPS) -> list[BruteHit]:
    """All subgroups H ≤ Γ with N_Γ(H)/H ≅ G, normalizers by `brute_normalizer`."""
    hits = []
    for H in subgroups(Gamma, caps=caps):
        N = brute_normalizer(Gamma, H, caps)
        if N.order() != H.order() * G.order():
            continue
        Q, _ = quotient(N, H)
        iso = isomorphic(Q, G, caps)
        if iso is not None:
            hits.append(BruteHit(subgroup=H, normalizer=N, quotient=Q, iso=iso))
    return hits


# ---------------------------------------------------------------------------
# Split extensions over products of centerless simple groups


def split_check(G: PermGroup, N: PermGroup,
                caps: Caps = DEFAULT_CAPS) -> PermGroup:
    """Find a complement to N in G; the caller asserts the hypotheses under
    which a complement must exist, so a non-split verdict raises an alarm."""
    comp = complement_exists(G, N, caps)
    if comp is None:
        raise FalsificationAlarm(
            "no complement found where the hypotheses force a split extension",
            witness={"group_order": G.order(), "normal_order": N.order()})
    return comp


# ---------------------------------------------------------------------------
# Twisted diagonals and factor permutations in direct powers


def conjugation_automorphism(G: PermGroup, s) -> GroupHom:
    """The automorphism x ↦ sxs⁻¹ of G, for s normalizing G (s need not lie in G)."""
    raw = G._coerce(s).images
    hom = GroupHom(G, G, map_fn=lambda x: _conjugate(raw, x))
    if not all(G.contains_raw(img.images) for img in hom.gen_images):
        raise InvalidInput("conjugating element does not normalize the group")
    return hom


@dataclass
class DiagonalSubgroup:
    """A twisted diagonal {(φ1(x), …, φN(x))} inside G0^N, with its support."""

    group: PermGroup
    ambient: PermGroup
    support: tuple[int, ...]


def diagonal_subgroup(G0: PermGroup, n: int, phis: list) -> DiagonalSubgroup:
    """The subgroup {(φ1(x),…,φn(x)) : x ∈ G0} of G0^n.

    Each φ is None (coordinate held at the identity), a homomorphism G0 → G0,
    or a list of generator images; every present φ must be a verified
    automorphism, and at least one must be present.
    """
    if len(phis) != n:
        raise InvalidInput(f"expected {n} twist entries, got {len(phis)}")
    homs: list[GroupHom | None] = []
    for phi in phis:
        if phi is None:
            homs.append(None)
            continue
        hom = phi if isinstance(phi, GroupHom) else GroupHom(G0, G0, phi)
        if len(hom.gen_images) != len(G0.generators):
            raise InvalidInput("twist must map the ambient factor's generators")
        if not _is_automorphism(G0, hom):
            raise InvalidInput("twist entry is not an automorphism")
        homs.append(hom)
    support = tuple(i for i, hom in enumerate(homs) if hom is not None)
    if not support:
        raise InvalidInput("at least one twist entry must be present")

    ambient = direct_power(G0, n)
    embeddings = ambient.coordinate_embeddings
    gens = []
    for g in G0.raw_gens():
        word = _identity(ambient.degree)
        for i in support:
            piece = embeddings[i].apply_raw(homs[i].apply_raw(g))
            word = _compose(word, piece)
        gens.append(word)
    S = PermGroup(ambient.degree, gens)
    if S.order() != G0.order():
        raise FalsificationAlarm(
            "twisted diagonal has the wrong order",
            witness={"diagonal_order": S.order(), "factor_order": G0.order()})
    return DiagonalSubgroup(group=S, ambient=ambient, support=support)


def _is_automorphism(G: PermGroup, hom: GroupHom) -> bool:
    return hom.source.same_group(G) and hom.is_isomorphism_onto(G)


def block_swap_automorphism(G0: PermGroup, n: int, i: int, j: int) -> GroupHom:
    """The automorphism of G0^n that exchanges coordinates i and j."""
    if not (0 <= i < n and 0 <= j < n and i != j):
        raise InvalidInput("coordinate swap needs two distinct coordinates")
    D = direct_power(G0, n)
    sigma = list(range(n))
    sigma[i], sigma[j] = j, i
    swap_raw = _lift_blocks(tuple(sigma), G0.degree)
    return GroupHom(D, D, map_fn=lambda x: _conjugate(swap_raw, x))


def coordinatewise_automorphism(G0: PermGroup, n: int,
                                alphas: list[GroupHom]) -> GroupHom:
    """The automorphism (x1,…,xn) ↦ (α1(x1),…,αn(xn)) of G0^n."""
    if len(alphas) != n:
        raise InvalidInput(f"expected {n} coordinate automorphisms")
    for alpha in alphas:
        if not _is_automorphism(G0, alpha):
            raise InvalidInput("coordinate entry is not an automorphism")
    D = direct_power(G0, n)
    d = G0.degree

    def fn(raw: RawPerm) -> RawPerm:
        return _place_blocks(D.degree, [(i, alpha.apply_raw(_restrict(raw, i * d, d)))
                                        for i, alpha in enumerate(alphas)])

    return GroupHom(D, D, map_fn=fn)


def compose_automorphisms(outer: GroupHom, inner: GroupHom) -> GroupHom:
    """outer ∘ inner on a common group, keeping fast raw evaluation."""
    if outer.source.degree != inner.source.degree:
        raise InvalidInput("automorphism composition needs a common degree")

    return GroupHom(inner.source, outer.target,
                    map_fn=lambda raw: outer.apply_raw(inner.apply_raw(raw)))


def factor_permutation_check(G0: PermGroup, n: int, theta: GroupHom,
                             caps: Caps = DEFAULT_CAPS) -> tuple[int, ...]:
    """The permutation j(i) with theta(i-th factor) = j-th factor.

    theta must be a verified automorphism of G0^n with G0 simple non-abelian;
    an image factor straddling coordinates would falsify the factor-permutation
    statement and raises an alarm.
    """
    if is_abelian(G0) or not is_simple(G0, caps):
        raise InvalidInput("factor permutation analysis needs a simple non-abelian factor")
    D = direct_power(G0, n)
    if theta.source.degree != D.degree:
        raise InvalidInput("theta does not act on the direct power")
    if not _is_automorphism(D, GroupHom(D, D, map_fn=theta.apply_raw)):
        raise InvalidInput("theta is not an automorphism of the direct power")

    d = G0.degree
    mapping: list[int] = []
    for i in range(n):
        emb = D.coordinate_embeddings[i]
        blocks = set()
        image_gens = []
        for g in G0.raw_gens():
            img = theta.apply_raw(emb.apply_raw(g))
            image_gens.append(img)
            blocks.update(p // d for p in range(D.degree) if img[p] != p)
        if len(blocks) != 1:
            raise FalsificationAlarm(
                "automorphism image of a factor straddles coordinates",
                witness={"factor": i, "blocks": sorted(blocks)})
        j = blocks.pop()
        if PermGroup(D.degree, image_gens).order() != G0.order():
            raise FalsificationAlarm(
                "automorphism image of a factor has the wrong order",
                witness={"factor": i, "target_block": j})
        mapping.append(j)
    if sorted(mapping) != list(range(n)):
        raise FalsificationAlarm(
            "factor mapping is not a permutation",
            witness={"mapping": mapping})
    return tuple(mapping)
