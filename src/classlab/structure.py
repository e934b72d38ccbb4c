"""Structural analysis of finite permutation groups.

Conjugacy classes, the normal-subgroup lattice, maximal normal subgroups and
their intersection (the radical), quotients by coset action, solvability-style
predicates, isomorphism certificates, and exhaustive subgroup enumeration.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .config import Caps, effective_caps
from .errors import (
    CapExceeded,
    FalsificationAlarm,
    InvalidInput,
    SubgroupLimitExceeded,
)
from .perm import (
    GroupHom,
    PermGroup,
    Permutation,
    RawPerm,
    StabChain,
    _compose,
    _conjugate,
    _identity,
    _inverse,
    _order,
    coset_action,
    group_from_elements,
    identity_hom,
    induced_map,
    trivial_group,
)


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _coerce_raws(G: PermGroup, seeds: Iterable) -> list[RawPerm]:
    out = []
    for s in seeds:
        if isinstance(s, Permutation):
            out.append(s.images)
        elif isinstance(s, tuple):
            out.append(s)
        else:
            out.append(Permutation.from_cycles(str(s), G.degree).images)
    return out


def sorted_elements(G: PermGroup, caps: Caps | None = None) -> tuple[RawPerm, ...]:
    cached = G._cache.get("sorted_elements")
    if cached is None:
        cached = tuple(sorted(G.raw_elements(caps)))
        G._cache["sorted_elements"] = cached
    return cached


# ---------------------------------------------------------------------------
# Conjugacy and characteristic subgroups


@dataclass(frozen=True)
class ConjClass:
    """One conjugacy class; the representative is the least element."""

    rep: Permutation
    members: frozenset[RawPerm]

    @property
    def size(self) -> int:
        return len(self.members)


def conjugacy_classes(G: PermGroup, caps: Caps | None = None) -> list[ConjClass]:
    """Conjugacy classes ordered by their least element (identity class first)."""
    cached = G._cache.get("conj_classes")
    if cached is not None:
        return cached
    gens = G.raw_gens()
    seen: set[RawPerm] = set()
    classes: list[ConjClass] = []
    for start in sorted_elements(G, caps):
        if start in seen:
            continue
        members = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = _conjugate(g, x)
                    if y not in members:
                        members.add(y)
                        nxt.append(y)
            frontier = nxt
        seen |= members
        classes.append(ConjClass(Permutation(start), frozenset(members)))
    G._cache["conj_classes"] = classes
    return classes


def center(G: PermGroup, caps: Caps | None = None) -> PermGroup:
    gens = G.raw_gens()
    members = [z for z in sorted_elements(G, caps)
               if all(_compose(z, g) == _compose(g, z) for g in gens)]
    return group_from_elements(G.degree, members)


def normal_closure(G: PermGroup, seeds: Iterable, caps: Caps | None = None) -> PermGroup:
    """The smallest normal subgroup of G containing the seed elements."""
    raws = _coerce_raws(G, seeds)
    target = G.order()
    chain = StabChain(G.degree)
    gens: list[RawPerm] = []
    frontier: list[RawPerm] = []
    for s in raws:
        if not chain.contains(s):
            chain.extend(s)
            gens.append(s)
            frontier.append(s)
    outer = G.raw_gens()
    while frontier and chain.order() < target:
        nxt = []
        for x in frontier:
            for g in outer:
                c = _conjugate(g, x)
                if not chain.contains(c):
                    chain.extend(c)
                    gens.append(c)
                    nxt.append(c)
        frontier = nxt
    group = PermGroup(G.degree, gens)
    group._chain = chain
    return group


def normal_in(parent: PermGroup, N: PermGroup) -> bool:
    if not N.is_subgroup_of(parent):
        return False
    return all(N.contains_raw(_conjugate(g, x))
               for g in parent.raw_gens() for x in N.raw_gens())


def _commutator(a: RawPerm, b: RawPerm) -> RawPerm:
    return _compose(a, _compose(b, _compose(_inverse(a), _inverse(b))))


def derived_subgroup(G: PermGroup, caps: Caps | None = None) -> PermGroup:
    comms = [_commutator(a, b) for a in G.raw_gens() for b in G.raw_gens()]
    return normal_closure(G, comms, caps)


def derived_series(G: PermGroup, caps: Caps | None = None) -> list[PermGroup]:
    series = [G]
    while True:
        nxt = derived_subgroup(series[-1], caps)
        if nxt.order() == series[-1].order():
            return series
        series.append(nxt)
        if nxt.order() == 1:
            return series


def lower_central_series(G: PermGroup, caps: Caps | None = None) -> list[PermGroup]:
    series = [G]
    while True:
        cur = series[-1]
        comms = [_commutator(a, b) for a in G.raw_gens() for b in cur.raw_gens()]
        nxt = normal_closure(G, comms, caps)
        if nxt.order() == cur.order():
            return series
        series.append(nxt)
        if nxt.order() == 1:
            return series


# ---------------------------------------------------------------------------
# Predicates


def is_abelian(G: PermGroup) -> bool:
    gens = G.raw_gens()
    return all(_compose(a, b) == _compose(b, a) for a in gens for b in gens)


def is_cyclic(G: PermGroup, caps: Caps | None = None) -> bool:
    n = G.order()
    if n == 1:
        return True
    if not is_abelian(G):
        return False
    return any(_order(x) == n for x in sorted_elements(G, caps))


def is_p_group(G: PermGroup, p: int) -> bool:
    n = G.order()
    while n % p == 0:
        n //= p
    return n == 1


def is_solvable(G: PermGroup, caps: Caps | None = None) -> bool:
    return derived_series(G, caps)[-1].order() == 1


def is_nilpotent(G: PermGroup, caps: Caps | None = None) -> bool:
    return lower_central_series(G, caps)[-1].order() == 1


def is_simple(G: PermGroup, caps: Caps | None = None) -> bool:
    """True iff G has exactly two normal subgroups (so the trivial group is not simple)."""
    n = G.order()
    if n == 1:
        return False
    factors = _prime_factors(n)
    if len(factors) == 1 and n == factors[0]:
        return True
    if is_abelian(G):
        return False
    for cls in conjugacy_classes(G, caps):
        if cls.rep.is_identity():
            continue
        if normal_closure(G, [cls.rep], caps).order() != n:
            return False
    return True


# ---------------------------------------------------------------------------
# Normal-subgroup lattice


@dataclass
class NormalLattice:
    """The full set of normal subgroups of a group, with maximality flags."""

    parent: PermGroup
    members: list[PermGroup]
    maximal: list[bool]

    def maximal_members(self) -> list[PermGroup]:
        return [m for m, flag in zip(self.members, self.maximal) if flag]

    def find(self, H: PermGroup) -> int | None:
        for i, m in enumerate(self.members):
            if m.same_group(H):
                return i
        return None


def normal_subgroups(G: PermGroup, caps: Caps | None = None) -> NormalLattice:
    """Every normal subgroup, as the join-closure of element normal closures.

    Each normal subgroup is the join of the normal closures of the elements it
    contains, so closing the closures of class representatives under pairwise
    join is exhaustive.  Members are ordered by (order, first-discovery).
    """
    cached = G._cache.get("normal_lattice")
    if cached is not None:
        return cached
    order_G = G.order()
    distinct: list[PermGroup] = [trivial_group(G.degree)]

    def register(N: PermGroup) -> bool:
        for m in distinct:
            if m.order() == N.order() and N.is_subgroup_of(m):
                return False
        distinct.append(N)
        return True

    atoms: list[PermGroup] = []
    for cls in conjugacy_classes(G, caps):
        if cls.rep.is_identity():
            continue
        N = normal_closure(G, [cls.rep], caps)
        if register(N):
            atoms.append(N)

    frontier = list(atoms)
    while frontier:
        nxt = []
        for M in frontier:
            if M.order() == order_G:
                continue
            for A in atoms:
                if all(M.contains_raw(g) for g in A.raw_gens()):
                    continue
                J = M.extended(A.generators)
                if register(J):
                    nxt.append(J)
        frontier = nxt

    order_index = {id(m): i for i, m in enumerate(distinct)}
    members = sorted(distinct, key=lambda m: (m.order(), order_index[id(m)]))
    maximal = []
    for i, m in enumerate(members):
        if m.order() == order_G:
            maximal.append(False)
            continue
        strictly_above = any(
            other.order() < order_G and other.order() > m.order()
            and m.is_subgroup_of(other)
            for other in members)
        maximal.append(not strictly_above)
    lattice = NormalLattice(G, members, maximal)
    G._cache["normal_lattice"] = lattice
    return lattice


def intersect_groups(A: PermGroup, B: PermGroup, caps: Caps | None = None) -> PermGroup:
    if A.degree != B.degree:
        raise InvalidInput("intersection requires equal degrees")
    small, big = (A, B) if A.order() <= B.order() else (B, A)
    members = [x for x in small.raw_elements(caps) if big.contains_raw(x)]
    return group_from_elements(A.degree, members)


def baer_radical(G: PermGroup, caps: Caps | None = None) -> PermGroup:
    """The intersection of all maximal normal subgroups of a nontrivial group."""
    if G.order() == 1:
        raise InvalidInput("the radical is defined only for nontrivial groups")
    rad: PermGroup | None = None
    for H in normal_subgroups(G, caps).maximal_members():
        rad = H if rad is None else intersect_groups(rad, H, caps)
        if rad.order() == 1:
            break
    assert rad is not None
    return rad


def quotient(G: PermGroup, N: PermGroup,
             caps: Caps | None = None) -> tuple[PermGroup, GroupHom]:
    """G/N as a faithful permutation group via the action on cosets of N."""
    if not normal_in(G, N):
        raise InvalidInput("quotient requires a normal subgroup")
    if N.order() == 1:
        return G, identity_hom(G)
    if N.order() == G.order():
        Q = trivial_group(1)
        hom = GroupHom(G, Q, [Permutation((0,)) for _ in G.generators],
                       map_fn=lambda raw: (0,), kernel=G)
        return Q, hom
    hom = coset_action(G, N, kernel=N)
    return hom.image(), hom


# ---------------------------------------------------------------------------
# Isomorphism


def element_order_histogram(G: PermGroup, caps: Caps | None = None) -> dict[int, int]:
    hist: dict[int, int] = {}
    for x in G.raw_elements(caps):
        o = _order(x)
        hist[o] = hist.get(o, 0) + 1
    return hist


def fingerprint(G: PermGroup, caps: Caps | None = None) -> tuple:
    """An isomorphism invariant: never asserts isomorphism, only refutes it."""
    cached = G._cache.get("fingerprint")
    if cached is not None:
        return cached
    caps_eff = effective_caps(caps)
    if G.order() > caps_eff.iso_cap:
        raise CapExceeded(f"order {G.order()} exceeds iso cap {caps_eff.iso_cap}")
    hist = tuple(sorted(element_order_histogram(G, caps).items()))
    class_sizes = tuple(sorted(c.size for c in conjugacy_classes(G, caps)))
    z = center(G, caps).order()
    derived = tuple(s.order() for s in derived_series(G, caps))
    fp = (G.order(), hist, class_sizes, z, derived)
    G._cache["fingerprint"] = fp
    return fp


@dataclass
class IsoCertificate:
    """A checkable witness that source ≅ target."""

    forward: GroupHom
    note: tuple

    @property
    def source(self) -> PermGroup:
        return self.forward.source

    @property
    def target(self) -> PermGroup:
        return self.forward.target

    def verify(self) -> bool:
        return self.forward.is_isomorphism_onto(self.target)


def _generating_sequence(G: PermGroup, caps: Caps | None = None
                         ) -> tuple[list[RawPerm], list[int]]:
    """A short generating sequence x_0, x_1, …, greedily taking elements of
    large order, and the orders of its prefix subgroups ⟨x_0..x_k⟩."""
    ordered = sorted(G.raw_elements(caps), key=lambda x: (-_order(x), x))
    chain = StabChain(G.degree)
    seq: list[RawPerm] = []
    orders: list[int] = []
    target = G.order()
    for x in ordered:
        if chain.order() == target:
            break
        if not chain.contains(x):
            chain.extend(x)
            seq.append(x)
            orders.append(chain.order())
    return seq, orders


def isomorphic(G: PermGroup, H: PermGroup,
               caps: Caps | None = None) -> IsoCertificate | None:
    """An isomorphism certificate, or None; fingerprint rejection then backtracking.

    Backtracks over images y_k in H of a generating sequence x_k of G, each drawn
    in a fixed order (class by class, each class sorted) from the elements whose
    order and class size match x_k.  A node is kept only when x_i ↦ y_i (i ≤ k)
    extends to an isomorphism ⟨x_0..x_k⟩ → ⟨y_0..y_k⟩.  Every prefix of an
    isomorphism passes, so the first success in that order is returned and
    certificates are deterministic.
    """
    caps_eff = effective_caps(caps)
    if G.order() != H.order():
        return None
    n = G.order()
    if n > caps_eff.iso_cap:
        raise CapExceeded(f"order {n} exceeds iso cap {caps_eff.iso_cap}")
    fpG, fpH = fingerprint(G, caps), fingerprint(H, caps)
    if fpG != fpH:
        return None
    if n == 1:
        return IsoCertificate(GroupHom(G, H, [], map_fn=lambda raw: _identity(H.degree),
                                       kernel=trivial_group(G.degree)), (fpG, fpH))

    seq, partial_orders = _generating_sequence(G, caps)

    g_class_of: dict[RawPerm, int] = {}
    for cls in conjugacy_classes(G, caps):
        for m in cls.members:
            g_class_of[m] = cls.size
    h_classes = conjugacy_classes(H, caps)
    h_by_key: dict[tuple[int, int], list[RawPerm]] = {}
    for cls in h_classes:
        key = (cls.rep.order(), cls.size)
        h_by_key.setdefault(key, []).extend(sorted(cls.members))
    buckets = []
    for x in seq:
        key = (_order(x), g_class_of[x])
        buckets.append(h_by_key.get(key, []))
        if not buckets[-1]:
            return None

    def dfs(k: int, images: list[RawPerm]) -> dict[RawPerm, RawPerm] | None:
        for cand in buckets[k]:
            trial = images + [cand]
            # Keys lie in ⟨x_0..x_k⟩, so the limit is never reached.
            table = induced_map(seq[:k + 1], trial, G.degree, H.degree,
                                partial_orders[k] + 1)
            if table is None or len(set(table.values())) != partial_orders[k]:
                continue
            if k + 1 == len(seq):
                return table
            found = dfs(k + 1, trial)
            if found is not None:
                return found
        return None

    table = dfs(0, [])
    if table is None:
        return None
    gen_images = [Permutation(table[g]) for g in G.raw_gens()]
    hom = GroupHom(G, H, gen_images, kernel=trivial_group(G.degree))
    return IsoCertificate(hom, (fpG, fpH))


# ---------------------------------------------------------------------------
# Subgroup enumeration


def subgroups(G: PermGroup, limit: int | None = None,
              caps: Caps | None = None) -> list[PermGroup]:
    """All subgroups: the cyclic subgroups closed under pairwise join.

    Elements are indexed once in `sorted_elements` order and a subgroup is
    keyed by the int bitmask of its element indices.  The atoms are the
    distinct cyclic subgroups <x>, taken in index order, each generated by
    its least generator.  A breadth-first pass joins every subgroup S of the
    current frontier with every atom a not in S, in atom order; the first
    discovery of a mask fixes its generators as S's generators followed by a.
    <S, a> is closed by right multiplication by its generators, each step a
    lookup in the generator's row R_a[i] = index(elems[i] ∘ a), built the
    first time that atom is used; a closure that passes half the elements of
    G is G (Lagrange) and stops there.  Raises SubgroupLimitExceeded as soon as
    the count, atoms included, passes the limit.  The result is ordered by
    (order, sorted elements), which on the sorted index is
    (popcount, ascending set bits).  Chains of the result groups are built
    lazily from their generators, in generator order.
    """
    caps_eff = effective_caps(caps)
    cap = limit if limit is not None else caps_eff.subgroup_limit
    cached = G._cache.get("subgroups")
    if cached is not None:
        if len(cached) > cap:
            raise SubgroupLimitExceeded(
                f"subgroup count {len(cached)} exceeds limit {cap}")
        return cached

    elems = sorted_elements(G, caps)
    n = len(elems)
    index = {x: i for i, x in enumerate(elems)}
    bits = [1 << i for i in range(n)]
    rows: dict[int, list[int]] = {}

    def row(a: int) -> list[int]:
        r = rows.get(a)
        if r is None:
            g = elems[a]
            r = rows[a] = [index[_compose(x, g)] for x in elems]
        return r

    # mask -> (group, generator indices, member indices); the identity is index 0
    found: dict[int, tuple[PermGroup, tuple[int, ...], list[int]]] = {}
    atoms: list[tuple[int, Permutation]] = []
    frontier: list[int] = []

    def record(mask: int, entry: tuple, new: list[int]) -> None:
        found[mask] = entry
        new.append(mask)
        if len(found) > cap:
            raise SubgroupLimitExceeded(f"subgroup closure exceeded limit {cap}")

    record(1, (trivial_group(G.degree), (), [0]), [])
    ident = elems[0]
    for i, x in enumerate(elems):
        members = [0]
        y = x
        while y != ident:
            members.append(index[y])
            y = _compose(y, x)
        mask = sum(bits[j] for j in members)
        if mask not in found:
            gen = Permutation(x)
            atoms.append((i, gen))
            record(mask, (PermGroup(G.degree, [gen]), (i,), members), frontier)

    everything = ((1 << n) - 1, list(range(n)))

    def join(s_mask: int, s_set: set[int], s_members: list[int],
             s_rows: list[list[int]], ra: list[int]) -> tuple[int, list[int]]:
        """Mask and member indices of <S, a>; S is closed under s_rows."""
        j_set = set(s_set)
        j_members = list(s_members)
        add, push = j_set.add, j_members.append
        for e in s_members:
            f = ra[e]
            if f not in j_set:
                add(f)
                push(f)
        j_rows = s_rows + [ra]
        k = len(s_members)
        while k < len(j_members):
            # A subgroup with more than half the elements of G is G (Lagrange).
            if 2 * len(j_members) > n:
                return everything
            e = j_members[k]
            k += 1
            for r in j_rows:
                f = r[e]
                if f not in j_set:
                    add(f)
                    push(f)
        return s_mask + sum(bits[j] for j in j_members[len(s_members):]), j_members

    while frontier:
        nxt = []
        for s_mask in frontier:
            S, s_gens, s_members = found[s_mask]
            s_set = set(s_members)
            s_rows = [row(g) for g in s_gens]
            for a, gen in atoms:
                if a in s_set:
                    continue
                j_mask, j_members = join(s_mask, s_set, s_members, s_rows, row(a))
                if j_mask not in found:
                    J = PermGroup(G.degree, S.generators + (gen,))
                    record(j_mask, (J, s_gens + (a,), j_members), nxt)
        frontier = nxt

    ranked = sorted(found.values(), key=lambda t: (len(t[2]), sorted(t[2])))
    result = [t[0] for t in ranked]
    G._cache["subgroups"] = result
    return result


# ---------------------------------------------------------------------------
# Radical factorization and quotient inventories


@dataclass
class RadicalFactorization:
    """An irredundant family of maximal normal subgroups cutting out the radical."""

    group: PermGroup
    radical: PermGroup
    family: list[PermGroup]
    quotients: list[PermGroup]

    @property
    def quotient_orders(self) -> list[int]:
        return [q.order() for q in self.quotients]


def radical_factorization(G: PermGroup, caps: Caps | None = None) -> RadicalFactorization:
    """Maximal normals H₁..Hₙ with ⋂Hᵢ = Rad(G), each removal breaking that equality.

    Verifies the order identity |G/Rad| = ∏ |G/Hᵢ| and that each quotient is
    simple; a violation would contradict the radical's structure theory, so it
    raises a falsification alarm rather than returning.
    """
    if G.order() == 1:
        raise InvalidInput("radical factorization requires a nontrivial group")
    maximals = normal_subgroups(G, caps).maximal_members()
    rad_order = baer_radical(G, caps).order()

    family: list[PermGroup] = []
    current: PermGroup | None = None
    for H in maximals:
        merged = H if current is None else intersect_groups(current, H, caps)
        if current is None or merged.order() < current.order():
            family.append(H)
            current = merged
        if current.order() == rad_order:
            break
    assert current is not None and current.order() == rad_order

    reduced = list(family)
    i = 0
    while i < len(reduced):
        rest = reduced[:i] + reduced[i + 1:]
        if rest:
            inter = rest[0]
            for H in rest[1:]:
                inter = intersect_groups(inter, H, caps)
            if inter.order() == rad_order:
                reduced = rest
                continue
        i += 1

    n = G.order()
    product = 1
    quotients = []
    for H in reduced:
        Q, _ = quotient(G, H, caps)
        quotients.append(Q)
        product *= n // H.order()
    if product != n // rad_order:
        raise FalsificationAlarm(
            "radical factorization order identity failed",
            witness={"group_order": n, "radical_order": rad_order,
                     "family_orders": [H.order() for H in reduced]})
    for Q in quotients:
        if not is_simple(Q, caps):
            raise FalsificationAlarm(
                "maximal-normal quotient is not simple",
                witness={"quotient_order": Q.order()})
    radical = baer_radical(G, caps)
    return RadicalFactorization(G, radical, reduced, quotients)


def simple_quotients(G: PermGroup, caps: Caps | None = None) -> list[PermGroup]:
    """Iso-type representatives of G/H over maximal normal H."""
    if G.order() == 1:
        return []
    reps: list[PermGroup] = []
    for H in normal_subgroups(G, caps).maximal_members():
        Q, _ = quotient(G, H, caps)
        if not any(isomorphic(Q, R, caps) is not None for R in reps):
            reps.append(Q)
    return reps


def has_prime_order_quotient(G: PermGroup, caps: Caps | None = None) -> bool:
    """True iff some maximal normal subgroup has prime index.

    Equivalent to the abelianization being nontrivial: a prime-order quotient
    factors through G/[G,G], and conversely any nontrivial finite abelian
    group surjects onto some C_p.  Computed via the derived subgroup so that
    large groups need no quotient or lattice construction.
    """
    return derived_subgroup(G, caps).order() < G.order()


def complement_exists(G: PermGroup, N: PermGroup,
                      caps: Caps | None = None) -> PermGroup | None:
    """A subgroup K with K ∩ N = 1 and KN = G, or None.

    Searches lifts of a generating sequence of G/N: a complement maps
    isomorphically onto the quotient, so each generator image must lift to a
    coset element of exactly the same order.
    """
    if not normal_in(G, N):
        raise InvalidInput("complement search requires a normal subgroup")
    if N.order() == 1:
        return G
    if N.order() == G.order():
        return trivial_group(G.degree)
    Q, proj = quotient(G, N, caps)
    q_order = Q.order()
    q_seq, _ = _generating_sequence(Q, caps)

    # The fiber over a quotient element is rep·N for the matching coset
    # representative, so fibers come from one coset each instead of a
    # projection scan over all of G.
    rep_for = {proj.apply_raw(r.images): r.images for r in proj.coset_reps}
    n_elems = sorted(N.raw_elements(caps))

    fibers: list[list[RawPerm]] = []
    space = 1
    for q in q_seq:
        want = _order(q)
        rep = rep_for[q]
        fiber = [x for x in (_compose(rep, s) for s in n_elems) if _order(x) == want]
        if not fiber:
            return None
        fibers.append(fiber)
        space *= len(fiber)
        if space > 2_000_000:
            raise CapExceeded("complement search space too large")

    def dfs(k: int, chain: StabChain, picked: list[RawPerm]) -> PermGroup | None:
        if chain.order() > q_order:
            return None
        if k == len(fibers):
            if chain.order() != q_order:
                return None
            K = PermGroup(G.degree, [Permutation(x) for x in picked])
            K._chain = chain
            return K
        for x in fibers[k]:
            trial = chain.copy()
            trial.extend(x)
            if trial.order() <= q_order:
                result = dfs(k + 1, trial, picked + [x])
                if result is not None:
                    return result
        return None

    return dfs(0, StabChain(G.degree), [])
