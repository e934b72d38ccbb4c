"""Structural analysis of finite permutation groups.

Conjugacy classes, the normal-subgroup lattice, maximal normal subgroups and
their intersection (the radical), quotients by coset action, solvability-style
predicates, isomorphism certificates, and exhaustive subgroup enumeration.

A group's classes, normal lattice, lattice quotients G/N, fingerprint and
subgroup list are kept on the group through `PermGroup.cached`, which checks
the enumeration cap on every call.  The isomorphism types of a session are
kept by an `IsoTypes` registry, the one place that decides whether two groups
are the same type.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass
from math import gcd
from typing import Any, Callable, Iterable

from .config import DEFAULT_CAPS, Caps, cap_message
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
    _conjugator,
    _inverse,
    _order,
    _right,
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


def _is_prime(n: int) -> bool:
    return n > 1 and _prime_factors(n) == [n]


# ---------------------------------------------------------------------------
# Conjugacy and characteristic subgroups


@dataclass(frozen=True)
class ConjClass:
    """One conjugacy class; the representative is the least element, and
    `order` is the element order every member shares."""

    rep: Permutation
    members: frozenset[RawPerm]
    order: int

    @property
    def size(self) -> int:
        return len(self.members)


def conjugacy_classes(G: PermGroup, caps: Caps = DEFAULT_CAPS) -> list[ConjClass]:
    """Conjugacy classes ordered by their least element (identity class
    first), computed once per group."""
    return G.cached("conj_classes", caps, lambda: _conjugacy_classes(G, caps))


def _conjugacy_classes(G: PermGroup, caps: Caps) -> list[ConjClass]:
    # g∘x∘g⁻¹ is (g∘x)∘g⁻¹: one map ∘g⁻¹ per generator, one ∘x per element.
    gens = [(g, _right(_inverse(g))) for g in G.raw_gens()]
    seen: set[RawPerm] = set()
    classes: list[ConjClass] = []
    for start in G.raw_elements(caps):
        if start in seen:
            continue
        members = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for x in frontier:
                times_x = _right(x)
                for g, times_g_inv in gens:
                    y = times_g_inv(times_x(g))
                    if y not in members:
                        members.add(y)
                        nxt.append(y)
            frontier = nxt
        seen |= members
        classes.append(ConjClass(Permutation(start), frozenset(members), _order(start)))
    return classes


def center(G: PermGroup, caps: Caps = DEFAULT_CAPS) -> PermGroup:
    """The centre: the elements whose conjugacy class is a singleton."""
    return group_from_elements(G.degree, [cls.rep.images for cls in conjugacy_classes(G, caps)
                                          if cls.size == 1])


def normal_closure(G: PermGroup, seeds: Iterable) -> PermGroup:
    """The smallest normal subgroup of G containing the seed elements."""
    raws = [G._coerce(s).images for s in seeds]
    target = G.order()
    chain = StabChain(G.degree)
    gens: list[RawPerm] = []
    frontier: list[RawPerm] = []
    for s in raws:
        if chain.extend(s):
            gens.append(s)
            frontier.append(s)
    outer = [_conjugator(g) for g in G.raw_gens()]
    while frontier and chain.order() < target:
        nxt = []
        for x in frontier:
            for conj in outer:
                c = conj(x)
                if chain.extend(c):
                    gens.append(c)
                    nxt.append(c)
        frontier = nxt
    return PermGroup(G.degree, gens, chain=chain)


def normal_in(parent: PermGroup, N: PermGroup) -> bool:
    if not N.is_subgroup_of(parent):
        return False
    # A parent generator inside N conjugates N into itself.
    outer = [g for g in parent.raw_gens() if not N.contains_raw(g)]
    return all(N.contains_raw(conj(x)) for conj in map(_conjugator, outer)
               for x in N.raw_gens())


def _commutator(a: RawPerm, b: RawPerm) -> RawPerm:
    return _compose(a, _compose(b, _compose(_inverse(a), _inverse(b))))


def derived_subgroup(G: PermGroup) -> PermGroup:
    comms = [_commutator(a, b) for a in G.raw_gens() for b in G.raw_gens()]
    return normal_closure(G, comms)


def _series(G: PermGroup, step: Callable[[PermGroup], PermGroup]) -> list[PermGroup]:
    """G, step(G), step(step(G)), …, ending at the first trivial term, or at
    the last term before one whose order equals its predecessor's."""
    series = [G]
    while series[-1].order() > 1:
        nxt = step(series[-1])
        if nxt.order() == series[-1].order():
            break
        series.append(nxt)
    return series


def derived_series(G: PermGroup) -> list[PermGroup]:
    return _series(G, derived_subgroup)


def lower_central_series(G: PermGroup) -> list[PermGroup]:
    return _series(G, lambda cur: normal_closure(
        G, [_commutator(a, b) for a in G.raw_gens() for b in cur.raw_gens()]))


# ---------------------------------------------------------------------------
# Predicates


def is_abelian(G: PermGroup) -> bool:
    gens = G.raw_gens()
    return all(_compose(a, b) == _compose(b, a) for a in gens for b in gens)


def is_cyclic(G: PermGroup, caps: Caps = DEFAULT_CAPS) -> bool:
    n = G.order()
    if n == 1:
        return True
    if not is_abelian(G):
        return False
    return any(_order(x) == n for x in G.raw_elements(caps))


def is_p_group(G: PermGroup, p: int) -> bool:
    n = G.order()
    while n % p == 0:
        n //= p
    return n == 1


def is_solvable(G: PermGroup) -> bool:
    return derived_series(G)[-1].order() == 1


def is_nilpotent(G: PermGroup) -> bool:
    return lower_central_series(G)[-1].order() == 1


def is_simple(G: PermGroup, caps: Caps = DEFAULT_CAPS) -> bool:
    """True iff G has exactly two normal subgroups (so the trivial group is not simple)."""
    n = G.order()
    if n == 1:
        return False
    if _is_prime(n):
        return True
    if is_abelian(G):
        return False
    return len(normal_subgroups(G, caps).members) == 2


# ---------------------------------------------------------------------------
# Normal-subgroup lattice


@dataclass
class NormalLattice:
    """The full set of normal subgroups of a group, with maximality flags.

    A normal subgroup is a union of conjugacy classes, so a member is
    identified exactly by its mask: bit k is set when it contains the k-th
    class of the group's `conjugacy_classes`.  The meet of members is the AND of
    their masks.
    """

    members: list[PermGroup]
    maximal: list[bool]
    masks: list[int]

    def __post_init__(self) -> None:
        self._index = {mask: i for i, mask in enumerate(self.masks)}

    def maximal_members(self) -> list[PermGroup]:
        return [m for m, flag in zip(self.members, self.maximal) if flag]

    def meet(self, *indices: int) -> int:
        """Index of the intersection of the given members (the whole group for none)."""
        mask = self.masks[-1]
        for i in indices:
            mask &= self.masks[i]
        idx = self._index.get(mask)
        if idx is None:
            raise InvalidInput("lattice is not intersection-closed")
        return idx


def normal_subgroups(G: PermGroup, caps: Caps = DEFAULT_CAPS) -> NormalLattice:
    """Every normal subgroup, as the join-closure of element normal closures.

    Each normal subgroup is the join of the normal closures of the elements it
    contains, so closing the closures of class representatives under pairwise
    join is exhaustive.  A normal subgroup is a union of classes, so its order
    is the sum of the sizes of the classes in its mask; that identity is used
    three times, so that no known member is built again:

    - a join ⟨M, A⟩ has order |M|·|A| / |M ∩ A|, with |M ∩ A| read off the
      AND of their masks, so a join that is a known member (one of that order
      whose mask covers both) is recognised before it is built;
    - the closure N_k of class k contains class k and the closures of the
      earlier classes that hold powers of its representative.  When those
      classes make up exactly a known member's mask, N_k lies in that member
      and contains all its classes, so it is that member and no closure is
      computed (the walk over the powers stops as soon as that holds).  This
      covers a power coprime to the representative's order in an earlier
      class j: it generates the same cyclic group, so N_k = N_j;
    - a new member sifts class representatives only until the sizes of the
      classes found sum to its order.

    Members are ordered by (order, first discovery).  The lattice is computed
    once per group.
    """
    return G.cached("normal_lattice", caps, lambda: _normal_lattice(G, caps))


def _normal_lattice(G: PermGroup, caps: Caps) -> NormalLattice:
    order_G = G.order()
    classes = conjugacy_classes(G, caps)
    reps = [cls.rep.images for cls in classes]
    sizes = [cls.size for cls in classes]
    # The classes of each element order: x^m, of order o / gcd(m, o), is
    # looked up only among those.
    of_order: dict[int, list[int]] = {}
    for k, cls in enumerate(classes):
        of_order.setdefault(cls.order, []).append(k)

    def mask_order(mask: int) -> int:
        return sum(sizes[k] for k in range(mask.bit_length()) if mask >> k & 1)

    # The identity class is first, so the trivial group's mask is 1.
    distinct: list[tuple[PermGroup, int]] = [(trivial_group(G.degree), 1)]
    known_masks = {1}

    def find(n: int, known: int) -> int | None:
        """The mask of the known member of order n containing the classes in
        `known`, if there is one."""
        return next((mask for m, mask in distinct
                     if known & ~mask == 0 and m.order() == n), None)

    def add(N: PermGroup, known: int) -> int:
        """Record the new member N, which contains the classes in `known`."""
        n, total = N.order(), mask_order(known)
        for k, r in enumerate(reps):
            if total == n:
                break
            if not known >> k & 1 and N.contains_raw(r):
                known |= 1 << k
                total += sizes[k]
        known_masks.add(known)
        distinct.append((N, known))
        return known

    # closure[k] is the mask of the normal closure of class k.
    closure = [1] * len(classes)
    atoms: list[tuple[PermGroup, int]] = []
    for k in range(1, len(classes)):
        x, o = reps[k], classes[k].order
        known, p, times_x = 1 << k | 1, x, _right(x)
        for m in range(2, o):
            p = times_x(p)
            j = next((j for j in of_order[o // gcd(m, o)]
                      if j < k and p in classes[j].members), None)
            if j is not None:
                known |= closure[j]
                if known in known_masks:
                    break
        if known in known_masks:
            closure[k] = known
            continue
        N = normal_closure(G, [x])
        mask = find(N.order(), known)
        if mask is None:
            mask = add(N, known)
            atoms.append((N, mask))
        closure[k] = mask

    frontier = list(atoms)
    while frontier:
        nxt = []
        for M, m_mask in frontier:
            if M.order() == order_G:
                continue
            for A, a_mask in atoms:
                if a_mask & ~m_mask == 0:
                    continue
                known = m_mask | a_mask
                n = M.order() * A.order() // mask_order(m_mask & a_mask)
                if find(n, known) is not None:
                    continue
                J = M.extended(A.generators)
                nxt.append((J, add(J, known)))
        frontier = nxt

    ranked = sorted(distinct, key=lambda entry: entry[0].order())
    masks = [mask for _, mask in ranked]
    full = masks[-1]
    maximal = [mask != full and not any(other not in (full, mask) and mask & ~other == 0
                                        for other in masks)
               for mask in masks]
    return NormalLattice([m for m, _ in ranked], maximal, masks)


def baer_radical(G: PermGroup, caps: Caps = DEFAULT_CAPS) -> PermGroup:
    """The intersection of all maximal normal subgroups of a nontrivial group."""
    if G.order() == 1:
        raise InvalidInput("the radical is defined only for nontrivial groups")
    lat = normal_subgroups(G, caps)
    return lat.members[lat.meet(*(i for i, flag in enumerate(lat.maximal) if flag))]


def quotient(G: PermGroup, N: PermGroup) -> tuple[PermGroup, GroupHom]:
    """G/N as a faithful permutation group via the action on cosets of N."""
    if not normal_in(G, N):
        raise InvalidInput("quotient requires a normal subgroup")
    if N.order() == 1:
        return G, identity_hom(G)
    hom = coset_action(G, N)
    return hom.image(), hom


def lattice_quotient(G: PermGroup, idx: int, caps: Caps = DEFAULT_CAPS) -> PermGroup:
    """G/N for member `idx` of G's normal lattice, cached on G.

    Member 0 is the trivial subgroup, so index 0 is G itself, which is not
    stored: G holding itself would keep it alive until a cycle collection.
    """
    if idx == 0:
        return G
    return G.cached(("lattice_quotient", idx), caps,
                    lambda: quotient(G, normal_subgroups(G, caps).members[idx])[0])


# ---------------------------------------------------------------------------
# Isomorphism


def fingerprint(G: PermGroup, caps: Caps = DEFAULT_CAPS) -> tuple:
    """An isomorphism invariant: never asserts isomorphism, only refutes it.

    (order, element-order histogram, class sizes, centre order, derived
    series orders); all but the last are read off the conjugacy classes.
    """
    if G.order() > caps.iso_cap:
        raise CapExceeded(cap_message(caps, "iso_cap", "order", G.order()))

    def compute() -> tuple:
        classes = conjugacy_classes(G, caps)
        hist: dict[int, int] = {}
        for cls in classes:
            hist[cls.order] = hist.get(cls.order, 0) + cls.size
        class_sizes = tuple(sorted(cls.size for cls in classes))
        z = sum(1 for cls in classes if cls.size == 1)
        derived = tuple(s.order() for s in derived_series(G))
        return (G.order(), tuple(sorted(hist.items())), class_sizes, z, derived)

    return G.cached("fingerprint", caps, compute)


@dataclass
class IsoCertificate:
    """A checkable witness that source ≅ target."""

    forward: GroupHom

    @property
    def source(self) -> PermGroup:
        return self.forward.source

    @property
    def target(self) -> PermGroup:
        return self.forward.target

    def verify(self) -> bool:
        return self.forward.is_isomorphism_onto(self.target)


def _generating_sequence(G: PermGroup, caps: Caps = DEFAULT_CAPS
                         ) -> tuple[list[RawPerm], list[int]]:
    """A short generating sequence x_0, x_1, …, greedily taking elements of
    large order, and the orders of its prefix subgroups ⟨x_0..x_k⟩."""
    ordered = sorted((-cls.order, x) for cls in conjugacy_classes(G, caps)
                     for x in cls.members)
    chain = StabChain(G.degree)
    seq: list[RawPerm] = []
    orders: list[int] = []
    target = G.order()
    for _, x in ordered:
        if chain.order() == target:
            break
        if chain.extend(x):
            seq.append(x)
            orders.append(chain.order())
    return seq, orders


def _first_leaf(levels: list[list[RawPerm]], root: Any,
                extend: Callable[[list[RawPerm], Any, RawPerm], Any]
                ) -> tuple[list[RawPerm], Any] | None:
    """Depth-first search picking one element of each level, in level order.

    extend(picks, state, x) is the state of the node that appends x to the
    picks of a node with `state` (`root` for the empty prefix), or None to
    prune it.  Returns (picks, state) for the first node kept at the last
    level, or None.  The stack is explicit, so no closure refers to itself.
    """
    states = [root]
    picks: list[RawPerm] = []
    pending = [iter(levels[0])]
    while pending:
        for x in pending[-1]:
            state = extend(picks, states[-1], x)
            if state is not None:
                break
        else:
            pending.pop()
            states.pop()
            if picks:
                picks.pop()
            continue
        picks.append(x)
        if len(picks) == len(levels):
            return picks, state
        states.append(state)
        pending.append(iter(levels[len(picks)]))
    return None


def isomorphic(G: PermGroup, H: PermGroup,
               caps: Caps = DEFAULT_CAPS) -> IsoCertificate | None:
    """An isomorphism certificate, or None; fingerprint rejection then backtracking.

    Backtracks over images y_k in H of a generating sequence x_k of G, each drawn
    in a fixed order (class by class, each class sorted) from the classes of H
    with the element order and size of x_k's class.  A candidate y_k is tried
    only when every y_i·y_k (i < k) has in H the class key (element order, class
    size) of x_i·x_k in G, and a node is kept only when x_i ↦ y_i (i ≤ k)
    extends to an isomorphism ⟨x_0..x_k⟩ → ⟨y_0..y_k⟩.  An isomorphism maps
    x_i·x_k to y_i·y_k and keeps class keys, so every prefix of one passes both
    tests; the first success in that order is returned and certificates are
    deterministic.
    """
    # A known order over the cap raises before the other group's chain is built.
    for X in (G, H):
        if X._chain is not None and X.order() > caps.iso_cap:
            raise CapExceeded(cap_message(caps, "iso_cap", "order", X.order()))
    if G.order() != H.order():
        return None
    n = G.order()
    if n > caps.iso_cap:
        raise CapExceeded(cap_message(caps, "iso_cap", "order", n))
    if fingerprint(G, caps) != fingerprint(H, caps):
        return None
    if n == 1:
        return IsoCertificate(GroupHom(G, H, []))

    seq, partial_orders = _generating_sequence(G, caps)

    # A class key is (element order, class size).
    h_key: dict[RawPerm, tuple[int, int]] = {}
    h_by_key: dict[tuple[int, int], list[RawPerm]] = {}
    for cls in conjugacy_classes(H, caps):
        key = (cls.order, cls.size)
        h_key.update(dict.fromkeys(cls.members, key))
        h_by_key.setdefault(key, []).extend(sorted(cls.members))
    g_classes = conjugacy_classes(G, caps)

    def g_key(x: RawPerm) -> tuple[int, int]:
        cls = next(c for c in g_classes if x in c.members)
        return cls.order, cls.size

    buckets = [h_by_key.get(g_key(x), []) for x in seq]
    if not all(buckets):
        return None
    # needs[k][i] is the class key of x_i·x_k in G.
    needs = [[g_key(_compose(x, seq[k])) for x in seq[:k]] for k in range(len(seq))]

    def extend(images: list[RawPerm], _, y: RawPerm) -> dict[RawPerm, RawPerm] | None:
        k = len(images)
        times_y = _right(y)
        for prev, key in zip(images, needs[k]):
            if h_key[times_y(prev)] != key:
                return None
        table = induced_map(seq[:k + 1], images + [y], G.degree, H.degree)
        if table is None or len(set(table.values())) != partial_orders[k]:
            return None
        return table

    leaf = _first_leaf(buckets, None, extend)
    if leaf is None:
        return None
    table = leaf[1]
    return IsoCertificate(GroupHom(G, H, [table[g] for g in G.raw_gens()]))


class IsoTypes:
    """The isomorphism types of the groups it is shown: `id_of(G)` is the id
    of G's type, and `reps[i]` the first group seen of type i.

    G is compared only with the representatives of its own order, by three
    routes in turn:

    - G, or a group with G's degree and generator tuple, was seen before: it
      takes that id with no work;
    - a representative equal to G as a subgroup of Sym(n) is isomorphic to
      it through the identity map, so no search runs;
    - otherwise a certified `isomorphic` decides, which rejects a
      representative with another fingerprint before any search, and a
      fingerprint collision never joins two types.

    A group whose order no representative has is a new type with no
    fingerprint, so the iso cap binds only when two groups of one order must
    be compared.  Groups are keyed weakly: of the groups, only the
    representatives outlive their callers, while the (degree, generator
    tuple) of every group seen is kept.
    """

    def __init__(self, caps: Caps = DEFAULT_CAPS):
        self.caps = caps
        self.reps: list[PermGroup] = []
        # order ↦ the ids whose representative has it
        self._of_order: dict[int, list[int]] = {}
        # (degree, generator tuple) of every group seen ↦ its id
        self._of_gens: dict[tuple, int] = {}
        self._ids: weakref.WeakKeyDictionary[PermGroup, int] = weakref.WeakKeyDictionary()

    def id_of(self, G: PermGroup) -> int:
        gid = self._ids.get(G)
        if gid is None:
            key = (G.degree, tuple(G.raw_gens()))
            gid = self._of_gens.get(key)
            if gid is None:
                gid = self._of_gens[key] = self._match(G)
            self._ids[G] = gid
        return gid

    def _match(self, G: PermGroup) -> int:
        same_order = self._of_order.setdefault(G.order(), [])
        for gid in same_order:
            if self.reps[gid].same_group(G):
                return gid
        for gid in same_order:
            R = self.reps[gid]
            if isomorphic(R, G, self.caps) is not None:
                return gid
        same_order.append(len(self.reps))
        self.reps.append(G)
        return same_order[-1]


# ---------------------------------------------------------------------------
# Subgroup enumeration


def subgroups(G: PermGroup, caps: Caps = DEFAULT_CAPS) -> list[PermGroup]:
    """All subgroups: the cyclic subgroups closed under join, class by class.

    Elements are indexed once in `raw_elements` order and a subgroup is
    keyed by the int bitmask of its element indices.  The atoms are the
    distinct cyclic subgroups <x>, taken in index order, each generated by
    its least generator.  A breadth-first pass keeps only conjugacy class
    representatives R in its frontier: for S = c(R), <S, a> = c(<R, c⁻¹(a)>),
    so every class of the next frontier holds some <R, b> with b an atom not
    in R, in frontier and atom order.  <R, b> is closed by right
    multiplication by its generators, each step a lookup in the generator's
    row r_b[i] = index(e_i ∘ b); a closure that passes half the elements of G
    is G (Lagrange) and stops there.  A new class is recorded with R's
    generators followed by b, and its conjugation orbit is walked once
    through the index maps c_g[i] = index(g·e_i·g⁻¹) of G's generators, each
    conjugate c(T) listed with T's generators mapped by c.
    Raises SubgroupLimitExceeded as soon as the count, atoms included, passes
    `caps.subgroup_limit`.  The result is ordered by (order, sorted
    elements), which on the sorted index is (popcount, ascending set bits).
    Chains of the result groups are built lazily from their generators, in
    generator order.
    """
    return _subgroup_table(G, caps)[0]


def subgroup_classes(G: PermGroup, caps: Caps = DEFAULT_CAPS) -> list[int]:
    """For each subgroup in `subgroups(G)` order, the list position of the
    first subgroup of its conjugacy class."""
    return _subgroup_table(G, caps)[1]


def _subgroup_table(G: PermGroup, caps: Caps) -> tuple[list[PermGroup], list[int]]:
    """`subgroups(G)` and `subgroup_classes(G)`, cached as one entry; the
    subgroup limit is checked against the stored count on every call."""
    def compute() -> tuple[list[PermGroup], list[int]]:
        elems = G.raw_elements(caps)
        gen_lists, first = _enumerate_subgroups(G, elems, caps)
        perms: dict[int, Permutation] = {}
        return [PermGroup(G.degree, [perms.setdefault(a, Permutation(elems[a])) for a in gens])
                for gens in gen_lists], first

    table = G.cached("subgroups", caps, compute)
    if len(table[0]) > caps.subgroup_limit:
        raise SubgroupLimitExceeded(
            cap_message(caps, "subgroup_limit", "subgroup count", len(table[0])))
    return table


def _enumerate_subgroups(G: PermGroup, elems: tuple[RawPerm, ...],
                         caps: Caps) -> tuple[list[tuple[int, ...]], list[int]]:
    """The generator indices into `elems` of every subgroup, in result order,
    and the list position of the first member of each one's class."""
    n = len(elems)
    index = {x: i for i, x in enumerate(elems)}
    bits = [1 << i for i in range(n)]
    conj_maps = [[index[conj(x)] for x in elems] for conj in map(_conjugator, G.raw_gens())]
    rows: dict[int, list[int]] = {}

    def row(a: int) -> list[int]:
        r = rows.get(a)
        if r is None:
            times_a = _right(elems[a])
            r = rows[a] = [index[times_a(x)] for x in elems]
        return r

    # mask -> (generator indices, member indices); the identity is index 0
    found: dict[int, tuple[tuple[int, ...], list[int]]] = {}
    # mask -> mask of its class representative
    rep: dict[int, int] = {}

    def record(mask: int, gens: tuple[int, ...], members: list[int]) -> None:
        found[mask] = (gens, members)
        if len(found) > caps.subgroup_limit:
            raise SubgroupLimitExceeded(
                cap_message(caps, "subgroup_limit", "subgroup count", len(found)))

    def orbit(mask: int, gens: tuple[int, ...],
              members: list[int]) -> list[tuple[int, tuple[int, ...], list[int]]]:
        """The conjugation orbit of the new class representative `mask`,
        itself first, each conjugate c(T) with T's generators mapped by c;
        marks the representative of every member."""
        rep[mask] = mask
        out = [(mask, gens, members)]
        for _, s_gens, s_members in out:
            for c in conj_maps:
                t_members = [c[i] for i in s_members]
                t_mask = sum(bits[i] for i in t_members)
                if t_mask not in rep:
                    rep[t_mask] = mask
                    out.append((t_mask, tuple(c[i] for i in s_gens), t_members))
        return out

    record(1, (), [0])
    rep[1] = 1
    # Class representatives of the cyclic subgroups; every atom <x> keeps its
    # least generator x, so the atom scan, not the walk, lists them.
    frontier = []
    atoms: list[int] = []
    ident = elems[0]
    for i, x in enumerate(elems):
        members = [0]
        y, times_x = x, _right(x)
        while y != ident:
            members.append(index[y])
            y = times_x(y)
        mask = sum(bits[j] for j in members)
        if mask not in found:
            atoms.append(i)
            record(mask, (i,), members)
            if mask not in rep:
                orbit(mask, (i,), members)
                frontier.append(mask)

    everything = ((1 << n) - 1, list(range(n)))

    def join(r_mask: int, r_members: list[int], r_rows: list[list[int]],
             rb: list[int]) -> tuple[int, list[int]]:
        """Mask and member indices of <R, b>; R is closed under r_rows."""
        j_set = set(r_members)
        j_members = list(r_members)
        add, push = j_set.add, j_members.append
        for e in r_members:
            f = rb[e]
            if f not in j_set:
                add(f)
                push(f)
        j_rows = r_rows + [rb]
        k = len(r_members)
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
        return r_mask + sum(bits[j] for j in j_members[len(r_members):]), j_members

    while frontier:
        # <S, a> = c(<R, c⁻¹(a)>) for S = c(R), so every class of the next
        # frontier holds a join of a class representative R with an atom.
        nxt = []
        for r_mask in frontier:
            r_gens, r_members = found[r_mask]
            r_rows = [row(g) for g in r_gens]
            for b in atoms:
                if r_mask >> b & 1:
                    continue
                j_mask, j_members = join(r_mask, r_members, r_rows, row(b))
                if j_mask not in found:
                    for t in orbit(j_mask, r_gens + (b,), j_members):
                        record(*t)
                    nxt.append(j_mask)
        frontier = nxt

    ranked = sorted(found.items(), key=lambda t: (len(t[1][1]), sorted(t[1][1])))
    first: dict[int, int] = {}
    return ([gens for _, (gens, _) in ranked],
            [first.setdefault(rep[mask], pos) for pos, (mask, _) in enumerate(ranked)])


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


def radical_factorization(G: PermGroup, caps: Caps = DEFAULT_CAPS) -> RadicalFactorization:
    """Maximal normals H₁..Hₙ with ⋂Hᵢ = Rad(G), each removal breaking that equality.

    Verifies the order identity |G/Rad| = ∏ |G/Hᵢ| and that each quotient is
    simple; a violation would contradict the radical's structure theory, so it
    raises a falsification alarm rather than returning.
    """
    if G.order() == 1:
        raise InvalidInput("radical factorization requires a nontrivial group")
    lat = normal_subgroups(G, caps)
    maximal = [i for i, flag in enumerate(lat.maximal) if flag]
    rad = lat.meet(*maximal)
    radical = lat.members[rad]

    picked: list[int] = []
    current = lat.meet()
    for i in maximal:
        if current == rad:
            break
        merged = lat.meet(current, i)
        if merged != current:
            picked.append(i)
            current = merged

    i = 0
    while i < len(picked):
        rest = picked[:i] + picked[i + 1:]
        if lat.meet(*rest) == rad:
            picked = rest
            continue
        i += 1

    n = G.order()
    product = 1
    family = [lat.members[i] for i in picked]
    quotients = [lattice_quotient(G, i, caps) for i in picked]
    for H in family:
        product *= n // H.order()
    if product != n // radical.order():
        raise FalsificationAlarm(
            "radical factorization order identity failed",
            witness={"group_order": n, "radical_order": radical.order(),
                     "family_orders": [H.order() for H in family]})
    for Q in quotients:
        if not is_simple(Q, caps):
            raise FalsificationAlarm(
                "maximal-normal quotient is not simple",
                witness={"quotient_order": Q.order()})
    return RadicalFactorization(G, radical, family, quotients)


def simple_quotients(G: PermGroup, caps: Caps = DEFAULT_CAPS) -> list[PermGroup]:
    """Iso-type representatives of G/H over maximal normal H."""
    types = IsoTypes(caps)
    for idx, flag in enumerate(normal_subgroups(G, caps).maximal):
        if flag:
            types.id_of(lattice_quotient(G, idx, caps))
    return types.reps


def has_prime_order_quotient(G: PermGroup) -> bool:
    """True iff some maximal normal subgroup has prime index.

    Equivalent to the abelianization being nontrivial: a prime-order quotient
    factors through G/[G,G], and conversely any nontrivial finite abelian
    group surjects onto some C_p.  Computed via the derived subgroup so that
    large groups need no quotient or lattice construction.
    """
    return derived_subgroup(G).order() < G.order()


# The largest search space, the product of the fiber sizes, that
# `complement_exists` walks; a fixed bound with no flag or environment variable.
COMPLEMENT_SPACE_BOUND = 2_000_000


def complement_exists(G: PermGroup, N: PermGroup,
                      caps: Caps = DEFAULT_CAPS) -> PermGroup | None:
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
    Q, proj = quotient(G, N)
    q_order = Q.order()
    q_seq, _ = _generating_sequence(Q, caps)

    # The fiber over a quotient element q is rep·N for the representative of
    # the coset q sends N to (point 0), so fibers come from one coset each
    # instead of a projection scan over all of G.
    n_elems = N.raw_elements(caps)

    fibers: list[list[RawPerm]] = []
    space = 1
    for q in q_seq:
        want = _order(q)
        rep = proj.coset_reps[q[0]]
        fiber = [x for x in (_compose(rep, s) for s in n_elems) if _order(x) == want]
        if not fiber:
            return None
        fibers.append(fiber)
        space *= len(fiber)
        if space > COMPLEMENT_SPACE_BOUND:
            raise CapExceeded(f"complement search space {space} exceeds fixed bound "
                              f"{COMPLEMENT_SPACE_BOUND}")

    def extend(picked: list[RawPerm], chain: StabChain, x: RawPerm) -> StabChain | None:
        trial = chain.copy()
        trial.extend(x)
        last = len(picked) + 1 == len(fibers)
        if trial.order() > q_order or last and trial.order() != q_order:
            return None
        return trial

    leaf = _first_leaf(fibers, StabChain(G.degree), extend)
    if leaf is None:
        return None
    picked, chain = leaf
    return PermGroup(G.degree, picked, chain=chain)
