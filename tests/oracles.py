"""Small brute-force reference implementations used to cross-check fast code."""
from __future__ import annotations

from itertools import product

RawPerm = tuple[int, ...]


def compose(a: RawPerm, b: RawPerm) -> RawPerm:
    return tuple(a[x] for x in b)


def inverse(a: RawPerm) -> RawPerm:
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x] = i
    return tuple(out)


def naive_closure(gens: list[RawPerm], degree: int,
                  start: frozenset[RawPerm] | None = None) -> frozenset[RawPerm]:
    """All products of generators, by breadth-first multiplication; with a
    start set, all products of generators times its elements."""
    seen = set(start) if start is not None else {tuple(range(degree))}
    frontier = list(seen)
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = compose(g, x)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(seen)


def naive_normal_closure(G: frozenset[RawPerm], seeds: list[RawPerm],
                         degree: int) -> frozenset[RawPerm]:
    conj = [compose(g, compose(s, inverse(g))) for g in G for s in seeds]
    return naive_closure(conj, degree)


def naive_element_order(x: RawPerm) -> int:
    """The least k ≥ 1 with x^k the identity, by repeated multiplication."""
    ident = tuple(range(len(x)))
    k, y = 1, x
    while y != ident:
        k, y = k + 1, compose(y, x)
    return k


def naive_center(G: frozenset[RawPerm]) -> frozenset[RawPerm]:
    return frozenset(z for z in G if all(compose(z, g) == compose(g, z) for g in G))


def naive_commutator_subgroup(G: frozenset[RawPerm], degree: int) -> frozenset[RawPerm]:
    comms = [compose(a, compose(b, compose(inverse(a), inverse(b)))) for a in G for b in G]
    return naive_closure(comms, degree)


def naive_normal_subgroups(G: frozenset[RawPerm], degree: int) -> set[frozenset[RawPerm]]:
    """Every normal subgroup, as an element set (feasible only for small G).

    For N normal, the normal closure of N and x is ⟨x^G⟩·N: every product of
    conjugates of x times an element of N.
    """
    found = {frozenset({tuple(range(degree))})}
    frontier = list(found)
    while frontier:
        nxt = []
        for N in frontier:
            for x in G:
                if x in N:
                    continue
                conj = sorted({compose(g, compose(x, inverse(g))) for g in G})
                M = naive_closure(conj, degree, start=N)
                if M not in found:
                    found.add(M)
                    nxt.append(M)
        frontier = nxt
    return found


def naive_normalizer(G: frozenset[RawPerm], H: frozenset[RawPerm]) -> frozenset[RawPerm]:
    """Every g in G with g·H·g⁻¹ = H, by conjugating all of H."""
    return frozenset(g for g in G
                     if {compose(g, compose(h, inverse(g))) for h in H} == H)


def naive_is_homomorphism(table: dict[RawPerm, RawPerm]) -> bool:
    for x, fx in table.items():
        for y, fy in table.items():
            if table[compose(x, y)] != compose(fx, fy):
                return False
    return True


def naive_hom_table(src_gens: list[RawPerm], img_gens: list[RawPerm],
                    degree_s: int, degree_t: int) -> dict[RawPerm, RawPerm]:
    """The element table forced by gen ↦ image along a breadth-first spanning
    tree of ⟨src_gens⟩; it is a homomorphism iff the images extend to one."""
    ident_s, ident_t = tuple(range(degree_s)), tuple(range(degree_t))
    table = {ident_s: ident_t}
    queue = [ident_s]
    for x in queue:
        for s, t in zip(src_gens, img_gens):
            y = compose(s, x)
            if y not in table:
                table[y] = compose(t, table[x])
                queue.append(y)
    return table


def all_perms(degree: int) -> list[RawPerm]:
    from itertools import permutations

    return [tuple(p) for p in permutations(range(degree))]


def naive_subgroups(G: frozenset[RawPerm], degree: int) -> set[frozenset[RawPerm]]:
    """Every subgroup, as an element set: the cyclic subgroups closed under join."""
    cyclic = {naive_closure([x], degree): [x] for x in sorted(G)}
    found = dict(cyclic)
    frontier = list(found)
    while frontier:
        nxt = []
        for H in frontier:
            for C, (c,) in cyclic.items():
                if c in H:
                    continue
                J = naive_closure(found[H] + [c], degree)
                if J not in found:
                    found[J] = found[H] + [c]
                    nxt.append(J)
        frontier = nxt
    return set(found)


def naive_subgroup_classes(G: frozenset[RawPerm], degree: int
                           ) -> set[frozenset[frozenset[RawPerm]]]:
    """The conjugacy classes of subgroups: the orbits of `naive_subgroups`
    under conjugation by every element of G."""
    classes = set()
    for H in naive_subgroups(G, degree):
        classes.add(frozenset(frozenset(compose(g, compose(h, inverse(g))) for h in H)
                              for g in G))
    return classes


def naive_isomorphic(G: frozenset[RawPerm], H: frozenset[RawPerm],
                     degree_g: int, degree_h: int) -> dict[RawPerm, RawPerm] | None:
    """An isomorphism G → H as an element table, or None (feasible only for tiny groups).

    Tries every tuple of images of a generating sequence of G, each image of the
    same element order as its generator, extends it along a breadth-first
    spanning tree of G, and keeps the first table that is a bijective
    homomorphism.
    """
    if len(G) != len(H):
        return None
    seq: list[RawPerm] = []
    span = naive_closure([], degree_g)
    for x in sorted(G):
        if x not in span:
            seq.append(x)
            span = naive_closure(seq, degree_g)

    def order(x: RawPerm, degree: int) -> int:
        return len(naive_closure([x], degree))

    choices = [[y for y in sorted(H) if order(y, degree_h) == order(x, degree_g)]
               for x in seq]
    for images in product(*choices):
        table = naive_hom_table(seq, list(images), degree_g, degree_h)
        if len(set(table.values())) == len(H) and naive_is_homomorphism(table):
            return table
    return None


def naive_classes(G: frozenset[RawPerm]) -> list[frozenset[RawPerm]]:
    """Conjugacy classes ordered by their least element, by conjugating by all of G."""
    classes, seen = [], set()
    for x in sorted(G):
        if x not in seen:
            cls = frozenset(compose(g, compose(x, inverse(g))) for g in G)
            seen |= cls
            classes.append(cls)
    return classes


def _edge_checked_table(src_gens: list[RawPerm], img_gens: list[RawPerm],
                        degree_s: int, degree_t: int) -> dict[RawPerm, RawPerm] | None:
    """The spanning-tree table of gen ↦ image, or None unless every Cayley-graph
    edge s·x ↦ t·f(x) agrees with it."""
    table = naive_hom_table(src_gens, img_gens, degree_s, degree_t)
    for x, fx in table.items():
        for s, t in zip(src_gens, img_gens):
            if table[compose(s, x)] != compose(t, fx):
                return None
    return table


def _reference_dfs(seq, prefix_orders, buckets, degree_g, degree_h, images):
    k = len(images)
    for y in buckets[k]:
        trial = images + [y]
        table = _edge_checked_table(seq[:k + 1], trial, degree_g, degree_h)
        if table is None or len(set(table.values())) != prefix_orders[k]:
            continue
        if k + 1 == len(seq):
            return table
        found = _reference_dfs(seq, prefix_orders, buckets, degree_g, degree_h, trial)
        if found is not None:
            return found
    return None


def reference_isomorphism(G: frozenset[RawPerm], H: frozenset[RawPerm],
                          degree_g: int, degree_h: int) -> dict[RawPerm, RawPerm] | None:
    """The first isomorphism G → H, as an element table, in the fixed candidate
    order of `structure.isomorphic`, found by backtracking with no pre-filter.

    The generating sequence takes elements greedily in (−order, element) order;
    x_k's candidates are the members of H's classes with the element order and
    class size of x_k's class, class by class in order of least element, each
    class sorted.  A node is kept when its prefix table is an edge-checked
    bijection onto ⟨y_0..y_k⟩.
    """
    if len(G) != len(H):
        return None
    if len(G) == 1:
        return {tuple(range(degree_g)): tuple(range(degree_h))}

    g_classes, h_classes = naive_classes(G), naive_classes(H)

    def keys(classes: list[frozenset[RawPerm]]) -> dict[RawPerm, tuple[int, int]]:
        return {x: (naive_element_order(x), len(cls)) for cls in classes for x in cls}

    g_key, h_key = keys(g_classes), keys(h_classes)
    seq: list[RawPerm] = []
    prefix_orders: list[int] = []
    span = naive_closure([], degree_g)
    for _, x in sorted((-naive_element_order(x), x) for x in G):
        if len(span) == len(G):
            break
        if x not in span:
            seq.append(x)
            span = naive_closure(seq, degree_g)
            prefix_orders.append(len(span))
    buckets = [[y for cls in h_classes for y in sorted(cls) if h_key[y] == g_key[x]]
               for x in seq]
    return _reference_dfs(seq, prefix_orders, buckets, degree_g, degree_h, [])
