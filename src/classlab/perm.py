"""Permutation arithmetic and permutation-group construction.

Permutations are bijections of {0, ..., degree-1} stored as image tuples.
Every product is taken here, in C: `_right(b)` is the map a ↦ a∘b and
`_conjugator(g)` the map x ↦ g∘x∘g⁻¹, and a loop with a fixed factor builds
its map once.  Groups carry a stabilizer chain (base and strong generating
set) used for order and membership.  Results computed from a group's
elements, its sorted element list among them, are cached on the group by
`PermGroup.cached`, which refuses a group over the enumeration cap on every
call.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .config import DEFAULT_CAPS, Caps, cap_message
from .errors import CapExceeded, DegreeMismatch, InvalidInput, ParseError

RawPerm = tuple[int, ...]
T = TypeVar("T")


def _right(b: RawPerm) -> Callable[[RawPerm], RawPerm]:
    """The map a ↦ a∘b (apply b first), an `itemgetter` on b's images; at
    degree ≤ 1, where `itemgetter` returns a scalar or raises, the identity."""
    return itemgetter(*b) if len(b) > 1 else tuple


def _compose(a: RawPerm, b: RawPerm) -> RawPerm:
    """Image tuple of a∘b: apply b first, then a."""
    return _right(b)(a)


def _inverse(a: RawPerm) -> RawPerm:
    inv = [0] * len(a)
    for i, x in enumerate(a):
        inv[x] = i
    return tuple(inv)


def _conjugator(g: RawPerm) -> Callable[[RawPerm], RawPerm]:
    """The map x ↦ g∘x∘g⁻¹, with g⁻¹ formed once."""
    undo = _right(_inverse(g))
    return lambda x: undo(_right(x)(g))


def _identity(degree: int) -> RawPerm:
    return tuple(range(degree))


def _cycles(raw: RawPerm) -> list[tuple[int, ...]]:
    """Nontrivial cycles, each starting at its least point, sorted by that point."""
    seen = [False] * len(raw)
    out: list[tuple[int, ...]] = []
    for start in range(len(raw)):
        if seen[start] or raw[start] == start:
            continue
        cyc = [start]
        seen[start] = True
        x = raw[start]
        while x != start:
            cyc.append(x)
            seen[x] = True
            x = raw[x]
        out.append(tuple(cyc))
    return out


def _order(raw: RawPerm) -> int:
    return math.lcm(*(len(c) for c in _cycles(raw)))


def _place_blocks(degree: int, pieces: Iterable[tuple[int, RawPerm]]) -> RawPerm:
    """The permutation of {0, …, degree−1} acting as p on block i for each (i, p).

    Block i is the points i·d … i·d+d−1 with d = len(p); other points are fixed.
    """
    images = list(range(degree))
    for i, p in pieces:
        off = i * len(p)
        images[off:off + len(p)] = [off + x for x in p]
    return tuple(images)


def _lift_blocks(sigma: RawPerm, d: int, tail: RawPerm = ()) -> RawPerm:
    """The permutation carrying block i (of size d) onto block sigma[i] point by
    point, and acting as tail on the points after the last block."""
    off = len(sigma) * d
    return tuple([sigma[i] * d + p for i in range(len(sigma)) for p in range(d)]
                 + [off + x for x in tail])


def _restrict(raw: RawPerm, off: int, d: int) -> RawPerm:
    """The action of raw on the points off … off+d−1 (which it must preserve),
    shifted down to 0 … d−1."""
    return tuple(raw[off + p] - off for p in range(d))


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


@dataclass(frozen=True, order=True, slots=True)
class Permutation:
    """A bijection of {0, …, degree−1} given by its image tuple."""

    images: RawPerm

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(n)):
            raise InvalidInput(f"images {self.images!r} are not a bijection of 0..{n - 1}")

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(_identity(degree))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition: (self * other)(x) = self(other(x))."""
        if len(self.images) != len(other.images):
            raise DegreeMismatch("cannot compose permutations of different degrees")
        return Permutation(_compose(self.images, other.images))

    def inverse(self) -> "Permutation":
        return Permutation(_inverse(self.images))

    def is_identity(self) -> bool:
        return all(i == x for i, x in enumerate(self.images))

    def order(self) -> int:
        return _order(self.images)

    def parity(self) -> int:
        """0 for even, 1 for odd."""
        return sum(len(c) - 1 for c in _cycles(self.images)) % 2

    def __str__(self) -> str:
        return format_cycles(self.images)

    @classmethod
    def from_cycles(cls, text: str, degree: int) -> "Permutation":
        return cls(parse_cycles(text, degree))


def format_cycles(raw: RawPerm) -> str:
    """1-based cycle notation; the identity is written ``()``."""
    parts = _cycles(raw)
    if not parts:
        return "()"
    return "".join("(" + " ".join(str(p + 1) for p in cyc) + ")" for cyc in parts)


def parse_cycles(text: str, degree: int) -> RawPerm:
    """Parse 1-based cycle notation like ``(1 2 3)(4 5)``; whitespace-insensitive."""
    stripped = text.strip()
    if not stripped:
        raise ParseError("empty permutation text")
    leftover = _CYCLE_RE.sub("", stripped)
    if leftover.strip():
        raise ParseError(f"malformed cycle text {text!r}")
    images = list(range(degree))
    used: set[int] = set()
    bodies = _CYCLE_RE.findall(stripped)
    if not bodies:
        raise ParseError(f"malformed cycle text {text!r}")
    for body in bodies:
        tokens = [t for t in re.split(r"[\s,]+", body.strip()) if t]
        if not tokens:
            continue  # "()" — identity cycle
        try:
            points = [int(t) - 1 for t in tokens]
        except ValueError as exc:
            raise ParseError(f"non-integer point in cycle {body!r}") from exc
        for p in points:
            if not 0 <= p < degree:
                raise ParseError(f"point {p + 1} outside 1..{degree} in {text!r}")
            if p in used:
                raise ParseError(f"point {p + 1} repeated in {text!r}")
            used.add(p)
        for i, p in enumerate(points):
            images[p] = points[(i + 1) % len(points)]
    return tuple(images)


class _Level:
    __slots__ = ("point", "gens", "inverses", "checked")

    def __init__(self, point: int, ident: RawPerm):
        self.point = point
        self.gens: list[RawPerm] = []
        self.inverses: dict[int, RawPerm] = {point: ident}
        # Schreier generators verified so far, in scan order; None once gens
        # has outgrown the orbit in `inverses`.
        self.checked: int | None = 0


class StabChain:
    """Base and strong generating set, maintained by deterministic Schreier-Sims.

    Level i holds the strong generators fixing the first i base points, the
    orbit of base point i under them, and the inverse transversal: u⁻¹ for
    each orbit point x, where u is the transversal element with u(point) = x
    (the identity at the base point itself, so sifting skips that step).
    Sifting needs only the inverses; the u themselves are rebuilt on demand.
    Each level's generators generate that level's whole stabilizer, because
    later extends run Schreier-Sims on them.

    Two constructors build the chain of a group of known structure without
    sifting a Schreier generator.  A group generated on disjoint blocks has as
    its chain the block chains concatenated, each shifted onto its block
    (`from_blocks`); a level of block b then also carries the generators of
    every later block.  A split extension K ⋊ lift(T), with T acting on the
    last points and K fixing them, has T's chain lifted onto those points
    followed by K's chain (`from_split`).
    """

    def __init__(self, degree: int, gens: Iterable[RawPerm] = (), base_hint: Sequence[int] = ()):
        self.degree = degree
        self._ident = _identity(degree)
        self.levels: list[_Level] = [_Level(p, self._ident) for p in base_hint]
        for g in gens:
            self.extend(g)

    @classmethod
    def from_blocks(cls, degree: int, pieces: Sequence[tuple[int, "StabChain"]]) -> "StabChain":
        """The chain of the group generated by each block chain's group acting
        on its block, for (block index, block chain) pairs; block i is the
        points i·d … i·d+d−1, d the block chain's degree, and the base runs
        through the pieces in order.

        No Schreier generator is sifted.  Every level is left unchecked, so a
        later extend rescans it in full.
        """
        chain = cls(degree)
        later: list[RawPerm] = []
        for b, block in reversed(pieces):
            off = b * block.degree
            levels = []
            for lv in block.levels:
                nlv = _Level(off + lv.point, chain._ident)
                nlv.gens = [_place_blocks(degree, [(b, g)]) for g in lv.gens] + later
                nlv.inverses = {off + x: _place_blocks(degree, [(b, u)])
                                for x, u in lv.inverses.items()}
                nlv.checked = None
                levels.append(nlv)
            if levels:
                later = levels[0].gens
            chain.levels[:0] = levels
        return chain

    @classmethod
    def from_split(cls, degree: int, top: "StabChain",
                   lift: Callable[[RawPerm], RawPerm], kernel: "StabChain") -> "StabChain":
        """The chain of K ⋊ lift(T), for T = ⟨top⟩ acting on the last top.degree
        points, lift an injective homomorphism T → Sym(degree) that acts as T
        on those points, and K = ⟨kernel⟩ fixing them pointwise.

        T's levels come first, shifted onto those points: each inverse
        transversal entry u becomes lift(u), and each level carries the lifted
        level generators followed by K's, so it still generates its whole
        stabilizer K ⋊ lift(T_i).  A copy of K's levels follows.  The caller
        answers for the hypotheses.  No Schreier generator is sifted, and every
        level is left unchecked, so a later extend rescans it in full.
        """
        chain = cls(degree)
        off = degree - top.degree
        kgens = kernel.levels[0].gens if kernel.levels else []
        for lv in top.levels:
            nlv = _Level(off + lv.point, chain._ident)
            nlv.gens = [lift(g) for g in lv.gens] + kgens
            nlv.inverses = {off + x: lift(u) for x, u in lv.inverses.items()}
            chain.levels.append(nlv)
        chain.levels += kernel.copy().levels
        for lv in chain.levels:
            lv.checked = None
        return chain

    # -- queries ---------------------------------------------------------

    def base(self) -> list[int]:
        return [lv.point for lv in self.levels]

    def order(self) -> int:
        n = 1
        for lv in self.levels:
            n *= len(lv.inverses)
        return n

    def strip(self, g: RawPerm, start: int = 0) -> tuple[RawPerm, int]:
        """Sift g through levels ≥ start; return (residue, dropout level)."""
        for i in range(start, len(self.levels)):
            lv = self.levels[i]
            x = g[lv.point]
            uinv = lv.inverses.get(x)
            if uinv is None:
                return g, i
            # The base point's own entry is the identity.
            if x != lv.point:
                g = _compose(uinv, g)
        return g, len(self.levels)

    def contains(self, g: RawPerm) -> bool:
        if len(g) != self.degree:
            return False
        h, i = self.strip(g)
        return i == len(self.levels) and h == self._ident

    def iter_elements(self) -> Iterator[RawPerm]:
        """All elements, deterministically, as products of transversal members."""
        elements = [self._ident]
        for lv in self.levels:
            times = [_right(_inverse(lv.inverses[x])) for x in sorted(lv.inverses)]
            elements = [times_u(acc) for acc in elements for times_u in times]
        yield from elements

    def copy(self) -> "StabChain":
        other = StabChain(self.degree)
        for lv in self.levels:
            nlv = _Level(lv.point, self._ident)
            nlv.gens = list(lv.gens)
            nlv.inverses = dict(lv.inverses)
            nlv.checked = lv.checked
            other.levels.append(nlv)
        return other

    # -- construction ----------------------------------------------------

    def extend(self, g: RawPerm) -> bool:
        """Add one generator; returns True if the group grew."""
        if len(g) != self.degree:
            raise DegreeMismatch("generator degree differs from chain degree")
        h, j = self.strip(g)
        if h == self._ident:
            return False
        self._place(h, 0, j)
        self._schreier_sims()
        return True

    def _pick_point(self, h: RawPerm) -> int:
        for p, x in enumerate(h):
            if x != p:
                return p
        raise InvalidInput("identity residue has no moved point")

    def _place(self, h: RawPerm, lo: int, j: int) -> None:
        """Insert the residue h (fixing base points < j) at levels lo..j."""
        if j == len(self.levels):
            self.levels.append(_Level(self._pick_point(h), self._ident))
        for m in range(lo, j + 1):
            self.levels[m].gens.append(h)
            self.levels[m].checked = None

    def _recompute_orbit(self, i: int) -> None:
        """Rebuild level i's orbit and inverse transversal: u_y⁻¹ = u_x⁻¹ ∘ s⁻¹
        for y = s(x)."""
        lv = self.levels[i]
        times_inv = [_right(_inverse(s)) for s in lv.gens]
        inverses = {lv.point: self._ident}
        queue = [lv.point]
        qi = 0
        while qi < len(queue):
            x = queue[qi]
            qi += 1
            ux_inv = inverses[x]
            for s, times_s_inv in zip(lv.gens, times_inv):
                y = s[x]
                if y not in inverses:
                    inverses[y] = times_s_inv(ux_inv)
                    queue.append(y)
        lv.inverses = inverses
        lv.checked = 0

    def _first_failure(self, i: int) -> tuple[RawPerm, int] | None:
        """First Schreier generator of level i that does not sift to identity.

        The scan resumes after the pairs (t, s) already verified: levels below
        i only grow, so a pair that sifted to the identity still does.
        """
        lv = self.levels[i]
        ident, gens, points = self._ident, lv.gens, sorted(lv.inverses)
        for k in range(lv.checked, len(points) * len(gens)):
            t, s = points[k // len(gens)], gens[k % len(gens)]
            if k == lv.checked or k % len(gens) == 0:
                times_ut = _right(_inverse(lv.inverses[t]))
            sg = _compose(lv.inverses[s[t]], times_ut(s))
            if sg == ident:
                continue
            h, j = self.strip(sg, i + 1)
            if h != ident:
                lv.checked = k + 1
                return h, j
        lv.checked = len(points) * len(gens)
        return None

    def _schreier_sims(self) -> None:
        i = len(self.levels) - 1
        while i >= 0:
            if self.levels[i].checked is None:
                self._recompute_orbit(i)
            failure = self._first_failure(i)
            if failure is None:
                i -= 1
            else:
                h, j = failure
                self._place(h, i + 1, j)
                i = j


class PermGroup:
    """A finitely generated permutation group on {0, …, degree−1}.

    A constructor that already holds the stabilizer chain of ⟨generators⟩
    passes it as `chain`; otherwise the chain is built on first use.
    """

    def __init__(self, degree: int, generators: Iterable = (), name: str | None = None,
                 chain: StabChain | None = None):
        self.degree = degree
        gens: list[Permutation] = []
        seen: set[RawPerm] = set()
        for g in generators:
            p = self._coerce(g)
            if p.degree != degree:
                raise DegreeMismatch(
                    f"generator degree {p.degree} differs from group degree {degree}")
            if p.is_identity() or p.images in seen:
                continue
            seen.add(p.images)
            gens.append(p)
        self.generators: tuple[Permutation, ...] = tuple(gens)
        self.name = name
        self._chain = chain
        self._cache: dict = {}

    def _coerce(self, g) -> Permutation:
        if isinstance(g, Permutation):
            return g
        if isinstance(g, tuple):
            return Permutation(g)
        if isinstance(g, list):
            return Permutation(tuple(g))
        if isinstance(g, str):
            return Permutation.from_cycles(g, self.degree)
        raise InvalidInput(f"cannot interpret {g!r} as a permutation")

    # -- basics ----------------------------------------------------------

    def raw_gens(self) -> list[RawPerm]:
        return [g.images for g in self.generators]

    def chain(self) -> StabChain:
        if self._chain is None:
            self._chain = StabChain(self.degree, self.raw_gens())
        return self._chain

    def order(self) -> int:
        return self.chain().order()

    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)

    def contains(self, p) -> bool:
        q = self._coerce(p)
        if q.degree != self.degree:
            raise DegreeMismatch("membership test across different degrees")
        return self.chain().contains(q.images)

    def contains_raw(self, raw: RawPerm) -> bool:
        return self.chain().contains(raw)

    def cached(self, key, caps: Caps, compute: Callable[[], T]) -> T:
        """The value stored on this group under `key`, from `compute()` on the
        first call.

        Every call first raises CapExceeded when |G| exceeds `caps.enum_cap`,
        so a cap answers the same way whatever ran before: a value computed
        under larger caps is never returned under smaller ones.
        """
        n = self.order()
        if n > caps.enum_cap:
            raise CapExceeded(cap_message(caps, "enum_cap", "order", n))
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def raw_elements(self, caps: Caps = DEFAULT_CAPS) -> tuple[RawPerm, ...]:
        """All elements, sorted."""
        return self.cached("raw_elements", caps,
                           lambda: tuple(sorted(self.chain().iter_elements())))

    def elements(self, caps: Caps = DEFAULT_CAPS) -> tuple[Permutation, ...]:
        return tuple(Permutation(r) for r in self.raw_elements(caps))

    def element_set(self, caps: Caps = DEFAULT_CAPS) -> frozenset[RawPerm]:
        return frozenset(self.raw_elements(caps))

    # -- subgroup relations ---------------------------------------------

    def is_subgroup_of(self, other: "PermGroup") -> bool:
        if self.degree != other.degree:
            return False
        # A generator of other lies in other without a sift.
        own = set(other.raw_gens())
        return all(g in own or other.contains_raw(g) for g in self.raw_gens())

    def same_group(self, other: "PermGroup") -> bool:
        return (self.degree == other.degree and self.order() == other.order()
                and self.is_subgroup_of(other))

    def extended(self, extra_gens: Iterable) -> "PermGroup":
        """The group generated by this group together with extra generators,
        or this group itself when none of them is new.

        The extra generators extend a copy of the existing stabilizer chain
        by Schreier-Sims, so the chain is never rebuilt from nothing.
        """
        extras = [self._coerce(g) for g in extra_gens]
        chain = self.chain().copy()
        grew = False
        for p in extras:
            if chain.extend(p.images):
                grew = True
        if not grew:
            return self
        return PermGroup(self.degree, list(self.generators) + extras, chain=chain)

    def gen_strings(self) -> list[str]:
        return [str(g) for g in self.generators]

    def __repr__(self) -> str:
        chain = self._chain
        shown = str(chain.order()) if chain is not None else "?"
        label = f" {self.name!r}" if self.name else ""
        return f"<PermGroup{label} degree={self.degree} order={shown} gens={len(self.generators)}>"


def generate(gens: Iterable, degree: int, name: str | None = None) -> PermGroup:
    """The group generated by the given permutations (cycles strings accepted)."""
    return PermGroup(degree, gens, name=name)


def group_from_elements(degree: int, raws: Iterable[RawPerm]) -> PermGroup:
    """A group equal to the given element set, with a small generating set."""
    chain = StabChain(degree)
    gens: list[RawPerm] = []
    for raw in sorted(raws):
        if chain.extend(raw):
            gens.append(raw)
    return PermGroup(degree, gens, chain=chain)


def _pointwise_stabilizer(degree: int, gens: Iterable[RawPerm],
                          points: Sequence[int]) -> list[RawPerm]:
    """Strong generators of the subgroup of ⟨gens⟩ fixing each of points, read
    from a chain whose base starts with those points."""
    chain = StabChain(degree, gens, base_hint=points)
    k = len(points)
    return chain.levels[k].gens if len(chain.levels) > k else []


def point_stabilizer(G: PermGroup, point: int) -> PermGroup:
    """The stabilizer of a point, from a chain based at that point."""
    if not 0 <= point < G.degree:
        raise InvalidInput(f"point {point} outside 0..{G.degree - 1}")
    return PermGroup(G.degree, _pointwise_stabilizer(G.degree, G.raw_gens(), [point]))


# ---------------------------------------------------------------------------
# Homomorphisms


class GroupHom:
    """A homomorphism between permutation groups, defined on the source generators.

    An optional pointwise callable computes images directly; when only the
    callable is given, the generator images are read off it, so the two can
    never disagree.  Images are coerced like `PermGroup` generators (a
    `Permutation`, an image tuple or list, or cycle text).  Everything else
    reads the graph subgroup Δ = ⟨(g, θ(g))⟩ on the source points followed by
    the target points, with a chain based first at the source's base: the
    generator images extend to a homomorphism exactly when |Δ| = |source|,
    the kernel is the pointwise stabilizer of the target points, and θ(x) is
    the target part of the residue of (x⁻¹, 1).  No element of the source is
    listed, so the source need not be enumerable.
    """

    def __init__(self, source: PermGroup, target: PermGroup,
                 gen_images: Sequence | None = None,
                 map_fn: Callable[[RawPerm], RawPerm] | None = None,
                 kernel: PermGroup | None = None):
        if gen_images is None:
            if map_fn is None:
                raise InvalidInput("a homomorphism needs generator images or a map")
            gen_images = [map_fn(g) for g in source.raw_gens()]
        if len(gen_images) != len(source.generators):
            raise InvalidInput("one image per source generator is required")
        images = tuple(target._coerce(img) for img in gen_images)
        if any(img.degree != target.degree for img in images):
            raise DegreeMismatch("generator image degree differs from target degree")
        self.source = source
        self.target = target
        self.gen_images: tuple[Permutation, ...] = images
        self._map_fn = map_fn
        self._kernel = kernel
        self._image: PermGroup | None = None
        self._delta: StabChain | None = None

    def _graph_gens(self) -> list[RawPerm]:
        d = self.source.degree
        return [g + tuple(d + x for x in t.images)
                for g, t in zip(self.source.raw_gens(), self.gen_images)]

    def _graph(self) -> StabChain:
        if self._delta is None:
            self._delta = StabChain(self.source.degree + self.target.degree,
                                    self._graph_gens(),
                                    base_hint=self.source.chain().base())
        return self._delta

    def _hom_graph(self) -> StabChain:
        if not self.is_multiplicative():
            raise InvalidInput("generator images do not define a homomorphism")
        return self._graph()

    def apply_raw(self, raw: RawPerm) -> RawPerm:
        d = self.source.degree
        if len(raw) != d:
            raise DegreeMismatch(
                f"argument degree {len(raw)} differs from source degree {d}")
        if self._map_fn is not None:
            return self._map_fn(raw)
        delta = self._hom_graph()
        residue, _ = delta.strip(_inverse(raw) + tuple(range(d, delta.degree)))
        if residue[:d] != _identity(d):
            raise InvalidInput("element is not in the homomorphism's source")
        return tuple(x - d for x in residue[d:])

    def apply(self, p: Permutation) -> Permutation:
        return Permutation(self.apply_raw(p.images))

    def image(self) -> PermGroup:
        if self._image is None:
            self._image = PermGroup(self.target.degree, self.gen_images)
        return self._image

    def kernel(self) -> PermGroup:
        if self._kernel is None:
            delta = self._hom_graph()
            d = self.source.degree
            gens = _pointwise_stabilizer(delta.degree, self._graph_gens(),
                                         range(d, delta.degree))
            self._kernel = PermGroup(d, [g[:d] for g in gens])
        return self._kernel

    def is_multiplicative(self) -> bool:
        """True iff the generator images extend to a homomorphism: |Δ| = |source|."""
        return self._graph().order() == self.source.order()

    def is_isomorphism_onto(self, K: PermGroup) -> bool:
        """True iff the generator images lie in K, extend to a homomorphism and
        generate K, and the source has K's order."""
        return (self.source.order() == K.order()
                and all(K.contains_raw(img.images) for img in self.gen_images)
                and self.is_multiplicative()
                and self.image().order() == K.order())


def identity_hom(G: PermGroup) -> GroupHom:
    return GroupHom(G, G, map_fn=lambda raw: raw, kernel=trivial_group(G.degree))


def trivial_group(degree: int) -> PermGroup:
    return PermGroup(degree, [])


def induced_map(src_gens: list[RawPerm], img_gens: list[RawPerm],
                src_degree: int, img_degree: int,
                limit: int) -> dict[RawPerm, RawPerm] | None:
    """The map ⟨src_gens⟩ → images extending gen ↦ image, or None if inconsistent.

    Walks the Cayley graph of the source; every edge is checked, so a returned
    table is guaranteed multiplicative.
    """
    table: dict[RawPerm, RawPerm] = {_identity(src_degree): _identity(img_degree)}
    queue: list[RawPerm] = [_identity(src_degree)]
    qi = 0
    while qi < len(queue):
        x = queue[qi]
        qi += 1
        times_x, times_fx = _right(x), _right(table[x])
        for g, fg in zip(src_gens, img_gens):
            y = times_x(g)
            fy = times_fx(fg)
            prev = table.get(y)
            if prev is None:
                if len(table) >= limit:
                    raise CapExceeded(f"homomorphism table exceeds limit {limit}")
                table[y] = fy
                queue.append(y)
            elif prev != fy:
                return None
    return table


# ---------------------------------------------------------------------------
# Constructions


def block_product(degree: int, pieces: Sequence[tuple[int, PermGroup]]) -> PermGroup:
    """The group generated by each piece's group acting on its block, for
    (block index, group) pairs; block i is the points i·d … i·d+d−1, d the
    group's degree.  Generators run through the pieces in order, and the
    chain is built by construction (`StabChain.from_blocks`)."""
    return PermGroup(degree, [_place_blocks(degree, [(i, g)])
                              for i, P in pieces for g in P.raw_gens()],
                     chain=StabChain.from_blocks(degree, [(i, P.chain()) for i, P in pieces]))


def _block_embedding(G0: PermGroup, P: PermGroup, i: int) -> GroupHom:
    """G0 → P placing G0's points on block i of P's points."""
    return GroupHom(G0, P, map_fn=lambda raw: _place_blocks(P.degree, [(i, raw)]))


def direct_power(G0: PermGroup, n: int) -> PermGroup:
    """G0^n acting on n disjoint copies of G0's points, coordinate 0 first.

    Coordinate embeddings are recorded on the result as `coordinate_embeddings`.
    """
    if n < 1:
        raise InvalidInput("direct power requires n >= 1")
    P = block_product(n * G0.degree, [(i, G0) for i in range(n)])
    P.coordinate_embeddings = [_block_embedding(G0, P, i) for i in range(n)]
    return P


def _coset_index(G: PermGroup, S: PermGroup
                 ) -> tuple[list[RawPerm], list[RawPerm], Callable[[RawPerm], int]]:
    """Left-coset representatives r of S in G, their inverses r⁻¹, and y ↦ index of y⁻¹S.

    Representatives are found breadth-first from the identity, which comes
    first.  A coset is keyed by the inverse of its canonical element, read
    off S's stabilizer chain: at each level, among the orbit points δ pick
    the one with the least image x(δ), and replace x by x ∘ u_δ.  The result
    is the element of xS whose images of S's base points are least in turn;
    no element of S is listed.  The walk runs on y = x⁻¹, formed as
    (g ∘ r)⁻¹ = r⁻¹ ∘ g⁻¹.  An element outside G raises InvalidInput.
    """
    if not S.is_subgroup_of(G):
        raise InvalidInput("coset transversal requires S <= G")
    levels = [(lv.point, lv.inverses) for lv in S.chain().levels if len(lv.inverses) > 1]

    def key_of(y: RawPerm) -> RawPerm:
        # y = x⁻¹: the least x(δ) is the first p with y(p) in the orbit.  The
        # base point's own entry is the identity.
        for point, inverses in levels:
            for delta in y:
                if delta in inverses:
                    if delta != point:
                        y = _compose(inverses[delta], y)
                    break
        return y

    ident = _identity(G.degree)
    reps: list[RawPerm] = [ident]
    rep_inverses: list[RawPerm] = [ident]
    slot: dict[RawPerm, int] = {key_of(ident): 0}
    gens = G.raw_gens()
    times_inv = [_right(_inverse(g)) for g in gens]
    qi = 0
    while qi < len(reps):
        r, r_inv = reps[qi], rep_inverses[qi]
        qi += 1
        for g, times_g_inv in zip(gens, times_inv):
            y = times_g_inv(r_inv)
            key = key_of(y)
            if key not in slot:
                slot[key] = len(reps)
                reps.append(_compose(g, r))
                rep_inverses.append(y)
    if len(reps) != G.order() // S.order():
        raise InvalidInput("transversal size does not match the index")

    def index_of_inverse(y: RawPerm) -> int:
        j = slot.get(key_of(y))
        if j is None:
            raise InvalidInput("element maps outside the coset space")
        return j

    return reps, rep_inverses, index_of_inverse


def coset_action(G: PermGroup, S: PermGroup, kernel: PermGroup | None = None) -> GroupHom:
    """The left-translation action of G on the left cosets of S.

    Returns the homomorphism onto its image; coset representatives are
    recorded on the homomorphism as `coset_reps` (identity coset first).
    """
    reps, rep_inverses, index_of_inverse = _coset_index(G, S)

    def act(raw: RawPerm) -> RawPerm:
        times_inv = _right(_inverse(raw))
        return tuple(index_of_inverse(times_inv(r_inv)) for r_inv in rep_inverses)

    gen_images = [Permutation(act(g)) for g in G.raw_gens()]
    image = PermGroup(len(reps), gen_images)
    hom = GroupHom(G, image, gen_images, map_fn=act, kernel=kernel)
    hom.coset_reps = [Permutation(r) for r in reps]
    return hom


def regular_representation(G: PermGroup, caps: Caps = DEFAULT_CAPS) -> GroupHom:
    """The left-regular action of G on its own (sorted) element list."""
    elems = G.raw_elements(caps)
    index = {e: i for i, e in enumerate(elems)}
    times = [_right(e) for e in elems]

    def act(raw: RawPerm) -> RawPerm:
        return tuple(index[times_e(raw)] for times_e in times)

    gen_images = [Permutation(act(g)) for g in G.raw_gens()]
    image = PermGroup(len(elems), gen_images)
    return GroupHom(G, image, gen_images, map_fn=act, kernel=trivial_group(G.degree))


@dataclass
class WreathProduct:
    """Γ = G0^N ⋊ Gn with Gn permuting coordinates via its coset action.

    The permutation action uses N disjoint copies of G0's points (coordinate 0
    first) followed by Gn's own points, which keeps the top factor faithful.
    """

    group: PermGroup
    g0: PermGroup
    gn: PermGroup
    gsub: PermGroup
    n_coords: int
    base: PermGroup
    top: GroupHom
    coset_hom: GroupHom

    def coordinate_embedding(self, i: int) -> GroupHom:
        if not 0 <= i < self.n_coords:
            raise InvalidInput(f"coordinate {i} outside 0..{self.n_coords - 1}")
        return _block_embedding(self.g0, self.group, i)

    def top_lift(self, h) -> Permutation:
        """The canonical lift of h ∈ Gn: permute blocks, act naturally on the tail."""
        raw = self.gn._coerce(h).images
        if not self.gn.contains_raw(raw):
            raise InvalidInput("top_lift argument is not in the top group")
        return Permutation(_lift_blocks(self.coset_hom.apply_raw(raw), self.g0.degree, raw))


def wreath_by_cosets(G0: PermGroup, Gn: PermGroup, G_sub: PermGroup,
                     caps: Caps = DEFAULT_CAPS) -> WreathProduct:
    """The split extension of G0^N by Gn, N = [Gn : G_sub], coordinates = cosets.

    Coordinate 0 corresponds to the coset of G_sub itself.  Γ is generated by
    the base generators followed by the top lifts, and its chain is built by
    construction (`StabChain.from_split`): Gn's levels on the tail, then the
    base's block chain.  That chain is valid when the base is normal in Γ and
    the coset map is a homomorphism; `build_realization` certifies both.
    """
    if not G_sub.is_subgroup_of(Gn):
        raise InvalidInput("G_sub must be a subgroup of Gn")
    n = Gn.order() // G_sub.order()
    if n > caps.coord_cap:
        raise CapExceeded(cap_message(caps, "coord_cap", "coordinate count", n))
    cos = coset_action(Gn, G_sub)
    d0, dn = G0.degree, Gn.degree
    degree = n * d0 + dn

    def lift(g: RawPerm) -> RawPerm:
        return _lift_blocks(cos.apply_raw(g), d0, g)

    base = block_product(degree, [(i, G0) for i in range(n)])
    group = PermGroup(degree, list(base.generators) + [lift(g) for g in Gn.raw_gens()],
                      chain=StabChain.from_split(degree, Gn.chain(), lift, base.chain()))
    top = GroupHom(group, Gn, map_fn=lambda raw: _restrict(raw, n * d0, dn), kernel=base)
    W = WreathProduct(group=group, g0=G0, gn=Gn, gsub=G_sub, n_coords=n,
                      base=base, top=top, coset_hom=cos)
    return W
