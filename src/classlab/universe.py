"""A catalog of small-group isomorphism representatives.

The catalog is the quantification domain for every universe-relative claim:
it holds one representative per isomorphism class, built from the subgroups
of a symmetric group plus named extras, and persists to a diffable text file.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from .config import DEFAULT_CAPS, Caps
from .errors import CapExceeded, InvalidInput, ParseError
from .perm import PermGroup, Permutation, generate, trivial_group
from .structure import (IsoTypes, fingerprint, is_abelian, is_cyclic, isomorphic,
                        subgroup_classes, subgroups)

FORMAT_VERSION = "classlab-universe v1"


# ---------------------------------------------------------------------------
# Named constructors


def cyclic(n: int) -> PermGroup:
    if n < 1:
        raise InvalidInput("cyclic group needs n >= 1")
    if n == 1:
        return trivial_group(1)
    return generate([Permutation(tuple(list(range(1, n)) + [0]))], n, name=f"C{n}")


def symmetric(n: int) -> PermGroup:
    if n < 1:
        raise InvalidInput("symmetric group needs n >= 1")
    if n == 1:
        return trivial_group(1)
    gens = [Permutation(tuple([1, 0] + list(range(2, n))))]
    if n > 2:
        gens.append(Permutation(tuple(list(range(1, n)) + [0])))
    return generate(gens, n, name=f"S{n}")


def alternating(n: int) -> PermGroup:
    if n < 1:
        raise InvalidInput("alternating group needs n >= 1")
    if n <= 2:
        return trivial_group(max(n, 1))
    gens = [Permutation(tuple([1, 2, 0] + list(range(3, n))))]
    if n > 3:
        cycle = list(range(1, n)) + [0] if n % 2 == 1 else [0] + list(range(2, n)) + [1]
        gens.append(Permutation(tuple(cycle)))
    return generate(gens, n, name=f"A{n}")


def dihedral(order: int) -> PermGroup:
    """The dihedral group of the given order 2n (n ≥ 3), on n points."""
    if order < 6 or order % 2 != 0:
        raise InvalidInput("dihedral constructor needs an even order >= 6")
    n = order // 2
    rotation = Permutation(tuple(list(range(1, n)) + [0]))
    reflection = Permutation(tuple([0] + list(range(n - 1, 0, -1))))
    return generate([rotation, reflection], n, name=f"D{order}")


def klein_four() -> PermGroup:
    return generate(["(1 2)(3 4)", "(1 3)(2 4)"], 4, name="V4")


def quaternion() -> PermGroup:
    """Q₈ in its regular representation."""
    return generate(["(1 2 3 4)(5 6 7 8)", "(1 5 3 7)(2 8 4 6)"], 8, name="Q8")


def special_linear(p: int) -> PermGroup:
    """SL(2,p) acting on the p²−1 nonzero vectors of F_p²."""
    vecs = [(a, b) for a in range(p) for b in range(p) if (a, b) != (0, 0)]
    index = {v: i for i, v in enumerate(vecs)}

    def act(matrix: tuple[int, int, int, int]) -> Permutation:
        m00, m01, m10, m11 = matrix
        images = [0] * len(vecs)
        for i, (a, b) in enumerate(vecs):
            images[i] = index[((m00 * a + m01 * b) % p, (m10 * a + m11 * b) % p)]
        return Permutation(tuple(images))

    s = act((0, p - 1, 1, 0))
    t = act((1, 1, 0, 1))
    return generate([s, t], len(vecs), name=f"SL2{p}")


# ---------------------------------------------------------------------------
# Group-spec parsing and name recognition

_PERM_RE = re.compile(r"^perm(\d+)\[(.*)\]$")


def parse_group_spec(text: str) -> PermGroup:
    """Resolve a textual group spec: C<n>, S<n>, A<n>, D<2n>, Q8, SL23, SL25, V4,
    or perm<d>[<cycles>;…]."""
    spec = text.strip()
    if not spec:
        raise ParseError("empty group spec")
    m = _PERM_RE.match(spec)
    if m:
        degree = int(m.group(1))
        if degree < 1 or degree > 128:
            raise ParseError(f"degree {degree} outside 1..128 in {text!r}")
        body = m.group(2).strip()
        gens = [s for s in (part.strip() for part in body.split(";")) if s]
        return generate(gens, degree)
    name = spec.upper()
    if name == "Q8":
        return quaternion()
    if name == "V4":
        return klein_four()
    if name == "SL23":
        return special_linear(3)
    if name == "SL25":
        return special_linear(5)
    m = re.match(r"^([CSAD])(\d+)$", name)
    if not m:
        raise ParseError(f"unknown group spec {text!r}")
    kind, n = m.group(1), int(m.group(2))
    if n > 128:
        raise ParseError(f"parameter {n} too large in {text!r}")
    if kind == "C":
        return cyclic(n)
    if kind == "S":
        return symmetric(n)
    if kind == "A":
        return alternating(n)
    return dihedral(n)


def recognize_name(G: PermGroup, caps: Caps = DEFAULT_CAPS) -> str | None:
    """A conventional name for the group's iso-type, if it has one here.

    A group too large to compare within the caps gets no name.
    """
    n = G.order()
    if n == 1:
        return "C1"
    try:
        if is_cyclic(G, caps):
            return f"C{n}"
    except CapExceeded:
        return None
    if n == 4 and is_abelian(G):
        return "V4"
    if n > caps.iso_cap:
        return None  # before building the candidates: D_n alone has n/2 points
    candidates: list[tuple[str, PermGroup]] = []
    for k in range(3, 8):
        fact = 1
        for i in range(2, k + 1):
            fact *= i
        if fact == n:
            candidates.append((f"S{k}", symmetric(k)))
        if fact // 2 == n and k >= 4:
            candidates.append((f"A{k}", alternating(k)))
    if n == 8:
        candidates.append(("Q8", quaternion()))
    if n == 24:
        candidates.append(("SL23", special_linear(3)))
    if n == 120:
        candidates.append(("SL25", special_linear(5)))
    if n % 2 == 0 and n >= 6:
        candidates.append((f"D{n}", dihedral(n)))
    for name, H in candidates:
        try:
            if isomorphic(G, H, caps) is not None:
                return name
        except CapExceeded:
            return None
    return None


# ---------------------------------------------------------------------------
# Catalog


@dataclass
class CatalogEntry:
    name: str
    group: PermGroup
    fingerprint: tuple


@dataclass
class Catalog:
    entries: list[CatalogEntry]
    provenance: dict
    version: str = FORMAT_VERSION

    def groups(self) -> list[PermGroup]:
        return [e.group for e in self.entries]

    def names(self) -> list[str]:
        return [e.name for e in self.entries]

    def find(self, name: str) -> CatalogEntry | None:
        for e in self.entries:
            if e.name == name:
                return e
        return None

    def __len__(self) -> int:
        return len(self.entries)


DEFAULT_SYM_DEGREE = 5


def default_extras(sym_degree: int = DEFAULT_SYM_DEGREE) -> list[str]:
    extras = [f"C{n}" for n in range(8, 33)]
    extras += ["D8", "D10", "D12", "Q8", "SL23", "SL25"]
    if sym_degree < 6:
        extras.append("A6")
    return extras


def build_universe(sym_degree: int = DEFAULT_SYM_DEGREE,
                   extras: list[str] | None = None,
                   caps: Caps = DEFAULT_CAPS) -> Catalog:
    """All subgroups of S_d up to isomorphism, plus deduplicated named extras."""
    if sym_degree < 1 or sym_degree > 6:
        raise InvalidInput("supported symmetric degrees are 1..6")
    if extras is None:
        extras = default_extras(sym_degree)

    # A conjugate is isomorphic to the first member of its class, which is a
    # representative or matched one, so it would add no type.
    types = IsoTypes(caps)
    Sd = symmetric(sym_degree)
    subs = subgroups(Sd, caps=caps)
    first = subgroup_classes(Sd, caps)
    for pos, S in enumerate(subs):
        if first[pos] == pos:
            types.id_of(S)
    for spec in extras:
        types.id_of(parse_group_spec(spec))

    decorated = sorted(
        ((G.order(), fingerprint(G, caps), ";".join(G.gen_strings()), G) for G in types.reps),
        key=lambda t: t[:3])
    entries: list[CatalogEntry] = []
    unnamed_rank: dict[int, int] = {}
    for order, fp, _, G in decorated:
        name = recognize_name(G, caps)
        if name is None:
            unnamed_rank[order] = unnamed_rank.get(order, 0) + 1
            name = f"G{order}x{unnamed_rank[order]}"
        entries.append(CatalogEntry(name, G, fp))
    provenance = {"sym_degree": sym_degree, "extras": list(extras)}
    return Catalog(entries, provenance)


def save_catalog(catalog: Catalog, path: str) -> None:
    lines = [catalog.version,
             "spec sym_degree={} extras={}".format(
                 catalog.provenance["sym_degree"],
                 ",".join(catalog.provenance["extras"]))]
    for e in catalog.entries:
        gens = ";".join(e.group.gen_strings()) or "-"
        lines.append(f"{e.name} {e.group.degree} {gens}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_catalog(path: str, caps: Caps = DEFAULT_CAPS) -> Catalog:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or lines[0] != FORMAT_VERSION:
        raise ParseError(f"unsupported catalog header in {path}")
    m = re.match(r"^spec sym_degree=(\d+) extras=(.*)$", lines[1] if len(lines) > 1 else "")
    if not m:
        raise ParseError(f"missing catalog spec line in {path}")
    provenance = {"sym_degree": int(m.group(1)),
                  "extras": [e for e in m.group(2).split(",") if e]}
    entries = []
    for ln in lines[2:]:
        if not ln.strip():
            continue
        parts = ln.split(" ", 2)
        if len(parts) != 3:
            raise ParseError(f"malformed catalog entry {ln!r}")
        name, degree_text, gen_text = parts
        try:
            degree = int(degree_text)
        except ValueError as exc:
            raise ParseError(f"bad degree in catalog entry {ln!r}") from exc
        gens = [] if gen_text == "-" else [g for g in gen_text.split(";") if g]
        G = generate(gens, degree, name=name)
        entries.append(CatalogEntry(name, G, fingerprint(G, caps)))
    return Catalog(entries, provenance)
