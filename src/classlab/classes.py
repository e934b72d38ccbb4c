"""Group-class calculus: class expressions, membership, duals, audits.

A class expression denotes an isomorphism-closed collection of finite groups
as a decidable predicate.  The dual of a class C contains the groups none of
whose proper normal subgroups has quotient in C; the associated class of C
contains the groups built by iterated extensions with C-quotients.  Audits
check the closure properties (subgroups, quotients, extensions, fibered
products) relative to a finite catalog, and every such verdict is explicitly
catalog-relative.
"""
from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field

from .config import DEFAULT_CAPS, Caps
from .errors import CapExceeded, InvalidInput, ParseError
from .perm import PermGroup
from .structure import (
    is_abelian,
    is_cyclic,
    is_nilpotent,
    is_p_group,
    is_simple,
    is_solvable,
    isomorphic,
    fingerprint,
    normal_subgroups,
    quotient,
    radical_factorization,
    subgroup_classes,
    subgroups,
    _is_prime,
    _prime_factors,
)
from .universe import Catalog, alternating, parse_group_spec


# ---------------------------------------------------------------------------
# Expression nodes


class ClassExpr:
    """Base for class-expression nodes; subclasses are frozen dataclasses.

    `text()` is canonical and re-parsable, so equal texts denote the same
    class; `ClassEval` keys its memo by it.
    """

    def text(self) -> str:
        raise NotImplementedError

    def __str__(self) -> str:
        return self.text()


def _atom(kind: str):
    class Node(ClassExpr):
        __slots__ = ()

        def text(self):
            return kind

        def __eq__(self, other):
            return type(other) is type(self)

        def __hash__(self):
            return hash((kind,))

    Node.__name__ = kind.capitalize()
    return Node


Trivial = _atom("trivial")
All = _atom("all")
Abelian = _atom("abelian")
Cyclic = _atom("cyclic")
Nilpotent = _atom("nilpotent")
Solvable = _atom("solvable")
Simple = _atom("simple")


@dataclass(frozen=True)
class PGroup(ClassExpr):
    p: int

    def __post_init__(self):
        if not _is_prime(self.p):
            raise InvalidInput(f"{self.p} is not prime")

    def text(self):
        return f"p({self.p})"


@dataclass(frozen=True)
class Pi(ClassExpr):
    primes: tuple[int, ...]

    def __post_init__(self):
        for p in self.primes:
            if not _is_prime(p):
                raise InvalidInput(f"{p} is not prime")

    def text(self):
        return "pi({})".format(",".join(str(p) for p in sorted(set(self.primes))))


@dataclass(frozen=True)
class OrderAtMost(ClassExpr):
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise InvalidInput(f"le({self.n}) needs n >= 1")

    def text(self):
        return f"le({self.n})"


@dataclass(frozen=True)
class AltGE(ClassExpr):
    """Alternating groups A_m for m ≥ n, together with the trivial group."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise InvalidInput(f"altge({self.n}) needs n >= 1")

    def text(self):
        return f"altge({self.n})"


@dataclass(frozen=True)
class FiniteSet(ClassExpr):
    specs: tuple[str, ...]

    def text(self):
        return "set({})".format(",".join(self.specs))


@dataclass(frozen=True)
class Union(ClassExpr):
    a: ClassExpr
    b: ClassExpr

    def text(self):
        return f"union({self.a.text()},{self.b.text()})"


@dataclass(frozen=True)
class Intersect(ClassExpr):
    a: ClassExpr
    b: ClassExpr

    def text(self):
        return f"inter({self.a.text()},{self.b.text()})"


@dataclass(frozen=True)
class Dual(ClassExpr):
    a: ClassExpr

    def text(self):
        return f"dual({self.a.text()})"


@dataclass(frozen=True)
class Hat(ClassExpr):
    a: ClassExpr

    def text(self):
        return f"hat({self.a.text()})"


@dataclass(frozen=True)
class DualIter(ClassExpr):
    a: ClassExpr
    k: int

    def __post_init__(self):
        if self.k < 0:
            raise InvalidInput("dual iteration count must be >= 0")

    def text(self):
        return f"dualn({self.a.text()},{self.k})"


# ---------------------------------------------------------------------------
# Grammar


_ATOMS = {
    "trivial": Trivial,
    "all": All,
    "abelian": Abelian,
    "cyclic": Cyclic,
    "nilpotent": Nilpotent,
    "solvable": Solvable,
    "simple": Simple,
}


def parse_class_expr(text: str) -> ClassExpr:
    """Parse the class grammar, e.g. ``dual(union(set(C4,Q8),p(2)))``."""
    expr, pos = _parse_expr(text, 0)
    if text[pos:].strip():
        raise ParseError(f"trailing input {text[pos:]!r} in class expression")
    return expr


def _skip_ws(text: str, pos: int) -> int:
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


def _parse_expr(text: str, pos: int) -> tuple[ClassExpr, int]:
    pos = _skip_ws(text, pos)
    start = pos
    while pos < len(text) and (text[pos].isalnum() or text[pos] == "_"):
        pos += 1
    name = text[start:pos].lower()
    if not name:
        raise ParseError(f"expected a class name at position {start} in {text!r}")
    pos = _skip_ws(text, pos)
    has_args = pos < len(text) and text[pos] == "("

    if name in _ATOMS:
        if has_args:
            raise ParseError(f"class {name!r} takes no arguments")
        return _ATOMS[name](), pos
    if name == "fnr":
        if has_args:
            raise ParseError("class 'fnr' takes no arguments")
        return Dual(Solvable()), pos

    if not has_args:
        raise ParseError(f"unknown class name {name!r}")
    args, pos = _parse_args(text, pos)

    def ints(n_expected: int) -> list[int]:
        if len(args) != n_expected:
            raise ParseError(f"{name} expects {n_expected} argument(s)")
        out = []
        for a in args:
            try:
                out.append(int(a.strip()))
            except ValueError:
                raise ParseError(f"non-integer argument {a!r} for {name}") from None
        return out

    try:
        if name == "p":
            return PGroup(ints(1)[0]), pos
        if name == "pi":
            if not args or not all(a.strip() for a in args):
                raise ParseError("pi expects at least one prime")
            return Pi(tuple(int(a.strip()) for a in args)), pos
        if name == "le":
            return OrderAtMost(ints(1)[0]), pos
        if name == "altge":
            return AltGE(ints(1)[0]), pos
    except InvalidInput as exc:
        raise ParseError(str(exc)) from None
    except ValueError:
        raise ParseError(f"non-integer argument for {name}") from None
    if name == "set":
        specs = tuple(a.strip() for a in args if a.strip())
        if not specs:
            raise ParseError("set(...) needs at least one group spec")
        canonical = tuple(_canonical_spec(s) for s in specs)
        for spec in canonical:
            parse_group_spec(spec)
        return FiniteSet(canonical), pos
    if name in ("union", "inter"):
        if len(args) != 2:
            raise ParseError(f"{name} expects 2 arguments")
        a = parse_class_expr(args[0])
        b = parse_class_expr(args[1])
        return (Union(a, b) if name == "union" else Intersect(a, b)), pos
    if name == "dual":
        if len(args) != 1:
            raise ParseError("dual expects 1 argument")
        return Dual(parse_class_expr(args[0])), pos
    if name == "hat":
        if len(args) != 1:
            raise ParseError("hat expects 1 argument")
        return Hat(parse_class_expr(args[0])), pos
    if name == "dualn":
        if len(args) != 2:
            raise ParseError("dualn expects 2 arguments")
        inner = parse_class_expr(args[0])
        try:
            k = int(args[1].strip())
        except ValueError:
            raise ParseError(f"non-integer depth {args[1]!r} for dualn") from None
        if k < 0:
            raise ParseError("dualn depth must be >= 0")
        return DualIter(inner, k), pos
    raise ParseError(f"unknown class name {name!r}")


def _parse_args(text: str, pos: int) -> tuple[list[str], int]:
    assert text[pos] == "("
    depth = 0
    args: list[str] = []
    buf: list[str] = []
    i = pos
    while i < len(text):
        ch = text[i]
        if ch == "(":
            depth += 1
            if depth > 1:
                buf.append(ch)
        elif ch == ")":
            depth -= 1
            if depth == 0:
                args.append("".join(buf))
                return args, i + 1
            buf.append(ch)
        elif ch == "," and depth == 1:
            args.append("".join(buf))
            buf = []
        else:
            buf.append(ch)
        i += 1
    raise ParseError(f"unbalanced parentheses in {text!r}")


def _canonical_spec(spec: str) -> str:
    if spec.lower().startswith("perm"):
        return spec
    return spec.upper()


# ---------------------------------------------------------------------------
# Evaluation


@dataclass
class AuditReport:
    """Outcome of one closure-property audit, relative to a catalog."""

    property_name: str
    class_text: str
    holds: bool
    counterexamples: list[dict]
    skipped: list[dict] = field(default_factory=list)
    domain: str = ""

    def to_json_dict(self) -> dict:
        return {
            "property": self.property_name,
            "class": self.class_text,
            "holds": self.holds,
            "counterexamples": self.counterexamples,
            "skipped": self.skipped,
            "domain": self.domain,
        }


class ClassEval:
    """Membership evaluator with iso-type memoization.

    Groups are canonicalized to iso-type ids.  A group equal to one seen
    before as a subgroup of Sym(n) takes its id through the identity map,
    with no search: either its degree and generator tuple equal those of any
    group seen before, or it has the degree and order of a representative
    whose generators it contains.  Any other group goes through a
    fingerprint-bucketed registry, where a bucket hit is confirmed by a
    certified isomorphism before the id is shared, so fingerprint collisions
    can never leak results across genuinely different groups.

    Membership is evaluated on the registry's representative of the id (the
    first group seen of that type; classes are isomorphism-closed), so its
    lattice and quotients serve every copy.  `member_trace`, `dual_witness`
    and `hat_series` still read witnesses and series off the queried group
    itself.  Per-group state is keyed weakly, so of the groups only the one
    representative per iso type outlives its caller; the (degree, generator
    tuple) of every group seen is kept, so a fresh parse of a group seen
    before, or a copy of it, takes its id with no work.
    """

    def __init__(self, caps: Caps = DEFAULT_CAPS):
        self.caps = caps
        # fingerprint ↦ the ids of the iso types in that bucket
        self._registry: dict[tuple, list[int]] = {}
        # id ↦ the first group seen of that iso type, its representative
        self._reps: list[PermGroup] = []
        # (degree, order) ↦ the ids whose representative has them
        self._by_size: dict[tuple[int, int], list[int]] = {}
        # (degree, generator tuple) of every group seen ↦ its id
        self._gid_of_gens: dict[tuple, int] = {}
        self._gid_of: weakref.WeakKeyDictionary[PermGroup, int] = weakref.WeakKeyDictionary()
        self._memo: dict[tuple, bool] = {}
        # G ↦ {lattice index ↦ quotient}, None standing for G/1 = G
        self._quotients: weakref.WeakKeyDictionary[PermGroup, dict[int, PermGroup | None]] = (
            weakref.WeakKeyDictionary())
        self._finite_sets: dict[tuple[str, ...], list[PermGroup]] = {}

    # -- canonicalization ------------------------------------------------

    def canon_id(self, G: PermGroup) -> int:
        gid = self._gid_of.get(G)
        if gid is not None:
            return gid
        gens_key = (G.degree, tuple(G.raw_gens()))
        gid = self._gid_of_gens.get(gens_key)
        if gid is None:
            gid = self._register(G)
            self._gid_of_gens[gens_key] = gid
        self._gid_of[G] = gid
        return gid

    def _register(self, G: PermGroup) -> int:
        # A representative equal to G as a subgroup of Sym(n) is isomorphic
        # to it through the identity map, so no search runs.
        same_size = self._by_size.setdefault((G.degree, G.order()), [])
        for gid in same_size:
            if self._reps[gid].same_group(G):
                return gid
        bucket = self._registry.setdefault(fingerprint(G, self.caps), [])
        for gid in bucket:
            if isomorphic(self._reps[gid], G, self.caps) is not None:
                return gid
        gid = len(self._reps)
        self._reps.append(G)
        same_size.append(gid)
        bucket.append(gid)
        return gid

    def lattice(self, G: PermGroup):
        return normal_subgroups(G, self.caps)

    def quotient_at(self, G: PermGroup, idx: int) -> PermGroup:
        known = self._quotients.setdefault(G, {})
        if idx not in known:
            N = self.lattice(G).members[idx]
            Q, _ = quotient(G, N)
            # Holding G under its own weak key would keep it alive.
            known[idx] = None if Q is G else Q
        Q = known[idx]
        return G if Q is None else Q

    # -- membership ------------------------------------------------------

    def member(self, C: ClassExpr, G: PermGroup) -> bool:
        gid = self.canon_id(G)
        key = (C.text(), gid)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        value = self._eval(C, self._reps[gid])
        self._memo[key] = value
        return value

    def _finite_set_members(self, specs: tuple[str, ...]) -> list[PermGroup]:
        groups = self._finite_sets.get(specs)
        if groups is None:
            groups = [parse_group_spec(s) for s in specs]
            self._finite_sets[specs] = groups
        return groups

    def _eval(self, C: ClassExpr, G: PermGroup) -> bool:
        if isinstance(C, Trivial):
            return G.order() == 1
        if isinstance(C, All):
            return True
        if isinstance(C, Abelian):
            return is_abelian(G)
        if isinstance(C, Cyclic):
            return is_cyclic(G, self.caps)
        if isinstance(C, Nilpotent):
            return is_nilpotent(G)
        if isinstance(C, Solvable):
            return is_solvable(G)
        if isinstance(C, Simple):
            return is_simple(G, self.caps)
        if isinstance(C, PGroup):
            return is_p_group(G, C.p)
        if isinstance(C, Pi):
            allowed = set(C.primes)
            return all(p in allowed for p in _prime_factors(G.order()))
        if isinstance(C, OrderAtMost):
            return G.order() <= C.n
        if isinstance(C, AltGE):
            return self._alt_ge(C.n, G)
        if isinstance(C, FiniteSet):
            return any(G.order() == M.order()
                       and isomorphic(G, M, self.caps) is not None
                       for M in self._finite_set_members(C.specs))
        if isinstance(C, Union):
            return self.member(C.a, G) or self.member(C.b, G)
        if isinstance(C, Intersect):
            return self.member(C.a, G) and self.member(C.b, G)
        if isinstance(C, Dual):
            return self.dual_witness(C.a, G) is None
        if isinstance(C, Hat):
            return self.hat_series(C.a, G) is not None
        if isinstance(C, DualIter):
            if C.k > self.caps.dual_depth:
                raise CapExceeded(
                    f"dual-iteration depth {C.k} exceeds configured depth "
                    f"{self.caps.dual_depth}")
            return self.member(_expand_dual_iter(C), G)
        raise InvalidInput(f"unhandled class expression {C!r}")

    def _alt_ge(self, n: int, G: PermGroup) -> bool:
        order = G.order()
        if order == 1:
            return True
        m = max(n, 3)
        while True:
            alt_order = math.factorial(m) // 2
            if alt_order > order:
                return False
            if alt_order == order:
                return isomorphic(G, alternating(m), self.caps) is not None
            m += 1

    def dual_witness(self, C: ClassExpr, G: PermGroup) -> PermGroup | None:
        """The least proper normal subgroup with quotient in C, else None.

        G is in the dual of C exactly when this returns None.
        """
        lat = self.lattice(G)
        n = G.order()
        for idx, N in enumerate(lat.members):
            if N.order() == n:
                continue
            if self.member(C, self.quotient_at(G, idx)):
                return N
        return None

    def hat_series(self, C: ClassExpr, G: PermGroup,
                   _above: int | None = None) -> list[PermGroup] | None:
        """An ascending subnormal chain from 1 to G with every step-quotient in C."""
        assert _above is None or G.order() < _above, "series recursion must descend"
        if G.order() == 1:
            return [G]
        hat_key = (Hat(C).text(), self.canon_id(G))
        if self._memo.get(hat_key) is False:
            return None
        lat = self.lattice(G)
        for idx, N in enumerate(lat.members):
            if N.order() == G.order():
                continue
            if not self.member(C, self.quotient_at(G, idx)):
                continue
            below = self.hat_series(C, N, G.order())
            if below is not None:
                self._memo[hat_key] = True
                return below + [G]
        self._memo[hat_key] = False
        return None

    # -- bidual characterizations ---------------------------------------

    def bidual_member_maxnormal(self, C: ClassExpr, G: PermGroup) -> bool:
        """True iff every maximal-normal quotient lies in C (vacuous for 1)."""
        if G.order() == 1:
            return True
        lat = self.lattice(G)
        for idx, flag in enumerate(lat.maximal):
            if flag and not self.member(C, self.quotient_at(G, idx)):
                return False
        return True

    def bidual_member_radical(self, C: ClassExpr, G: PermGroup) -> bool:
        """True iff every simple factor of the radical factorization lies in C."""
        if G.order() == 1:
            raise InvalidInput("the radical route needs a nontrivial group")
        fac = radical_factorization(G, self.caps)
        return all(self.member(C, Q) for Q in fac.quotients)

    def dual_chain_member(self, C: ClassExpr, G: PermGroup, k: int) -> bool:
        return self.member(DualIter(C, k), G)

    # -- tracing ---------------------------------------------------------

    def member_trace(self, C: ClassExpr, G: PermGroup) -> tuple[bool, dict]:
        """Membership plus an explanation: the failing normal subgroup for a
        dual, or the found series for an associated class."""
        value = self.member(C, G)
        trace: dict = {}
        if isinstance(C, Dual) and not value:
            witness = self.dual_witness(C.a, G)
            assert witness is not None
            idx = self.lattice(G).members.index(witness)
            Q = self.quotient_at(G, idx)
            trace = {
                "witness_normal_order": witness.order(),
                "witness_normal_gens": witness.gen_strings(),
                "quotient_order": Q.order(),
            }
        elif isinstance(C, Hat) and value:
            series = self.hat_series(C.a, G)
            assert series is not None
            trace = {"series_orders": [S.order() for S in series],
                     "series_gens": [S.gen_strings() for S in series]}
        return value, trace


def _expand_dual_iter(C: DualIter) -> ClassExpr:
    expr: ClassExpr = C.a
    for _ in range(C.k):
        expr = Dual(expr)
    return expr


# ---------------------------------------------------------------------------
# Audits


def audit_property(C: ClassExpr, catalog: Catalog, which: str,
                   ev: ClassEval | None = None) -> AuditReport:
    """Check one closure property of C over every catalog member.

    C0: members' subgroups stay in C.  C1: members' quotients stay in C.
    C2: an extension of a C-group by a C-group (both factors drawn from the
    catalog member's own normal structure) is in C.  C3: if two quotients
    G/H1, G/H2 are in C then so is G/(H1 ∩ H2).
    """
    if which not in ("C0", "C1", "C2", "C3"):
        raise InvalidInput(f"unknown closure property {which!r}")
    ev = ev if ev is not None else ClassEval()
    counterexamples: list[dict] = []
    skipped: list[dict] = []

    for entry in catalog.entries:
        G = entry.group
        try:
            if which == "C0":
                if not ev.member(C, G):
                    continue
                # Conjugates are isomorphic, so the first member of each
                # class decides for the whole class.
                subs = subgroups(G, caps=ev.caps)
                first = subgroup_classes(G, ev.caps)
                verdicts: list[bool] = []
                for pos, S in enumerate(subs):
                    verdicts.append(ev.member(C, S) if first[pos] == pos
                                    else verdicts[first[pos]])
                    if not verdicts[pos]:
                        counterexamples.append({
                            "group": entry.name,
                            "subgroup_order": S.order(),
                            "subgroup_gens": S.gen_strings(),
                        })
            elif which == "C1":
                if not ev.member(C, G):
                    continue
                lat = ev.lattice(G)
                for idx, N in enumerate(lat.members):
                    Q = ev.quotient_at(G, idx)
                    if not ev.member(C, Q):
                        counterexamples.append({
                            "group": entry.name,
                            "normal_order": N.order(),
                            "quotient_order": Q.order(),
                        })
            elif which == "C2":
                lat = ev.lattice(G)
                for idx, N in enumerate(lat.members):
                    if not ev.member(C, N):
                        continue
                    Q = ev.quotient_at(G, idx)
                    if ev.member(C, Q) and not ev.member(C, G):
                        counterexamples.append({
                            "group": entry.name,
                            "normal_order": N.order(),
                            "quotient_order": Q.order(),
                        })
            else:
                lat = ev.lattice(G)
                in_c = [idx for idx in range(len(lat.members))
                        if ev.member(C, ev.quotient_at(G, idx))]
                for pos, i in enumerate(in_c):
                    for j in in_c[pos:]:
                        meet = lat.meet(i, j)
                        if not ev.member(C, ev.quotient_at(G, meet)):
                            counterexamples.append({
                                "group": entry.name,
                                "h1_order": lat.members[i].order(),
                                "h2_order": lat.members[j].order(),
                                "meet_order": lat.members[meet].order(),
                                "meet_quotient_order":
                                    ev.quotient_at(G, meet).order(),
                            })
        except CapExceeded as exc:
            skipped.append({"group": entry.name, "reason": str(exc)})

    return AuditReport(
        property_name=which,
        class_text=C.text(),
        holds=not counterexamples,
        counterexamples=counterexamples,
        skipped=skipped,
        domain=f"catalog of {len(catalog)} groups "
               f"(sym_degree={catalog.provenance.get('sym_degree')})",
    )


_FLAG_RULES = {
    "pre_formation": ("C1",),
    "formation": ("C1", "C3"),
    "extensive_formation": ("C1", "C2", "C3"),
    "pre_variety": ("C0", "C1"),
    "extensive_variety": ("C0", "C1", "C2", "C3"),
}


def classify(C: ClassExpr, catalog: Catalog,
             ev: ClassEval | None = None) -> dict:
    """Taxonomy flags for C over the catalog, with the underlying audit reports."""
    ev = ev if ev is not None else ClassEval()
    reports = {which: audit_property(C, catalog, which, ev)
               for which in ("C0", "C1", "C2", "C3")}
    flags = {flag: all(reports[w].holds for w in needs)
             for flag, needs in _FLAG_RULES.items()}
    return {"class": C.text(), "flags": flags, "reports": reports}
